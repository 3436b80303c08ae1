#include "vmem/address_space.h"

#include <cassert>

namespace pvfsib::vmem {

u64 AddressSpace::alloc(u64 bytes) {
  assert(bytes > 0);
  const u64 start = page_ceil(cursor_);
  cursor_ = start + page_ceil(bytes);
  bytes_.map(start, bytes);
  return start;
}

void AddressSpace::skip(u64 bytes) { cursor_ = page_ceil(cursor_ + bytes); }

Status AddressSpace::alloc_at(u64 vaddr, u64 bytes) {
  if (vaddr < kBaseVaddr) {
    return invalid_argument("alloc_at below base address");
  }
  if (vaddr != page_floor(vaddr)) {
    return invalid_argument("alloc_at requires page-aligned vaddr");
  }
  const u64 len = page_ceil(bytes);
  if (!bytes_.mapped_within({vaddr, len}).empty()) {
    return already_exists("range overlaps existing mapping");
  }
  cursor_ = std::max(cursor_, vaddr + len);
  bytes_.map(vaddr, len);
  return Status::ok();
}

Status AddressSpace::free_at(u64 vaddr) {
  if (!bytes_.unmap(vaddr)) return not_found("no allocation at this address");
  return Status::ok();
}

bool AddressSpace::range_allocated(u64 addr, u64 len) const {
  if (len == 0) return true;
  const u64 lo = page_floor(addr);
  const Extent pages{lo, page_ceil(addr + len) - lo};
  // Touching runs report as one extent, so it must cover every page.
  const ExtentList m = bytes_.mapped_within(pages);
  return m.size() == 1 && m[0] == pages;
}

ExtentList AddressSpace::allocated_within(const Extent& span) const {
  return bytes_.mapped_within(span);
}

ExtentList AddressSpace::allocated_extents() const {
  return bytes_.mapped_within({kBaseVaddr, ~u64{0} - kBaseVaddr});
}

}  // namespace pvfsib::vmem

// Per-process virtual address space model.
//
// InfiniBand memory registration pins *pages*; whether a page can be pinned
// depends on whether the process has actually mapped it. Optimistic Group
// Registration's whole point is handling unallocated "holes" between list
// I/O buffers, so the simulation needs a faithful page-granular allocation
// map plus the OS services the paper uses: failing registration on
// unallocated pages, and querying true allocation extents (the custom
// kernel syscall vs reading /proc/$pid/maps).
//
// Each allocation is one run of a SparseBytes store holding real bytes, so
// RDMA operations move actual data and end-to-end tests can verify
// byte-exact results. A run never moves: pointers and spans into an
// allocation stay valid until it is freed, whatever is allocated later.
// Each run is also its own anonymous host mapping, so an allocation costs
// the host only the pages the simulation writes: an iod's staging pool
// (4 MiB per client connection) stays non-resident until rounds use it.
#pragma once

#include <cstring>
#include <span>

#include "common/extent.h"
#include "common/sparse_bytes.h"
#include "common/status.h"
#include "common/types.h"

namespace pvfsib::vmem {

class AddressSpace {
 public:
  // Virtual addresses start well above zero so that 0 can mean "null".
  static constexpr u64 kBaseVaddr = 0x10000;

  AddressSpace() = default;
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // mmap-like allocation: page-aligned, page-granular. Returns the vaddr.
  u64 alloc(u64 bytes);

  // Advance the allocation cursor without mapping — creates a permanent
  // unallocated hole (used to model distinct malloc arenas / guard gaps).
  void skip(u64 bytes);

  // Map a specific range (page-rounded). Fails if any page is already
  // mapped or the range precedes the base address.
  Status alloc_at(u64 vaddr, u64 bytes);

  // Unmap a previous allocation made at exactly `vaddr`.
  Status free_at(u64 vaddr);

  // True when every page of [addr, addr+len) is mapped.
  bool range_allocated(u64 addr, u64 len) const;

  // The OS hole-query service: mapped extents intersecting `span`, sorted.
  // The *cost* of the query is charged by the caller from OsParams using
  // the returned list's size (the syscall walks one vm_area per extent).
  ExtentList allocated_within(const Extent& span) const;

  // All mapped extents (for diagnostics/tests).
  ExtentList allocated_extents() const;

  u64 bytes_mapped() const { return bytes_.bytes(); }

  // --- Backing data access -------------------------------------------------
  // Raw access into the allocation holding `addr`. A pointer or span is valid
  // for the rest of that allocation only; one that touches a hole or crosses
  // into another allocation is an assert (on a real machine it would fault).
  std::byte* data(u64 addr) { return bytes_.span(addr, 0).data(); }
  const std::byte* data(u64 addr) const { return bytes_.span(addr, 0).data(); }

  std::span<std::byte> writable_span(u64 addr, u64 len) {
    return bytes_.span(addr, len);
  }
  std::span<const std::byte> readable_span(u64 addr, u64 len) const {
    return bytes_.span(addr, len);
  }

  // Convenience typed accessors for tests/workloads.
  template <typename T>
  T read_pod(u64 addr) const {
    T v;
    std::memcpy(&v, readable_span(addr, sizeof(T)).data(), sizeof(T));
    return v;
  }
  template <typename T>
  void write_pod(u64 addr, const T& v) {
    std::memcpy(writable_span(addr, sizeof(T)).data(), &v, sizeof(T));
  }

 private:
  u64 cursor_ = kBaseVaddr;
  SparseBytes bytes_;  // one run per allocation
};

}  // namespace pvfsib::vmem

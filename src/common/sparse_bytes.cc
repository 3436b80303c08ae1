#include "common/sparse_bytes.h"

#include <cassert>
#include <cstring>
#include <new>
#include <utility>

namespace pvfsib {

template <class Fn>
void SparseBytes::each_overlap(u64 off, u64 len, Fn&& fn) const {
  const u64 end = off + len;
  auto it = runs_.upper_bound(off);
  if (it != runs_.begin()) --it;
  for (; it != runs_.end() && it->first < end; ++it) {
    const u64 lo = std::max(off, it->first);
    const u64 hi = std::min(end, it->first + it->second.len);
    if (lo < hi) fn(it->second.data.get() + (lo - it->first), lo, hi - lo);
  }
}

void SparseBytes::map(u64 off, u64 len) {
  const u64 lo = page_floor(off);
  const u64 hi = page_ceil(off + len);
  assert(lo < hi && mapped_within({lo, hi - lo}).empty());
  auto* p = static_cast<std::byte*>(std::calloc(hi - lo, 1));
  if (p == nullptr) throw std::bad_alloc();
  runs_.emplace(lo, Run{hi - lo, {p, Free{}}});
  bytes_ += hi - lo;
}

bool SparseBytes::unmap(u64 off) {
  const auto it = runs_.find(off);
  if (it == runs_.end()) return false;
  bytes_ -= it->second.len;
  runs_.erase(it);
  return true;
}

void SparseBytes::write(u64 off, std::span<const std::byte> src) {
  const Extent w{off, src.size()};
  for (const Extent& gap : holes_within(w, mapped_within(w))) {
    map(gap.offset, gap.length);
  }
  each_overlap(off, src.size(), [&](std::byte* p, u64 lo, u64 n) {
    std::memcpy(p, src.data() + (lo - off), n);
  });
}

void SparseBytes::read(u64 off, std::span<std::byte> dst) const {
  if (dst.empty()) return;
  u64 pos = off;
  each_overlap(off, dst.size(), [&](const std::byte* p, u64 lo, u64 n) {
    std::memset(dst.data() + (pos - off), 0, lo - pos);
    std::memcpy(dst.data() + (lo - off), p, n);
    pos = lo + n;
  });
  std::memset(dst.data() + (pos - off), 0, off + dst.size() - pos);
}

std::span<const std::byte> SparseBytes::span(u64 off, u64 len) const {
  auto it = runs_.upper_bound(off);
  assert(it != runs_.begin() && "span starts below every run");
  --it;
  assert(off + len <= it->first + it->second.len &&
         "span touches a hole or crosses into another run");
  return {it->second.data.get() + (off - it->first), len};
}

std::span<std::byte> SparseBytes::span(u64 off, u64 len) {
  const std::span<const std::byte> s = std::as_const(*this).span(off, len);
  return {const_cast<std::byte*>(s.data()), s.size()};
}

ExtentList SparseBytes::mapped_within(const Extent& window) const {
  ExtentList out;
  each_overlap(window.offset, window.length,
               [&](const std::byte*, u64 lo, u64 n) {
                 if (!out.empty() && out.back().end() == lo) {
                   out.back().length += n;
                 } else {
                   out.push_back({lo, n});
                 }
               });
  return out;
}

}  // namespace pvfsib

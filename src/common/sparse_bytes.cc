#include "common/sparse_bytes.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdlib>
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
    if (lo < hi) fn(it->second.data + (lo - it->first), lo, hi - lo);
  }
}

SparseBytes::Run::Run(u64 n, Source src) : len(n), source(src) {
  void* p = nullptr;
  if (source == Source::kMmap) {
    p = mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
             -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
  } else {
    p = std::calloc(len, 1);
    if (p == nullptr) throw std::bad_alloc();
  }
  data = static_cast<std::byte*>(p);
}

SparseBytes::Run::~Run() {
  if (source == Source::kMmap) {
    munmap(data, len);
  } else {
    std::free(data);
  }
}

void SparseBytes::add_run(u64 off, u64 len, Run::Source source) {
  const u64 lo = page_floor(off);
  const u64 hi = page_ceil(off + len);
  assert(lo < hi && mapped_within({lo, hi - lo}).empty());
  runs_.try_emplace(lo, hi - lo, source);
  bytes_ += hi - lo;
}

void SparseBytes::map(u64 off, u64 len) {
  add_run(off, len, Run::Source::kMmap);
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
    add_run(gap.offset, gap.length, Run::Source::kCalloc);
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
  return {it->second.data + (off - it->first), len};
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

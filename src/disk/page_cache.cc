#include "disk/page_cache.h"

#include <utility>

namespace pvfsib::disk {

ExtentList PageCache::cached_ranges(u32 file, const Extent& window) const {
  ExtentList out;
  if (window.empty()) return out;
  const u64 first = window.offset / kPageSize;
  const u64 last = (window.end() - 1) / kPageSize;
  auto it = entries_.lower_bound(PageKey{file, first});
  for (; it != entries_.end() && it->first.file == file &&
         it->first.page <= last;
       ++it) {
    const u64 lo = std::max(window.offset, it->first.page * kPageSize);
    const u64 hi = std::min(window.end(), (it->first.page + 1) * kPageSize);
    if (lo < hi) out.push_back({lo, hi - lo});
  }
  return coalesce(out);
}

std::vector<PageKey> PageCache::insert(u32 file, u64 first_page, u64 n,
                                       bool dirty) {
  std::vector<PageKey> evicted_dirty;
  for (u64 p = first_page; p < first_page + n; ++p) {
    const PageKey key{file, p};
    if (dirty) dirty_.insert(key);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      touch(it);
      continue;
    }
    while (entries_.size() >= capacity_pages_ && !lru_.empty()) {
      const PageKey victim = lru_.back();
      if (dirty_.erase(victim) != 0) evicted_dirty.push_back(victim);
      entries_.erase(victim);
      lru_.pop_back();
    }
    lru_.push_front(key);
    entries_[key] = lru_.begin();
  }
  return evicted_dirty;
}

namespace {

// The keys of `file` in an ordered set of page keys.
std::pair<std::set<PageKey>::iterator, std::set<PageKey>::iterator> file_keys(
    std::set<PageKey>& keys, u32 file) {
  return {keys.lower_bound(PageKey{file, 0}),
          keys.upper_bound(PageKey{file, ~u64{0}})};
}

}  // namespace

ExtentList PageCache::flush_dirty(u32 file) {
  ExtentList dirty;
  const auto [lo, hi] = file_keys(dirty_, file);
  for (auto it = lo; it != hi; ++it) {
    dirty.push_back({it->page * kPageSize, kPageSize});
  }
  dirty_.erase(lo, hi);
  return coalesce(dirty);
}

std::vector<PageKey> PageCache::drop(u32 file) {
  const auto [dlo, dhi] = file_keys(dirty_, file);
  std::vector<PageKey> dirty(dlo, dhi);
  dirty_.erase(dlo, dhi);
  auto it = entries_.lower_bound(PageKey{file, 0});
  while (it != entries_.end() && it->first.file == file) {
    lru_.erase(it->second);
    it = entries_.erase(it);
  }
  return dirty;
}

std::vector<PageKey> PageCache::drop_all() {
  std::vector<PageKey> dirty(dirty_.begin(), dirty_.end());
  dirty_.clear();
  entries_.clear();
  lru_.clear();
  return dirty;
}

void PageCache::touch(std::map<PageKey, Lru::iterator>::iterator it) {
  lru_.erase(it->second);
  lru_.push_front(it->first);
  it->second = lru_.begin();
}

}  // namespace pvfsib::disk

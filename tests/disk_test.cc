#include "disk/disk.h"

#include <gtest/gtest.h>

#include "disk/page_cache.h"

namespace pvfsib::disk {
namespace {

TEST(Disk, SequentialAccessPaysNoSeek) {
  Stats stats;
  Disk d(DiskParams{}, &stats);
  d.read(0, kMiB);
  EXPECT_EQ(stats.get(stat::kDiskSeek), 0);
  d.read(kMiB, kMiB);  // head is already there
  EXPECT_EQ(stats.get(stat::kDiskSeek), 0);
  d.read(10 * kMiB, kMiB);  // jump
  EXPECT_EQ(stats.get(stat::kDiskSeek), 1);
  EXPECT_EQ(stats.get(stat::kDiskReadBytes), 3 * static_cast<i64>(kMiB));
}

TEST(Disk, SeekCostGrowsWithDistance) {
  DiskParams p;
  Stats stats;
  Disk d(p, &stats);
  d.read(0, kPageSize);
  const Duration near = d.read(2 * kMiB, kPageSize);
  Disk d2(p, &stats);
  d2.read(0, kPageSize);
  const Duration far = d2.read(20 * kGiB, kPageSize);
  EXPECT_LT(near, far);
}

TEST(Disk, LargeSequentialHitsAsymptote) {
  Disk d(DiskParams{}, nullptr);
  const u64 n = 256 * kMiB;
  const Duration t = d.write(0, n);
  EXPECT_NEAR(bandwidth_mib(n, t), 25.0, 1.5);  // Table 3 uncached write
  Disk d2(DiskParams{}, nullptr);
  const Duration tr = d2.read(0, n);
  EXPECT_NEAR(bandwidth_mib(n, tr), 20.0, 1.5);  // Table 3 uncached read
}

TEST(Disk, SmallAccessesAreMuchSlower) {
  Disk d(DiskParams{}, nullptr);
  const Duration t = d.read(0, 4 * kKiB);
  EXPECT_LT(bandwidth_mib(4 * kKiB, t), 5.0);
}

TEST(PageCache, InsertAndQuery) {
  DiskParams p;
  PageCache c(p);
  EXPECT_TRUE(c.insert(0, 4, 2, false).empty());
  EXPECT_TRUE(c.cached({0, 4}));
  EXPECT_TRUE(c.cached({0, 5}));
  EXPECT_FALSE(c.cached({0, 6}));
  EXPECT_FALSE(c.cached({1, 4}));  // different file

  const ExtentList r =
      c.cached_ranges(0, {3 * kPageSize, 4 * kPageSize});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (Extent{4 * kPageSize, 2 * kPageSize}));
}

TEST(PageCache, CachedRangesClipsToWindow) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 10, false);
  const ExtentList r = c.cached_ranges(0, {100, 50});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], (Extent{100, 50}));
}

TEST(PageCache, DirtyFlush) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 2, true);
  c.insert(0, 2, 2, false);
  c.insert(0, 8, 1, true);
  const ExtentList dirty = c.flush_dirty(0);
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], (Extent{0, 2 * kPageSize}));
  EXPECT_EQ(dirty[1], (Extent{8 * kPageSize, kPageSize}));
  // Second flush finds nothing.
  EXPECT_TRUE(c.flush_dirty(0).empty());
}

TEST(PageCache, RewriteMarksDirtyAgain) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 1, true);
  c.flush_dirty(0);
  c.insert(0, 0, 1, true);
  EXPECT_EQ(c.flush_dirty(0).size(), 1u);
}

TEST(PageCache, LruEvictionReturnsDirtyVictims) {
  DiskParams p;
  p.cache_capacity = 4 * kPageSize;
  PageCache c(p);
  c.insert(0, 0, 2, true);
  c.insert(0, 2, 2, false);
  // Inserting 2 more evicts the 2 oldest (dirty) pages.
  const std::vector<PageKey> evicted = c.insert(0, 4, 2, false);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], (PageKey{0, 0}));
  EXPECT_EQ(evicted[1], (PageKey{0, 1}));
  EXPECT_FALSE(c.cached({0, 0}));
  EXPECT_TRUE(c.cached({0, 4}));
}

TEST(PageCache, TouchKeepsHotPagesResident) {
  DiskParams p;
  p.cache_capacity = 4 * kPageSize;
  PageCache c(p);
  c.insert(0, 0, 4, false);
  c.insert(0, 0, 1, false);  // touch page 0 -> most recent
  c.insert(0, 100, 1, false);
  EXPECT_TRUE(c.cached({0, 0}));
  EXPECT_FALSE(c.cached({0, 1}));  // was LRU
}

TEST(PageCache, DropFileDiscardsAndReportsDirty) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 3, true);
  c.insert(1, 0, 3, false);
  const std::vector<PageKey> dirty = c.drop(0);
  EXPECT_EQ(dirty.size(), 3u);
  EXPECT_FALSE(c.cached({0, 0}));
  EXPECT_TRUE(c.cached({1, 0}));
  EXPECT_EQ(c.pages_cached(), 3u);
  c.drop_all();
  EXPECT_EQ(c.pages_cached(), 0u);
}

// A dirty page that eviction already handed back for write-back is not
// flushed again by the next fsync.
TEST(PageCache, FlushSkipsEvictedDirtyPages) {
  DiskParams p;
  p.cache_capacity = 4 * kPageSize;
  PageCache c(p);
  c.insert(0, 0, 2, true);
  c.insert(0, 2, 2, true);
  ASSERT_EQ(c.insert(0, 4, 2, false).size(), 2u);  // evicts pages 0, 1
  const ExtentList dirty = c.flush_dirty(0);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], (Extent{2 * kPageSize, 2 * kPageSize}));
  // Re-reading an evicted page brings it back clean.
  c.insert(0, 0, 1, false);
  EXPECT_TRUE(c.flush_dirty(0).empty());
}

TEST(PageCache, FlushAfterDropFindsNothing) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 3, true);
  c.insert(1, 5, 1, true);
  ASSERT_EQ(c.drop(0).size(), 3u);
  EXPECT_TRUE(c.flush_dirty(0).empty());
  // The other file's dirty page survives the drop.
  const ExtentList other = c.flush_dirty(1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0], (Extent{5 * kPageSize, kPageSize}));
}

TEST(PageCache, FlushAfterDropAllFindsNothing) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 2, true);
  c.insert(1, 0, 2, true);
  const std::vector<PageKey> dirty = c.drop_all();
  ASSERT_EQ(dirty.size(), 4u);
  EXPECT_EQ(dirty.front(), (PageKey{0, 0}));
  EXPECT_EQ(dirty.back(), (PageKey{1, 1}));
  EXPECT_TRUE(c.flush_dirty(0).empty());
  EXPECT_TRUE(c.flush_dirty(1).empty());
  // A page written after the drop is dirty again.
  c.insert(0, 7, 1, true);
  EXPECT_EQ(c.flush_dirty(0).size(), 1u);
}

TEST(PageCache, FlushIsPerFile) {
  PageCache c(DiskParams{});
  c.insert(0, 0, 2, true);
  c.insert(1, 0, 2, true);
  c.insert(2, 1, 1, true);
  const ExtentList one = c.flush_dirty(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (Extent{0, 2 * kPageSize}));
  EXPECT_TRUE(c.flush_dirty(1).empty());
  // Flushing file 1 left its neighbours' dirty pages alone.
  EXPECT_EQ(c.flush_dirty(0).size(), 1u);
  const ExtentList two = c.flush_dirty(2);
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(two[0], (Extent{kPageSize, kPageSize}));
  EXPECT_EQ(c.pages_cached(), 5u);  // flushing keeps pages cached
}

}  // namespace
}  // namespace pvfsib::disk

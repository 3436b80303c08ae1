#include "disk/local_fs.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pvfsib::disk {
namespace {

std::vector<std::byte> pattern(u64 n, u8 seed = 1) {
  std::vector<std::byte> v(n);
  for (u64 i = 0; i < n; ++i) v[i] = std::byte{static_cast<u8>(seed + i * 7)};
  return v;
}

class LocalFsTest : public ::testing::Test {
 protected:
  LocalFsTest() : fs_("iod0", DiskParams{}, FsParams{}, &stats_) {}
  Stats stats_;
  LocalFs fs_;
};

TEST_F(LocalFsTest, CreateOpenExists) {
  ASSERT_TRUE(fs_.create("/data/f0").is_ok());
  EXPECT_TRUE(fs_.exists("/data/f0"));
  EXPECT_FALSE(fs_.exists("/data/f1"));
  EXPECT_FALSE(fs_.create("/data/f0").is_ok());  // duplicate
  Result<u32> fd = fs_.open("/data/f0");
  ASSERT_TRUE(fd.is_ok());
  EXPECT_FALSE(fs_.open("/data/nope").is_ok());
}

TEST_F(LocalFsTest, WriteThenReadRoundTrips) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const auto data = pattern(10000);
  Timed<u64> w = f.pwrite(100, data);
  EXPECT_EQ(w.value, 10000u);
  EXPECT_EQ(f.size(), 10100u);
  std::vector<std::byte> back(10000);
  Timed<u64> r = f.pread(100, back);
  EXPECT_EQ(r.value, 10000u);
  EXPECT_EQ(back, data);
}

TEST_F(LocalFsTest, ShortReadAtEof) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(0, pattern(100));
  std::vector<std::byte> buf(200);
  EXPECT_EQ(f.pread(0, buf).value, 100u);
  EXPECT_EQ(f.pread(100, buf).value, 0u);
  EXPECT_EQ(f.pread(500, buf).value, 0u);
}

TEST_F(LocalFsTest, SparseGapReadsZero) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(10000, pattern(10));
  std::vector<std::byte> buf(100);
  EXPECT_EQ(f.pread(0, buf).value, 100u);
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
}

TEST_F(LocalFsTest, CachedReadIsFastUncachedSlow) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 4 * kMiB;
  f.pwrite(0, pattern(n));
  std::vector<std::byte> buf(n);
  // Pages are cached (dirty) right after the write: read is cache-speed.
  const Duration warm = f.pread(0, buf).cost;
  EXPECT_NEAR(bandwidth_mib(n, warm), 1391.0, 150.0);
  // Flush + drop: read now comes from media at uncached speed.
  fs_.drop_caches();
  const Duration cold = f.pread(0, buf).cost;
  EXPECT_LT(bandwidth_mib(n, cold), 25.0);
  // And it is cached again afterwards.
  const Duration rewarm = f.pread(0, buf).cost;
  EXPECT_NEAR(bandwidth_mib(n, rewarm), 1391.0, 150.0);
}

TEST_F(LocalFsTest, WriteBackOnlyOnFsync) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 8 * kMiB;
  // Cached write is fast (Table 3: 303 MB/s).
  const Duration w = f.pwrite(0, pattern(n)).cost;
  EXPECT_NEAR(bandwidth_mib(n, w), 303.0, 30.0);
  // fsync pays the media write (~25 MB/s).
  const Duration s = f.fsync();
  EXPECT_NEAR(bandwidth_mib(n, s), 25.0, 3.0);
  // Second fsync is free: nothing dirty.
  EXPECT_LT(f.fsync().as_us(), 25.0);  // just the syscall, nothing dirty
}

TEST_F(LocalFsTest, DirectIoBypassesCache) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 4 * kMiB;
  const Duration w = f.pwrite(0, pattern(n), {.direct = true}).cost;
  EXPECT_LT(bandwidth_mib(n, w), 27.0);
  // Nothing to sync.
  EXPECT_LT(f.fsync().as_us(), 25.0);  // just the syscall, nothing dirty
  std::vector<std::byte> buf(n);
  const Duration r = f.pread(0, buf, {.direct = true}).cost;
  EXPECT_LT(bandwidth_mib(n, r), 22.0);
}

TEST_F(LocalFsTest, SeekSyscallChargedOnNonSequentialAccess) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(0, pattern(64 * kKiB));
  EXPECT_EQ(stats_.get("fs.lseek"), 0);  // first write at position 0
  std::vector<std::byte> buf(100);
  f.pread(0, buf);  // pos was 64K, now seeks to 0
  EXPECT_EQ(stats_.get("fs.lseek"), 1);
  f.pread(100, buf);  // sequential: no seek
  EXPECT_EQ(stats_.get("fs.lseek"), 1);
  f.pread(10000, buf);
  EXPECT_EQ(stats_.get("fs.lseek"), 2);
}

TEST_F(LocalFsTest, AccessCountsTracked) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  for (int i = 0; i < 5; ++i) f.pwrite(i * 1000, pattern(100));
  std::vector<std::byte> buf(100);
  for (int i = 0; i < 3; ++i) f.pread(i * 1000, buf);
  EXPECT_EQ(stats_.get(stat::kDiskWrite), 5);
  EXPECT_EQ(stats_.get(stat::kDiskRead), 3);
}

TEST_F(LocalFsTest, LockUnlock) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  EXPECT_FALSE(f.locked());
  EXPECT_GT(f.lock().as_us(), 0.0);
  EXPECT_TRUE(f.locked());
  EXPECT_GT(f.unlock().as_us(), 0.0);
  EXPECT_FALSE(f.locked());
}

TEST_F(LocalFsTest, RangeLocks) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  auto a = f.lock_range({100, 100});
  ASSERT_TRUE(a.is_ok());
  EXPECT_GT(a.value().cost.as_us(), 0.0);
  EXPECT_TRUE(f.range_locked({150, 10}));
  EXPECT_FALSE(f.range_locked({200, 10}));
  // Overlapping lock conflicts; disjoint one succeeds.
  EXPECT_FALSE(f.lock_range({150, 100}).is_ok());
  auto b = f.lock_range({200, 50});
  ASSERT_TRUE(b.is_ok());
  // Releasing the first makes its range available again.
  f.unlock_range(a.value().id);
  EXPECT_FALSE(f.range_locked({100, 100}));
  EXPECT_TRUE(f.lock_range({100, 100}).is_ok());
  EXPECT_FALSE(f.lock_range({0, 0}).is_ok());  // empty range rejected
}

TEST_F(LocalFsTest, PurgeReleasesDataAndCache) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(0, pattern(64 * kKiB));
  ASSERT_GT(fs_.cache().pages_cached(), 0u);
  f.purge();
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(fs_.cache().pages_cached(), 0u);
  std::vector<std::byte> buf(100);
  EXPECT_EQ(f.pread(0, buf).value, 0u);
}

TEST_F(LocalFsTest, PartialCacheHitMixesCosts) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  const u64 n = 2 * kMiB;
  f.pwrite(0, pattern(n));
  f.fsync();
  fs_.cache().drop_all();
  // Warm the first half only.
  std::vector<std::byte> half(n / 2);
  f.pread(0, half);
  const i64 miss_before = stats_.get(stat::kCacheMissBytes);
  // Full read: half hits, half misses.
  std::vector<std::byte> full(n);
  f.pread(0, full);
  const i64 missed = stats_.get(stat::kCacheMissBytes) - miss_before;
  EXPECT_EQ(missed, static_cast<i64>(n / 2));
}

// A sparse file's holes have no blocks: a cold read charges the media only
// for the pages that were written, through the page cache and with O_DIRECT
// alike, and a read wholly inside a hole charges no media at all.
TEST_F(LocalFsTest, ColdReadChargesMediaOnlyForWrittenPages) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  f.pwrite(100, pattern(10));                     // page 0
  f.pwrite(5 * kPageSize + 4000, pattern(200));   // pages 5 and 6
  f.pwrite(20 * kPageSize, pattern(kPageSize));   // page 20
  ASSERT_EQ(f.size(), 21 * kPageSize);
  fs_.drop_caches();
  std::vector<std::byte> whole(f.size());
  std::vector<std::byte> hole(4 * kPageSize);
  for (const IoOpts opts : {IoOpts{}, IoOpts{.direct = true}}) {
    fs_.cache().drop_all();
    i64 before = stats_.get(stat::kDiskReadBytes);
    ASSERT_EQ(f.pread(0, whole, opts).value, f.size());
    EXPECT_EQ(stats_.get(stat::kDiskReadBytes) - before,
              static_cast<i64>(4 * kPageSize))
        << "direct=" << opts.direct;

    fs_.cache().drop_all();
    before = stats_.get(stat::kDiskReadBytes);
    ASSERT_EQ(f.pread(8 * kPageSize, hole, opts).value, hole.size());
    EXPECT_EQ(stats_.get(stat::kDiskReadBytes), before)
        << "direct=" << opts.direct;
    for (const std::byte b : hole) ASSERT_EQ(b, std::byte{0});
  }
}

// Property: arbitrary interleavings of writes and reads always round-trip
// (the file behaves like a byte array), regardless of cache state.
TEST_F(LocalFsTest, RandomAccessConsistency) {
  const u32 fd = fs_.create("f").value();
  LocalFile& f = fs_.file(fd);
  Rng rng(5);
  std::vector<std::byte> shadow(256 * kKiB, std::byte{0});
  for (int i = 0; i < 200; ++i) {
    const u64 off = rng.below(shadow.size() - 4096);
    const u64 len = rng.range(1, 4096);
    if (rng.chance(0.5)) {
      const auto data = pattern(len, static_cast<u8>(i));
      f.pwrite(off, data);
      std::copy(data.begin(), data.end(), shadow.begin() + off);
    } else if (rng.chance(0.1)) {
      fs_.drop_caches();
    } else {
      std::vector<std::byte> buf(len);
      const u64 got = f.pread(off, buf).value;
      for (u64 j = 0; j < got; ++j) {
        ASSERT_EQ(buf[j], shadow[off + j]) << "off=" << off << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace pvfsib::disk

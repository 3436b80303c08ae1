// Client caching tier (src/cache/): attribute/name and data cache hits,
// LRU eviction, write-through and write-back modes, and the three
// coherence planes — write-notice sequences, stripe-version tags, and
// lease revocation on remove/takeover/migration. The cache-off run at the
// end pins the discipline that a disabled tier touches no counters.
#include <gtest/gtest.h>

#include <cstring>

#include "cache/client_cache.h"
#include "common/rng.h"
#include "pvfs/cluster.h"

namespace pvfsib::pvfs {
namespace {

void fill(Client& c, u64 addr, u64 n, u64 seed) {
  Rng rng(seed);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(addr + i, static_cast<u8>(rng.next()));
  }
}

bool equal_mem(Client& c, u64 a, u64 b, u64 n) {
  return std::memcmp(c.memory().data(a), c.memory().data(b), n) == 0;
}

ModelConfig cache_cfg() {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.cache.enabled = true;
  return cfg;
}

// A name routed to `shard` of a `count`-wide plane, for shard-scoped
// revoke tests.
std::string name_on_shard(u32 shard, u32 count) {
  for (int i = 0;; ++i) {
    std::string n = "/f" + std::to_string(i);
    if (shard_of(n, count) == shard) return n;
  }
}

TEST(CacheTest, AttrHitServesOpenAndStat) {
  Cluster cluster(cache_cfg(), 2, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/a").value();  // create populates the attr cache
  const Stats& s = cluster.stats();
  const i64 hits0 = s.get(stat::kPvfsCacheHits);
  Result<OpenFile> o = c.open("/a");
  ASSERT_TRUE(o.is_ok());
  EXPECT_EQ(o.value().meta.handle, f.meta.handle);
  ASSERT_TRUE(c.stat("/a").is_ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), hits0 + 2);

  // A fresh client misses once, then hits.
  Client& c1 = cluster.client(1);
  const i64 miss0 = s.get(stat::kPvfsCacheMisses);
  ASSERT_TRUE(c1.open("/a").is_ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheMisses), miss0 + 1);
  const i64 hits1 = s.get(stat::kPvfsCacheHits);
  ASSERT_TRUE(c1.open("/a").is_ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), hits1 + 1);
}

TEST(CacheTest, AttrTtlExpiresWithoutLeases) {
  ModelConfig cfg = cache_cfg();
  cfg.cache.leases = false;
  cfg.cache.attr_ttl = Duration::ms(1.0);
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  c.create("/ttl").value();
  const Stats& s = cluster.stats();
  const i64 hits0 = s.get(stat::kPvfsCacheHits);
  ASSERT_TRUE(c.open("/ttl").is_ok());  // inside the TTL: a hit
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), hits0 + 1);
  c.advance_to(c.now() + Duration::ms(5.0));
  const i64 miss0 = s.get(stat::kPvfsCacheMisses);
  ASSERT_TRUE(c.open("/ttl").is_ok());  // expired: back to the wire
  EXPECT_EQ(s.get(stat::kPvfsCacheMisses), miss0 + 1);
}

TEST(CacheTest, DataHitReturnsBytesAtZeroCost) {
  Cluster cluster(cache_cfg(), 2, 4);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/d").value();
  const u64 n = 128 * kKiB;
  const u64 src = c0.memory().alloc(n);
  fill(c0, src, n, 7);
  ASSERT_TRUE(c0.write(f, 0, src, n).ok());

  // A reader's first pass goes to the wire and caches; the second is a
  // local hit at zero simulated cost with identical bytes.
  OpenFile g = c1.open("/d").value();
  const u64 d1 = c1.memory().alloc(n);
  const u64 d2 = c1.memory().alloc(n);
  ASSERT_TRUE(c1.read(g, 0, d1, n).ok());
  const Stats& s = cluster.stats();
  const i64 hits0 = s.get(stat::kPvfsCacheHits);
  IoResult r2 = c1.read(g, 0, d2, n);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), hits0 + 1);
  EXPECT_EQ(r2.elapsed(), Duration::zero());
  EXPECT_TRUE(equal_mem(c1, d1, d2, n));
  for (u64 i = 0; i < n; ++i) {
    ASSERT_EQ(c1.memory().read_pod<u8>(d2 + i),
              c0.memory().read_pod<u8>(src + i))
        << i;
  }
}

TEST(CacheTest, WriteThroughPopulatesWriterCache) {
  Cluster cluster(cache_cfg(), 1, 4);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/wt").value();
  const u64 n = 64 * kKiB;
  const u64 src = c.memory().alloc(n);
  const u64 dst = c.memory().alloc(n);
  fill(c, src, n, 9);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  // Write-through inserted the written bytes: the read-back is a hit.
  const Stats& s = cluster.stats();
  const i64 hits0 = s.get(stat::kPvfsCacheHits);
  IoResult r = c.read(f, 0, dst, n);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), hits0 + 1);
  EXPECT_TRUE(equal_mem(c, src, dst, n));
}

TEST(CacheTest, LruEvictionBoundsDataBytes) {
  ModelConfig cfg = cache_cfg();
  cfg.cache.data_capacity = 64 * kKiB;
  Cluster cluster(cfg, 1, 4);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/lru").value();
  const u64 n = 256 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 11);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  EXPECT_LE(c.data_cache().data_bytes(), 64 * kKiB);
  // Touch disjoint ranges; the budget holds throughout.
  const u64 dst = c.memory().alloc(n);
  for (u64 off = 0; off < n; off += 64 * kKiB) {
    ASSERT_TRUE(c.read(f, off, dst + off, 64 * kKiB).ok());
    EXPECT_LE(c.data_cache().data_bytes(), 64 * kKiB);
  }
  EXPECT_TRUE(equal_mem(c, src, dst, n));
}

TEST(CacheTest, RemoveInvalidatesAcrossClients) {
  Cluster cluster(cache_cfg(), 2, 2);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/gone").value();
  const u64 n = 16 * kKiB;
  const u64 src = c0.memory().alloc(n);
  fill(c0, src, n, 13);
  ASSERT_TRUE(c0.write(f, 0, src, n).ok());
  // c1 caches the attr and the data.
  OpenFile g = c1.open("/gone").value();
  const u64 dst = c1.memory().alloc(n);
  ASSERT_TRUE(c1.read(g, 0, dst, n).ok());
  EXPECT_GT(c1.data_cache().data_entries(g.meta.handle), 0u);

  // The remove's lease revoke sweeps every client's entries for the name.
  ASSERT_TRUE(c0.remove("/gone").is_ok());
  EXPECT_EQ(c1.data_cache().data_entries(g.meta.handle), 0u);
  EXPECT_FALSE(c1.open("/gone").is_ok());  // no stale attr resurrection
  EXPECT_GT(cluster.stats().get(stat::kPvfsCacheLeaseRevokes), 0);
}

TEST(CacheTest, CrossClientWriteInvalidatesStaleData) {
  Cluster cluster(cache_cfg(), 2, 4);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/x").value();
  const u64 n = 128 * kKiB;
  const u64 a = c0.memory().alloc(n);
  fill(c0, a, n, 21);
  ASSERT_TRUE(c0.write(f, 0, a, n).ok());

  OpenFile g = c1.open("/x").value();
  const u64 d = c1.memory().alloc(n);
  ASSERT_TRUE(c1.read(g, 0, d, n).ok());  // caches version A

  // c0 overwrites: the write-notice seq moves, so c1's entries fail their
  // tag check — the next read is a miss that returns the new bytes.
  const u64 b = c0.memory().alloc(n);
  fill(c0, b, n, 22);
  ASSERT_TRUE(c0.write(f, 0, b, n).ok());
  const Stats& s = cluster.stats();
  const i64 miss0 = s.get(stat::kPvfsCacheMisses);
  ASSERT_TRUE(c1.read(g, 0, d, n).ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheMisses), miss0 + 1);
  for (u64 i = 0; i < n; ++i) {
    ASSERT_EQ(c1.memory().read_pod<u8>(d + i),
              c0.memory().read_pod<u8>(b + i))
        << i;
  }
  EXPECT_GT(s.get(stat::kPvfsCacheInvalidations), 0);
}

TEST(CacheTest, TakeoverRevokesOnlyAffectedShard) {
  ModelConfig cfg = cache_cfg();
  // Shard 0's primary dies for good at 10 ms; its standby promotes itself
  // at 12 ms. The retry budget lets the client's metadata calls fail over.
  cfg.fault.seed = 7;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  cfg.fault.standby_takeover = true;
  cfg.fault.manager_takeover_delay = Duration::ms(2.0);
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kManagerCrash,
                 TimePoint::origin() + Duration::ms(10.0), 0,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg,
                  Cluster::Topology{}.clients(1).iods(2).metadata_shards(2)
                      .standbys());
  Client& c = cluster.client(0);
  const std::string n0 = name_on_shard(0, 2);
  const std::string n1 = name_on_shard(1, 2);
  c.create(n0).value();
  c.create(n1).value();

  cluster.run();  // the crash window opens and the standby takes over
  ASSERT_GT(cluster.stats().get(stat::kPvfsManagerTakeovers), 0);
  EXPECT_GT(cluster.stats().get(stat::kPvfsCacheLeaseRevokes), 0);

  // Shard 1's attr survived the bump (hit); shard 0's was revoked (miss).
  const Stats& s = cluster.stats();
  const i64 hits0 = s.get(stat::kPvfsCacheHits);
  ASSERT_TRUE(c.open(n1).is_ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), hits0 + 1);
  const i64 miss0 = s.get(stat::kPvfsCacheMisses);
  ASSERT_TRUE(c.open(n0).is_ok());
  EXPECT_EQ(s.get(stat::kPvfsCacheMisses), miss0 + 1);
}

TEST(CacheTest, MigrationCutoverRevokesLeases) {
  Cluster cluster(cache_cfg(), 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/mig").value();
  const u64 n = 32 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 31);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  EXPECT_GT(c.data_cache().data_entries(f.meta.handle), 0u);

  ASSERT_TRUE(cluster.migrate_shard(0, c.now() + Duration::ms(1.0)));
  cluster.run();
  EXPECT_GT(cluster.stats().get(stat::kPvfsShardMigrations), 0);
  // The cutover's epoch bump revoked the shard's leases: the fresh
  // authority's write sequences restart at zero, so keeping entries would
  // invite an ABA re-validation.
  EXPECT_EQ(c.data_cache().data_entries(f.meta.handle), 0u);
  EXPECT_GT(cluster.stats().get(stat::kPvfsCacheLeaseRevokes), 0);
  // Everything still reads back through the new owner.
  const u64 dst = c.memory().alloc(n);
  ASSERT_TRUE(c.read(f, 0, dst, n).ok());
  EXPECT_TRUE(equal_mem(c, src, dst, n));
}

TEST(CacheTest, WriteBackFlushesOnClose) {
  ModelConfig cfg = cache_cfg();
  cfg.cache.write_back = true;
  cfg.cache.staleness_bound = Duration::ms(10'000.0);  // no auto-flush here
  Cluster cluster(cfg, 2, 4);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/wb").value();
  const u64 n = 64 * kKiB;
  const u64 src = c0.memory().alloc(n);
  fill(c0, src, n, 41);
  IoResult w = c0.write(f, 0, src, n);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.elapsed(), Duration::zero());  // staged, not on the wire
  EXPECT_TRUE(c0.data_cache().has_dirty(f.meta.handle));

  // The writer's own read sees the staged bytes (read-your-writes).
  const u64 rb = c0.memory().alloc(n);
  ASSERT_TRUE(c0.read(f, 0, rb, n).ok());
  EXPECT_TRUE(equal_mem(c0, src, rb, n));

  IoResult fl = c0.close(f);
  ASSERT_TRUE(fl.ok()) << fl.status.to_string();
  EXPECT_FALSE(c0.data_cache().has_dirty(f.meta.handle));
  EXPECT_EQ(c0.data_cache().data_entries(f.meta.handle), 0u);

  // The flush made the bytes durable for everyone else.
  OpenFile g = c1.open("/wb").value();
  const u64 dst = c1.memory().alloc(n);
  ASSERT_TRUE(c1.read(g, 0, dst, n).ok());
  for (u64 i = 0; i < n; ++i) {
    ASSERT_EQ(c1.memory().read_pod<u8>(dst + i),
              c0.memory().read_pod<u8>(src + i))
        << i;
  }
}

TEST(CacheTest, WriteBackStalenessBoundAutoFlushes) {
  ModelConfig cfg = cache_cfg();
  cfg.cache.write_back = true;
  cfg.cache.staleness_bound = Duration::ms(2.0);
  Cluster cluster(cfg, 2, 4);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/auto").value();
  const u64 n = 32 * kKiB;
  const u64 src = c0.memory().alloc(n);
  fill(c0, src, n, 43);
  ASSERT_TRUE(c0.write(f, 0, src, n).ok());
  EXPECT_TRUE(c0.data_cache().has_dirty(f.meta.handle));

  // The armed staleness_bound timer flushes without any further call.
  cluster.run();
  EXPECT_FALSE(c0.data_cache().has_dirty(f.meta.handle));
  OpenFile g = c1.open("/auto").value();
  const u64 dst = c1.memory().alloc(n);
  ASSERT_TRUE(c1.read(g, 0, dst, n).ok());
  for (u64 i = 0; i < n; ++i) {
    ASSERT_EQ(c1.memory().read_pod<u8>(dst + i),
              c0.memory().read_pod<u8>(src + i))
        << i;
  }
}

// A write-back flush stages its payload in client memory like any write
// op; the staging is released when the flush completes, so repeated
// flushes do not grow the client's mapped memory.
TEST(CacheTest, WriteBackFlushesReleaseTheirStaging) {
  ModelConfig cfg = cache_cfg();
  cfg.cache.write_back = true;
  cfg.cache.staleness_bound = Duration::ms(10'000.0);  // flush by hand only
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/wb-staging").value();
  const u64 n = 48 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 45);
  u64 mapped_after_first = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(c.write(f, static_cast<u64>(i) * n, src, n).ok());
    ASSERT_TRUE(c.data_cache().has_dirty(f.meta.handle));
    const IoResult fl = c.flush(f);
    ASSERT_TRUE(fl.ok()) << fl.status.to_string();
    ASSERT_FALSE(c.data_cache().has_dirty(f.meta.handle));
    if (i == 0) mapped_after_first = c.memory().bytes_mapped();
    EXPECT_EQ(c.memory().bytes_mapped(), mapped_after_first) << "flush " << i;
  }
}

TEST(CacheTest, NoteVersionDropsConflictingEntry) {
  // Direct unit test of the version-tag plane: an entry tagged with an
  // older stripe version than a note_replica_version conflict reports is
  // unservable and must be dropped.
  CacheParams p;
  p.enabled = true;
  Stats stats;
  cache::ClientCache cc(p, &stats);
  const Handle h = 42;
  std::vector<std::byte> bytes(4096, std::byte{0x5a});
  cc.insert_clean(h, 64 * kKiB, 4, {{0, 4096}}, bytes,
                  [](u32, u64* seq, u64* version) {
                    *seq = 1;
                    *version = 5;
                  });
  ASSERT_EQ(cc.data_entries(h), 1u);
  cc.note_version(h, 0, 7);  // stripe 0's replicas are at version 7
  EXPECT_EQ(cc.data_entries(h), 0u);

  // A current entry survives the same note.
  cc.insert_clean(h, 64 * kKiB, 4, {{0, 4096}}, bytes,
                  [](u32, u64* seq, u64* version) {
                    *seq = 2;
                    *version = 7;
                  });
  cc.note_version(h, 0, 7);
  EXPECT_EQ(cc.data_entries(h), 1u);
}

TEST(CacheTest, StaleTagFailsHitAndDropsEntry) {
  // Unit test of hit-time validation: read_lookup consults the supplied
  // TagCheck and treats a failing clean entry as a miss, dropping it.
  CacheParams p;
  p.enabled = true;
  Stats stats;
  cache::ClientCache cc(p, &stats);
  const Handle h = 7;
  std::vector<std::byte> bytes(8192, std::byte{0x11});
  cc.insert_clean(h, 64 * kKiB, 2, {{0, 8192}}, bytes,
                  [](u32, u64* seq, u64* version) {
                    *seq = 3;
                    *version = 1;
                  });
  std::vector<std::byte> out;
  // Authority seq moved to 4: the entry is stale.
  EXPECT_FALSE(cc.read_lookup(
      h, {{0, 8192}}, [](u32, u64 seq, u64) { return seq == 4; }, &out));
  EXPECT_EQ(cc.data_entries(h), 0u);
  EXPECT_EQ(stats.get(stat::kPvfsCacheInvalidations), 1);
  EXPECT_EQ(stats.get(stat::kPvfsCacheMisses), 1);
}

TEST(CacheTest, CacheOffIsInert) {
  // Defaults: cache disabled. The tier must contribute nothing — no
  // counters, no entries — so cache-off runs stay byte-identical.
  Cluster cluster(ModelConfig::paper_defaults(), 2, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/off").value();
  const u64 n = 32 * kKiB;
  const u64 src = c.memory().alloc(n);
  const u64 dst = c.memory().alloc(n);
  fill(c, src, n, 51);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  ASSERT_TRUE(c.read(f, 0, dst, n).ok());
  ASSERT_TRUE(c.open("/off").is_ok());
  ASSERT_TRUE(cluster.client(1).open("/off").is_ok());
  ASSERT_TRUE(c.remove("/off").is_ok());
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kPvfsCacheHits), 0);
  EXPECT_EQ(s.get(stat::kPvfsCacheMisses), 0);
  EXPECT_EQ(s.get(stat::kPvfsCacheInvalidations), 0);
  EXPECT_EQ(s.get(stat::kPvfsCacheLeaseRevokes), 0);
  EXPECT_FALSE(c.data_cache().enabled());
  EXPECT_EQ(c.data_cache().attr_entries(), 0u);
  EXPECT_EQ(s.to_string().find("pvfs.cache"), std::string::npos);
}

}  // namespace
}  // namespace pvfsib::pvfs

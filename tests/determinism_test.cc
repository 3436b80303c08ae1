// Regression lock on bit-for-bit determinism: the whole simulation —
// including a *non-trivial fault plane* — is a pure function of its
// inputs. Two runs of the Figure 6 block-column workload with identical
// configs (same fault seed, same crash schedule) must produce identical
// Stats snapshots and identical sim::Trace event streams; a different
// fault seed must not.
//
// This is what makes recovery behaviour testable at all: a faulty run is
// exactly as reproducible as a healthy one.
//
// The GoldenFingerprintTest cases go one step further: they pin each
// fingerprint's FNV-1a 64 hash to a recorded constant, so a change in
// behaviour between two versions of the code fails even though each
// version on its own is perfectly deterministic.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mpiio/mpio_file.h"
#include "pvfs/cluster.h"
#include "sim/trace.h"
#include "workloads/block_column.h"

namespace pvfsib::pvfs {
namespace {

ModelConfig faulty_fig6_config(u64 seed) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = seed;
  cfg.fault.request_drop_rate = 0.02;
  cfg.fault.reply_drop_rate = 0.02;
  cfg.fault.retransmit_rate = 0.05;
  cfg.fault.latency_spike_rate = 0.02;
  // One deterministic crash window on iod 1 partway into the run.
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::from_ns(2'000'000), 1,
                                          Duration::ms(4.0)});
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.max_retries = 25;
  return cfg;
}

ModelConfig replicated_config(u64 seed) {
  ModelConfig cfg = faulty_fig6_config(seed);
  cfg.replication.factor = 2;
  cfg.fault.adaptive_timeout = true;
  return cfg;
}

ModelConfig takeover_config(u64 seed) {
  ModelConfig cfg = faulty_fig6_config(seed);
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.fault.standby_takeover = true;
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kManagerCrash,
                                          TimePoint::from_ns(1'000'000), 0,
                                          Duration::ms(20.0)});
  return cfg;
}

void start_trace() {
  sim::Trace& trace = sim::Trace::instance();
  trace.enable(/*capacity=*/1 << 16);
  trace.clear();
}

// The (trace, stats) fingerprint of everything `cluster` did since
// start_trace(); stops and clears the trace.
std::string finish_trace(Cluster& cluster) {
  sim::Trace& trace = sim::Trace::instance();
  std::string fp;
  for (const sim::Trace::Entry& e : trace.entries()) {
    fp += std::to_string(e.at.as_ns()) + " " + e.who + " " + e.what + "\n";
  }
  fp += "dropped=" + std::to_string(trace.dropped()) + "\n";
  fp += cluster.stats().to_string();
  trace.disable();
  trace.clear();
  return fp;
}

// One (trace, stats) fingerprint of the fig6 block-column write under `cfg`.
std::string run_fingerprint(const ModelConfig& cfg) {
  start_trace();
  Cluster cluster(cfg, 4, 4);
  mpiio::Communicator comm(cluster);
  workloads::BlockColumnWorkload w;
  w.n = 1024;
  Result<mpiio::File> file = mpiio::File::create(comm, "/det");
  EXPECT_TRUE(file.is_ok());
  mpiio::File f = file.value();
  std::vector<mpiio::RankIo> io(4);
  for (int p = 0; p < 4; ++p) {
    io[p] = w.rank_io(p, comm.rank(p).memory().alloc(w.share_bytes()));
  }
  mpiio::Hints hints;
  hints.method = mpiio::IoMethod::kListIoAds;
  for (const IoResult& r : f.write_all(io, hints)) {
    EXPECT_TRUE(r.ok()) << r.status.to_string();
  }
  return finish_trace(cluster);
}

// The background re-replication plane end to end: a primary down for an
// overwrite, then the backup dead for good, with a read-back in between.
std::string resync_fingerprint() {
  start_trace();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.replication.resync = true;
  // Primary down for the overwrite, backup dead for good later: the
  // restarted primary must re-replicate inside the gap.
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(20.0), 0,
                 Duration::ms(30.0)});
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(100.0), 1,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/det-seq", 64 * kKiB, 1, 0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  const u64 b = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(a + i, 0x11);
    c.memory().write_pod<u8>(b + i, 0x22);
  }
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  IoHandle w, r;
  const TimePoint wat = TimePoint::origin() + Duration::ms(25.0);
  cluster.engine().schedule_at(wat, [&, wat] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, wat});
  });
  const u64 dst = c.memory().alloc(n);
  const TimePoint rat = TimePoint::origin() + Duration::ms(500.0);
  cluster.engine().schedule_at(rat, [&, rat] {
    core::ListIoRequest req;
    req.mem = {{dst, n}};
    req.file = {{0, n}};
    r = c.submit({IoDir::kRead, f, req, {}, rat});
  });
  cluster.engine().run_until([&r] { return r.valid() && r.poll(); });
  EXPECT_TRUE(w.poll() && w.result().ok());
  EXPECT_TRUE(r.poll() && r.result().ok());
  EXPECT_EQ(c.memory().read_pod<u8>(dst), 0x22);  // acked bytes survived
  return finish_trace(cluster);
}

// The integrity plane end to end: rate-driven write corruption, the
// scrubber's chunked sweep, and a verify-on-read read-back.
std::string corruption_fingerprint(u64 seed) {
  start_trace();
  ModelConfig cfg = faulty_fig6_config(seed);
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.replication.scrub = true;
  cfg.fault.bit_flip_rate = 0.25;
  cfg.fault.torn_write_rate = 0.05;
  Cluster cluster(cfg, 2, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/det-scrub", 64 * kKiB, 2, 0).value();
  const u64 n = 256 * kKiB;
  const u64 a = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(a + i, static_cast<u8>(seed * 131 + i));
  }
  EXPECT_TRUE(c.write(f, 0, a, n).ok());
  cluster.start_scrub(TimePoint::origin() + Duration::ms(100.0));
  const u64 dst = c.memory().alloc(n);
  IoHandle r;
  const TimePoint rat = TimePoint::origin() + Duration::ms(150.0);
  cluster.engine().schedule_at(rat, [&, rat] {
    core::ListIoRequest req;
    req.mem = {{dst, n}};
    req.file = {{0, n}};
    r = c.submit({IoDir::kRead, f, req, {}, rat});
  });
  cluster.run();
  EXPECT_TRUE(r.poll() && r.result().ok());
  return finish_trace(cluster);
}

// Live resharding end to end: a migration, then a split, then a stale
// client converging and reading back.
std::string migration_fingerprint(u64 seed) {
  start_trace();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = seed;
  cfg.fault.request_drop_rate = 0.02;
  cfg.fault.reply_drop_rate = 0.02;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.max_retries = 25;
  cfg.migration.round_bytes = 256;  // several stream rounds
  Cluster cluster(cfg,
                  Cluster::Topology{}.clients(2).iods(2).metadata_shards(2));
  Client& c = cluster.client(0);
  std::vector<OpenFile> files;
  for (int i = 0; i < 12; ++i) {
    files.push_back(c.create("/det-mig" + std::to_string(i)).value());
  }
  const u64 n = 8 * kKiB;
  const u64 a = c.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c.memory().write_pod<u8>(a + i, static_cast<u8>(seed + i));
  }
  EXPECT_TRUE(c.write(files[0], 0, a, n).ok());
  EXPECT_TRUE(
      cluster.migrate_shard(1, TimePoint::origin() + Duration::ms(1.0)));
  cluster.engine().schedule_at(
      TimePoint::origin() + Duration::ms(10.0), [&cluster] {
        EXPECT_TRUE(
            cluster.split_shards(TimePoint::origin() + Duration::ms(10.0)));
      });
  cluster.run();
  // A stale client converges after both reshards and reads back intact.
  Client& late = cluster.client(1);
  OpenFile g = late.open("/det-mig0").value();
  const u64 dst = late.memory().alloc(n);
  EXPECT_TRUE(late.read(g, 0, dst, n).ok());
  EXPECT_EQ(late.memory().read_pod<u8>(dst), static_cast<u8>(seed));
  return finish_trace(cluster);
}

// The client caching tier: write-back staging, flush on close, a wire
// read that populates, a hit, an attr hit and a revoking remove.
std::string cache_fingerprint(u64 seed) {
  start_trace();
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = seed;
  cfg.fault.request_drop_rate = 0.02;
  cfg.fault.reply_drop_rate = 0.02;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.max_retries = 25;
  cfg.cache.enabled = true;
  cfg.cache.write_back = true;
  cfg.cache.staleness_bound = Duration::ms(3.0);
  Cluster cluster(cfg, 2, 2);
  Client& c0 = cluster.client(0);
  Client& c1 = cluster.client(1);
  OpenFile f = c0.create("/det-cache").value();
  const u64 n = 64 * kKiB;
  const u64 a = c0.memory().alloc(n);
  for (u64 i = 0; i < n; ++i) {
    c0.memory().write_pod<u8>(a + i, static_cast<u8>(seed * 7 + i));
  }
  EXPECT_TRUE(c0.write(f, 0, a, n).ok());        // staged dirty
  EXPECT_TRUE(c0.close(f).ok());                 // flushed + dropped
  OpenFile g = c1.open("/det-cache").value();
  const u64 d = c1.memory().alloc(n);
  EXPECT_TRUE(c1.read(g, 0, d, n).ok());         // wire, populates
  EXPECT_TRUE(c1.read(g, 0, d, n).ok());         // hit
  EXPECT_TRUE(c1.open("/det-cache").is_ok());    // attr hit
  EXPECT_TRUE(c0.remove("/det-cache").is_ok());  // revokes both clients
  cluster.run();  // drain any armed flush timers
  return finish_trace(cluster);
}

u64 fnv1a64(const std::string& s) {
  u64 h = 1469598103934665603ull;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

// Hex form of the hash, so a failure prints the value to re-record.
std::string hex(u64 h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(DeterminismTest, FaultyFig6RunsAreBitIdenticalAcrossInvocations) {
  const std::string a = run_fingerprint(faulty_fig6_config(123));
  const std::string b = run_fingerprint(faulty_fig6_config(123));
  // The fault plane actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("fault.injected"), std::string::npos);
  EXPECT_NE(a.find("pvfs.retries"), std::string::npos);
  // ...and the two runs are indistinguishable, event by event.
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, ReplicatedFaultyRunsAreBitIdenticalAcrossInvocations) {
  // The full robustness stack at once: factor-2 replication (fan-out,
  // quorum settles, replay dedupe), adaptive timeouts, and a mid-run iod
  // crash — still a pure function of the seed.
  const std::string a = run_fingerprint(replicated_config(99));
  const std::string b = run_fingerprint(replicated_config(99));
  // Replication actually engaged (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.replica_writes"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run_fingerprint(replicated_config(100)));
}

TEST(DeterminismTest, ResyncRunsAreBitIdenticalAcrossInvocations) {
  // The background re-replication plane end to end — restart hook,
  // staleness scan, rate-limited pull rounds, and version-aware read
  // placement — is pure event-driven state and must fingerprint
  // identically run to run.
  const std::string a = resync_fingerprint();
  const std::string b = resync_fingerprint();
  // The resync plane actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.resync_stripes"), std::string::npos);
  EXPECT_NE(a.find("pvfs.resync_rounds"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, ManagerTakeoverRunsAreBitIdenticalAcrossInvocations) {
  // A manager crash mid-workload with standby takeover — epoch bump,
  // header-scan rebuild, client metadata failover, resync re-pointing —
  // must fingerprint identically run to run.
  const std::string a = run_fingerprint(takeover_config(77));
  const std::string b = run_fingerprint(takeover_config(77));
  // The takeover actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.manager_takeovers"), std::string::npos);
  EXPECT_NE(a.find("fault.injected.manager_crash"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run_fingerprint(takeover_config(78)));
}

TEST(DeterminismTest, ScrubbedCorruptionRunsAreBitIdenticalAcrossInvocations) {
  // The integrity plane end to end — checksum stamping, rate-driven write
  // corruption, verify-on-read failover, the scrubber's chunked sweep and
  // the resync heals it enqueues — is pure event-driven state and must
  // fingerprint identically run to run.
  const std::string a = corruption_fingerprint(1);
  const std::string b = corruption_fingerprint(1);
  // The corruption plane actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("fault.injected.bit_flip"), std::string::npos);
  EXPECT_NE(a.find("pvfs.scrub_chunks"), std::string::npos);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, corruption_fingerprint(32));
}

TEST(DeterminismTest, MigrationRunsAreBitIdenticalAcrossInvocations) {
  // Live resharding end to end — the rate-limited stream rounds, the
  // fenced cutover with its epoch sweep, redirect-driven client map
  // refreshes and the retired zombie source — is pure event-driven state
  // and must fingerprint identically run to run.
  const std::string a = migration_fingerprint(11);
  const std::string b = migration_fingerprint(11);
  // The reshard machinery actually fired (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.shard_migrations"), std::string::npos);
  EXPECT_NE(a.find("pvfs.shard_splits"), std::string::npos);
  EXPECT_NE(a.find("pvfs.migration_rounds"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, CachedRunsAreBitIdenticalAcrossInvocations) {
  // The client caching tier — attr/data hits, write-notice seq bumps,
  // write-back staging, the staleness_bound flush timer, lease revokes on
  // remove — is host-side state driven entirely by engine events and must
  // fingerprint identically run to run.
  const std::string a = cache_fingerprint(5);
  const std::string b = cache_fingerprint(5);
  // The tier actually engaged (the lock is not vacuous)...
  EXPECT_NE(a.find("pvfs.cache_hits"), std::string::npos);
  EXPECT_NE(a.find("pvfs.cache_lease_revokes"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, CacheDisabledRunsMatchUncachedBaseline) {
  // The discipline every optional plane obeys: disabled means *inert*.
  // A config carrying every cache knob but enabled=false must produce the
  // exact fig6 fingerprint of the defaults — no counters, no events, no
  // timing drift.
  ModelConfig off = faulty_fig6_config(123);
  off.cache.enabled = false;
  off.cache.data_capacity = 1 * kMiB;
  off.cache.write_back = true;
  off.cache.staleness_bound = Duration::ms(1.0);
  off.cache.attr_ttl = Duration::ms(1.0);
  const std::string a = run_fingerprint(off);
  const std::string b = run_fingerprint(faulty_fig6_config(123));
  EXPECT_EQ(a.find("pvfs.cache"), std::string::npos);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DifferentFaultSeedsDiverge) {
  EXPECT_NE(run_fingerprint(faulty_fig6_config(123)),
            run_fingerprint(faulty_fig6_config(321)));
}

TEST(DeterminismTest, ZeroFaultRunsAreBitIdenticalToo) {
  const std::string a = run_fingerprint(ModelConfig::paper_defaults());
  const std::string b = run_fingerprint(ModelConfig::paper_defaults());
  EXPECT_EQ(a.find("fault."), std::string::npos);
  EXPECT_EQ(a, b);
}

// --- Golden hashes ----------------------------------------------------------
// Each constant is the hash of the fingerprint as the code behaved when it
// was recorded. A mismatch means the simulation's behaviour changed: if the
// change is deliberate (a model fix), re-record the printed value and say
// why in the change description.

TEST(GoldenFingerprintTest, ZeroFaultFig6) {
  EXPECT_EQ(hex(fnv1a64(run_fingerprint(ModelConfig::paper_defaults()))),
            "0x949a9b53a3c8ea5c");
}

TEST(GoldenFingerprintTest, ZeroFaultReplicatedFig6) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.replication.factor = 2;
  EXPECT_EQ(hex(fnv1a64(run_fingerprint(cfg))), "0x2d6cd9e35daa429b");
}

TEST(GoldenFingerprintTest, FaultyFig6) {
  EXPECT_EQ(hex(fnv1a64(run_fingerprint(faulty_fig6_config(123)))),
            "0x2c1a7b8ebe077361");
}

TEST(GoldenFingerprintTest, ReplicatedAdaptiveFig6) {
  EXPECT_EQ(hex(fnv1a64(run_fingerprint(replicated_config(99)))),
            "0xd28d54082fcc6ffa");
}

TEST(GoldenFingerprintTest, ManagerTakeoverFig6) {
  EXPECT_EQ(hex(fnv1a64(run_fingerprint(takeover_config(77)))),
            "0x7ce980514afd6c58");
}

TEST(GoldenFingerprintTest, Resync) {
  EXPECT_EQ(hex(fnv1a64(resync_fingerprint())), "0x5e2794f4ec20d71b");
}

TEST(GoldenFingerprintTest, ScrubbedCorruption) {
  EXPECT_EQ(hex(fnv1a64(corruption_fingerprint(1))), "0xa91e3cd1b836dd37");
}

TEST(GoldenFingerprintTest, Migration) {
  EXPECT_EQ(hex(fnv1a64(migration_fingerprint(11))), "0xe8ccf5f1115953af");
}

TEST(GoldenFingerprintTest, ClientCache) {
  EXPECT_EQ(hex(fnv1a64(cache_fingerprint(5))), "0x7c9c0c691f17b5da");
}

}  // namespace
}  // namespace pvfsib::pvfs

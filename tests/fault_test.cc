// The fault plane and the recovery layer on top of it: injected request/
// reply drops, transport retransmits, completion errors, iod crash windows
// and degraded disks, against the client's per-round timeout + backoff +
// idempotent-replay machinery.
//
// The load-bearing properties:
//   1. a trivial FaultConfig leaves zero trace — no fault/recovery counters
//      appear at all (profile tables stay seed-identical),
//   2. every recoverable fault is retried to completion and the data is
//      byte-for-byte correct afterwards,
//   3. replayed write rounds whose reply was lost are recognised by
//      round_seq at the iod and acked without re-running the disk, and
//   4. a fault outliving the retry budget surfaces as a terminal non-ok
//      IoResult instead of hanging or silently succeeding.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "pvfs/cluster.h"

namespace pvfsib::pvfs {
namespace {

void fill(Client& c, u64 addr, u64 n, u64 seed) {
  std::byte* p = c.memory().data(addr);
  for (u64 i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((seed * 131 + i * 7) & 0xff);
  }
}

bool equal_mem(Client& c, u64 a, u64 b, u64 n) {
  return std::memcmp(c.memory().data(a), c.memory().data(b), n) == 0;
}

// A noncontiguous request large enough for several rounds per iod.
core::ListIoRequest strided_request(Client& c, u64 pieces, u64 piece_len) {
  core::ListIoRequest req;
  const u64 buf = c.memory().alloc(pieces * piece_len);
  for (u64 i = 0; i < pieces; ++i) {
    req.mem.push_back({buf + i * piece_len, piece_len});
    req.file.push_back({i * 4 * piece_len, piece_len});
  }
  return req;
}

// Fast-recovery policy so faulty tests finish in little virtual time.
ModelConfig faulty_config() {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.seed = 7;
  cfg.fault.round_timeout = Duration::ms(2.0);
  cfg.fault.backoff_base = Duration::us(100.0);
  cfg.fault.backoff_cap = Duration::ms(2.0);
  cfg.fault.max_retries = 25;
  return cfg;
}

// Write a strided pattern, read it back, and byte-compare. Returns the
// write result so callers can inspect retries/recovered().
IoResult round_trip(Cluster& cluster, u64 pieces = 128, u64 piece_len = 2048) {
  Client& c = cluster.client(0);
  OpenFile f = c.create("/rt").value();
  core::ListIoRequest req = strided_request(c, pieces, piece_len);
  fill(c, req.mem.front().addr, pieces * piece_len, 11);
  IoResult w = c.write_list(f, req);
  EXPECT_TRUE(w.ok()) << w.status.to_string();

  core::ListIoRequest back = req;
  const u64 dst = c.memory().alloc(pieces * piece_len);
  for (u64 i = 0; i < pieces; ++i) back.mem[i] = {dst + i * piece_len,
                                                  piece_len};
  IoResult r = c.read_list(f, back);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  for (u64 i = 0; i < pieces; ++i) {
    EXPECT_TRUE(equal_mem(c, req.mem[i].addr, back.mem[i].addr, piece_len))
        << "piece " << i << " corrupted";
  }
  return w;
}

// --- 1. zero-fault runs leave no trace ---------------------------------

TEST(FaultTest, TrivialConfigReportsNoFaultOrRecoveryCounters) {
  ASSERT_FALSE(ModelConfig::paper_defaults().fault.enabled());
  Cluster cluster(ModelConfig::paper_defaults(), 2, 2);
  round_trip(cluster);
  for (const auto& [name, value] : cluster.stats().counters()) {
    EXPECT_EQ(name.find("fault."), std::string::npos) << name << "=" << value;
    EXPECT_NE(name, stat::kPvfsRetries);
    EXPECT_NE(name, stat::kPvfsTimeouts);
    EXPECT_NE(name, stat::kPvfsReplaysDeduped);
    EXPECT_NE(name, stat::kPvfsMetaRetries);
    EXPECT_NE(name, stat::kPvfsPartialRestarts);
    EXPECT_NE(name, stat::kPvfsReplicaWrites);
    EXPECT_NE(name, stat::kPvfsQuorumWaits);
    EXPECT_NE(name, stat::kPvfsFailovers);
    EXPECT_NE(name, stat::kPvfsReadRepairs);
    EXPECT_NE(name, stat::kPvfsStaleReadsAvoided);
    EXPECT_NE(name, stat::kPvfsResyncStripes);
    EXPECT_NE(name, stat::kPvfsResyncRounds);
    EXPECT_NE(name, stat::kPvfsMetaFailovers);
    EXPECT_NE(name, stat::kPvfsEpochRejections);
    EXPECT_NE(name, stat::kPvfsManagerTakeovers);
    EXPECT_NE(name, stat::kPvfsShardRedirects);
    EXPECT_NE(name, stat::kPvfsShardMapRefreshes);
    EXPECT_NE(name, stat::kPvfsVersionRemints);
    EXPECT_NE(name, stat::kPvfsCorruptionsDetected);
    EXPECT_NE(name, stat::kPvfsCorruptReadsFailedOver);
    EXPECT_NE(name, stat::kPvfsCorruptionsRepaired);
    EXPECT_NE(name, stat::kPvfsScrubChunks);
    EXPECT_NE(name, stat::kPvfsScrubBytes);
    EXPECT_NE(name, stat::kPvfsScrubCorruptions);
    EXPECT_NE(name, stat::kPvfsScrubStaleHeaders);
  }
}

TEST(FaultTest, RecoveryKnobsAloneDoNotEnableTheFaultPlane) {
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.round_timeout = Duration::ms(1.0);
  cfg.fault.max_retries = 99;
  EXPECT_FALSE(cfg.fault.enabled());
}

// --- 2. recoverable faults are retried to completion -------------------

TEST(FaultTest, RequestDropsAreRetriedToCorrectCompletion) {
  ModelConfig cfg = faulty_config();
  cfg.fault.request_drop_rate = 0.15;
  Cluster cluster(cfg, 1, 4);
  // Enough pieces for several list rounds per iod, so the write phase is
  // statistically certain to lose at least one request.
  IoResult w = round_trip(cluster, /*pieces=*/2048, /*piece_len=*/2048);
  // With ~hundreds of rounds at 15% drop, recovery must have fired.
  EXPECT_GT(cluster.stats().get(stat::kFaultRequestDrop), 0);
  EXPECT_GT(cluster.stats().get(stat::kPvfsTimeouts), 0);
  EXPECT_GT(cluster.stats().get(stat::kPvfsRetries), 0);
  EXPECT_TRUE(w.recovered());
  EXPECT_GT(w.retries, 0u);
}

TEST(FaultTest, RetransmitsAndLatencySpikesOnlyAddLatency) {
  ModelConfig clean = ModelConfig::paper_defaults();
  Cluster base(clean, 1, 2);
  const IoResult w0 = round_trip(base);

  ModelConfig cfg = faulty_config();
  cfg.fault.retransmit_rate = 0.3;
  cfg.fault.latency_spike_rate = 0.3;
  cfg.fault.round_timeout = Duration::ms(250.0);  // spikes must not time out
  Cluster cluster(cfg, 1, 2);
  const IoResult w1 = round_trip(cluster);

  EXPECT_GT(cluster.stats().get(stat::kFaultRetransmit), 0);
  EXPECT_GT(cluster.stats().get(stat::kFaultLatencySpike), 0);
  // Transport-absorbed faults never fail a round, they just cost time.
  EXPECT_EQ(cluster.stats().get(stat::kPvfsRetries), 0);
  EXPECT_GT(w1.elapsed(), w0.elapsed());
}

TEST(FaultTest, CompletionErrorsAreRetried) {
  ModelConfig cfg = faulty_config();
  cfg.fault.completion_error_rate = 0.15;
  Cluster cluster(cfg, 1, 4);
  round_trip(cluster, /*pieces=*/2048, /*piece_len=*/2048);
  EXPECT_GT(cluster.stats().get(stat::kFaultCompletionError), 0);
  EXPECT_GT(cluster.stats().get(stat::kPvfsRetries), 0);
}

// --- 3. lost replies are replayed and deduped at the iod ----------------

TEST(FaultTest, LostWriteRepliesAreReplayedWithoutReapplying) {
  ModelConfig cfg = faulty_config();
  cfg.fault.reply_drop_rate = 0.2;
  Cluster cluster(cfg, 1, 4);
  round_trip(cluster, /*pieces=*/2048, /*piece_len=*/2048);
  EXPECT_GT(cluster.stats().get(stat::kFaultReplyDrop), 0);
  // Every dropped *write* reply forces a replay the iod must recognise.
  EXPECT_GT(cluster.stats().get(stat::kPvfsReplaysDeduped), 0);
}

// --- 4. iod crash windows ----------------------------------------------

TEST(FaultTest, CrashWithRestartIsRiddenOutByRetries) {
  ModelConfig cfg = faulty_config();
  // iod 0 is down for the first 8 ms of the run, then comes back.
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::origin(), 0,
                                          Duration::ms(8.0)});
  Cluster cluster(cfg, 1, 4);
  IoResult w = round_trip(cluster);
  EXPECT_EQ(cluster.stats().get(stat::kFaultIodCrash), 1);
  EXPECT_GT(cluster.stats().get(stat::kPvfsRetries), 0);
  EXPECT_TRUE(w.recovered());
}

TEST(FaultTest, CrashOutlivingTheRetryBudgetIsTerminal) {
  ModelConfig cfg = faulty_config();
  cfg.fault.max_retries = 2;
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::origin(), 0,
                                          Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 4);
  Client& c = cluster.client(0);
  // Pin the file to the dead iod so the failure is guaranteed.
  OpenFile f = c.create("/dead", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 64 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 3);
  IoResult w = c.write(f, 0, src, n);
  EXPECT_FALSE(w.ok());
  EXPECT_FALSE(w.recovered());
  EXPECT_EQ(w.status.code(), ErrorCode::kUnavailable)
      << w.status.to_string();
  EXPECT_NE(w.status.message().find("retries"), std::string::npos)
      << w.status.to_string();
}

// --- 5. degraded disk ---------------------------------------------------

TEST(FaultTest, DegradedDiskSlowsSyncWritesWithoutCorruption) {
  auto timed_sync_write = [](const ModelConfig& cfg) {
    Cluster cluster(cfg, 1, 2);
    Client& c = cluster.client(0);
    OpenFile f = c.create("/deg").value();
    const u64 n = 1 * kMiB;
    const u64 src = c.memory().alloc(n);
    fill(c, src, n, 5);
    IoResult w = c.write(f, 0, src, n, IoOptions{}.with_sync());
    EXPECT_TRUE(w.ok()) << w.status.to_string();
    return w.elapsed();
  };
  const Duration healthy = timed_sync_write(ModelConfig::paper_defaults());
  ModelConfig cfg = ModelConfig::paper_defaults();
  cfg.fault.disk_degrade.push_back({/*iod=*/0, /*factor=*/25.0,
                                    TimePoint::origin()});
  const Duration degraded = timed_sync_write(cfg);
  EXPECT_GT(degraded, healthy);
}

// --- 6. partial-round restart -------------------------------------------

TEST(FaultTest, ReplaysWithLandedPayloadSkipTheWirePhase) {
  ModelConfig cfg = faulty_config();
  cfg.fault.reply_drop_rate = 0.2;
  Cluster cluster(cfg, 1, 4);
  round_trip(cluster, /*pieces=*/2048, /*piece_len=*/2048);
  const Stats& s = cluster.stats();
  EXPECT_GT(s.get(stat::kFaultReplyDrop), 0);
  // A dropped *reply* means the payload already landed and was applied; the
  // replay goes out staged (no data phase) and the iod acks it via its
  // round_seq dedupe. With only reply drops every write replay is staged,
  // and every staged replay reaches the iod, so dedupes dominate restarts.
  EXPECT_GT(s.get(stat::kPvfsPartialRestarts), 0);
  EXPECT_LE(s.get(stat::kPvfsPartialRestarts),
            s.get(stat::kPvfsReplaysDeduped));
}

// --- 7. metadata retry ---------------------------------------------------

TEST(FaultTest, LostMetadataRequestsAreRetriedWithBackoff) {
  ModelConfig cfg = faulty_config();
  cfg.fault.meta_request_drop_rate = 0.4;
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  // Enough metadata round-trips that several are statistically lost; every
  // one must still come back with a real answer.
  for (int i = 0; i < 12; ++i) {
    const std::string name = "/m" + std::to_string(i);
    Result<OpenFile> f = c.create(name);
    ASSERT_TRUE(f.is_ok()) << f.status().to_string();
    ASSERT_TRUE(c.open(name).is_ok());
  }
  EXPECT_GT(cluster.stats().get(stat::kPvfsMetaRetries), 0);
}

TEST(FaultTest, MetadataOutageOutlivingRetriesIsTerminal) {
  ModelConfig cfg = faulty_config();
  cfg.fault.meta_request_drop_rate = 1.0;
  cfg.fault.max_retries = 3;
  Cluster cluster(cfg, 1, 2);
  Result<OpenFile> f = cluster.client(0).create("/never");
  EXPECT_FALSE(f.is_ok());
  EXPECT_EQ(f.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(cluster.stats().get(stat::kPvfsMetaRetries), 3);
}

// --- 8. adaptive round timeouts ------------------------------------------

TEST(FaultTest, AdaptiveTimeoutDetectsDropsFasterThanStatic) {
  // Same workload, same faults, same pessimistic static timeout; the only
  // difference is whether the client may tighten it from observed RTTs.
  auto elapsed_with = [](bool adaptive) {
    ModelConfig cfg = ModelConfig::paper_defaults();
    cfg.fault.seed = 9;
    cfg.fault.request_drop_rate = 0.15;
    cfg.fault.round_timeout = Duration::ms(40.0);
    cfg.fault.backoff_base = Duration::us(100.0);
    cfg.fault.backoff_cap = Duration::ms(1.0);
    cfg.fault.max_retries = 50;
    cfg.fault.adaptive_timeout = adaptive;
    Cluster cluster(cfg, 1, 4);
    IoResult w = round_trip(cluster, /*pieces=*/2048, /*piece_len=*/2048);
    EXPECT_TRUE(w.ok()) << w.status.to_string();
    EXPECT_GT(cluster.stats().get(stat::kPvfsTimeouts), 0);
    return w.elapsed();
  };
  const Duration learned = elapsed_with(true);
  const Duration fixed = elapsed_with(false);
  // Every drop costs a full 40 ms under the static policy but only
  // ~srtt + 4*rttvar once the estimator has samples.
  EXPECT_LT(learned, fixed);
}

// --- 9. stripe replication -----------------------------------------------

TEST(ReplicationTest, WriteRidesOutCrashViaReplayAndQuorum) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;  // write_quorum 0: every replica must ack
  // One iod is down for the first 8 ms, well inside the retry budget;
  // write rounds whose primary or backup lives there replay until it
  // restarts, then the round settles on the full quorum.
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::origin(), 0,
                                          Duration::ms(8.0)});
  Cluster cluster(cfg, 1, 4);
  IoResult w = round_trip(cluster);
  EXPECT_TRUE(w.ok()) << w.status.to_string();
  EXPECT_TRUE(w.recovered());
  EXPECT_GT(cluster.stats().get(stat::kPvfsReplicaWrites), 0);
  EXPECT_GT(cluster.stats().get(stat::kPvfsRetries), 0);
}

TEST(ReplicationTest, QuorumOneSettlesOnTheSurvivingReplica) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  // Single-stripe file pinned to primary iod 0, backup iod 1; the backup
  // is dead for the whole run.
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kIodCrash,
                                          TimePoint::origin(), 1,
                                          Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 4);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/q1", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 17);
  IoResult w = c.write(f, 0, src, n);
  // The primary's ack alone reaches the quorum: no timeout fires, no
  // retries, the dead backup costs nothing but the fan-out send.
  EXPECT_TRUE(w.ok()) << w.status.to_string();
  EXPECT_EQ(w.retries, 0u);
  EXPECT_GT(cluster.stats().get(stat::kPvfsReplicaWrites), 0);
  const u64 dst = c.memory().alloc(n);
  ASSERT_TRUE(c.read(f, 0, dst, n).ok());
  EXPECT_TRUE(equal_mem(c, src, dst, n));
}

TEST(ReplicationTest, ReadFailsOverToBackupWhenPrimaryCrashes) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  // Primary iod 0 is healthy while the write lands on both replicas, then
  // crashes for longer than any retry budget.
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(50.0), 0,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 4);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/fo", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 21);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());

  // Issue the read inside the crash window, from an engine event (the
  // fabric computes wire occupancy in call order, so sends must be issued
  // in nondecreasing virtual time).
  const u64 dst = c.memory().alloc(n);
  core::ListIoRequest rreq;
  rreq.mem = {{dst, n}};
  rreq.file = {{0, n}};
  const TimePoint at = TimePoint::origin() + Duration::ms(60.0);
  IoHandle h;
  cluster.engine().schedule_at(at, [&] {
    IoDesc d;
    d.dir = IoDir::kRead;
    d.file = f;
    d.req = rreq;
    d.start = at;
    h = c.submit(d);
  });
  cluster.run();
  ASSERT_TRUE(h.poll());
  const IoResult r = h.result();
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.recovered());
  EXPECT_GE(cluster.stats().get(stat::kPvfsFailovers), 1);
  EXPECT_TRUE(equal_mem(c, src, dst, n));
}

// --- 10. version plane: staleness, read-repair, resync --------------------

// Chain {iod0, iod1} on a width-1 file: preload pattern A while healthy
// (both replicas current at v1), then write pattern B while iod0 is down
// over [10 ms, 40 ms) — quorum 1 settles it on iod1's ack alone, leaving
// iod0 recorded stale at v1 with latest v2.
struct StalePrimary {
  static constexpr u64 kN = 32 * kKiB;
  std::unique_ptr<Cluster> cluster;
  OpenFile f;
  u64 a = 0, b = 0;  // pattern buffers: the old and the acked-latest data
};

StalePrimary stale_primary_setup(ModelConfig cfg) {
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(10.0), /*target=*/0,
                 Duration::ms(30.0)});
  StalePrimary s;
  s.cluster = std::make_unique<Cluster>(cfg, 1, 2);
  Client& c = s.cluster->client(0);
  s.f = c.create("/stale", 64 * kKiB, 1, /*base_iod=*/0).value();
  s.a = c.memory().alloc(StalePrimary::kN);
  s.b = c.memory().alloc(StalePrimary::kN);
  fill(c, s.a, StalePrimary::kN, 3);
  fill(c, s.b, StalePrimary::kN, 9);
  EXPECT_TRUE(c.write(s.f, 0, s.a, StalePrimary::kN).ok());
  IoHandle w;
  const TimePoint at = TimePoint::origin() + Duration::ms(15.0);
  s.cluster->engine().schedule_at(at, [&s, &c, &w, at] {
    core::ListIoRequest req;
    req.mem = {{s.b, StalePrimary::kN}};
    req.file = {{0, StalePrimary::kN}};
    w = c.submit({IoDir::kWrite, s.f, req, {}, at});
  });
  s.cluster->engine().run_until([&w] { return w.valid() && w.poll(); });
  EXPECT_TRUE(w.poll() && w.result().ok());
  return s;
}

// Read the whole file at `at` into a fresh buffer; returns {result, buf}.
std::pair<IoResult, u64> read_at(Cluster& cluster, const OpenFile& f,
                                 Duration at_offset, u64 n) {
  Client& c = cluster.client(0);
  const u64 dst = c.memory().alloc(n);
  const TimePoint at = TimePoint::origin() + at_offset;
  IoHandle h;
  cluster.engine().schedule_at(at, [&, at] {
    core::ListIoRequest req;
    req.mem = {{dst, n}};
    req.file = {{0, n}};
    h = c.submit({IoDir::kRead, f, req, {}, at});
  });
  cluster.engine().run_until([&h] { return h.valid() && h.poll(); });
  EXPECT_TRUE(h.poll());
  return {h.result(), dst};
}

TEST(VersionPlaneTest, PlacementAvoidsStaleReplicaWithoutFailover) {
  StalePrimary s = stale_primary_setup(faulty_config());
  Client& c = s.cluster->client(0);
  // iod0 is back up (and would happily serve v1); the staleness map routes
  // the read to the current backup with no failed round and no failover.
  auto [r, dst] = read_at(*s.cluster, s.f, Duration::ms(200.0),
                          StalePrimary::kN);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_TRUE(equal_mem(c, s.b, dst, StalePrimary::kN));
  EXPECT_EQ(s.cluster->stats().get(stat::kPvfsStaleReadsAvoided), 1);
}

TEST(VersionPlaneTest, ReadRepairHealsStaleReplicaContent) {
  StalePrimary s = stale_primary_setup(faulty_config());
  Client& c = s.cluster->client(0);
  const Handle h = s.f.meta.handle;
  // Before the read: iod0 still holds pattern A at header v1.
  EXPECT_EQ(s.cluster->iod(0).stripe_version(h), 1u);
  auto [r, dst] = read_at(*s.cluster, s.f, Duration::ms(200.0),
                          StalePrimary::kN);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  s.cluster->run();  // drain the async repair write
  EXPECT_GE(s.cluster->stats().get(stat::kPvfsReadRepairs), 1);
  // The repair scattered the just-read bytes into iod0's local file and
  // merged the header.
  EXPECT_EQ(s.cluster->iod(0).stripe_version(h), 2u);
  const std::vector<std::byte> healed =
      s.cluster->iod(0).file(h).contents();
  ASSERT_GE(healed.size(), StalePrimary::kN);
  EXPECT_EQ(std::memcmp(healed.data(), c.memory().data(s.b),
                        StalePrimary::kN),
            0);
  // Deliberately conservative: the manager still records iod0 stale (a
  // repair covers one round's range, not everything its version covers);
  // only write acks and resync mark a replica current.
  Manager::StripeVersionView v =
      s.cluster->manager().stripe_versions(h, 0);
  ASSERT_TRUE(v.known);
  EXPECT_EQ(v.replica_versions[0], 1u);
  EXPECT_EQ(v.latest, 2u);
}

TEST(VersionPlaneTest, AllReplicasFailedIsTerminalAndDistinct) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.fault.max_retries = 2;
  // Both members of the chain die at 50 ms and never come back.
  for (u32 iod : {0u, 1u}) {
    cfg.fault.schedule.push_back(
        FaultEvent{FaultKind::kIodCrash,
                   TimePoint::origin() + Duration::ms(50.0), iod,
                   Duration::sec(1000.0)});
  }
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/all", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 src = c.memory().alloc(n);
  fill(c, src, n, 13);
  ASSERT_TRUE(c.write(f, 0, src, n).ok());
  auto [r, dst] = read_at(cluster, f, Duration::ms(60.0), n);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), ErrorCode::kAllReplicasFailed)
      << r.status.to_string();
  // One failover (to the second and last replica), both budgets burned.
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_GE(r.retries, 2u * cfg.fault.max_retries);
}

TEST(VersionPlaneTest, ReadBiasRoutesAroundDegradedReplica) {
  auto cold_read_elapsed = [](bool bias) {
    ModelConfig cfg = ModelConfig::paper_defaults();
    cfg.replication.factor = 2;
    cfg.replication.read_bias = bias;
    cfg.fault.adaptive_timeout = true;
    // Static timeout high enough that the degraded primary's slow write
    // ack arrives unretried and seeds an honestly large srtt.
    cfg.fault.round_timeout = Duration::ms(500.0);
    cfg.fault.disk_degrade.push_back(
        {/*iod=*/0, /*factor=*/50.0, TimePoint::origin()});
    Cluster cluster(cfg, 1, 2);
    Client& c = cluster.client(0);
    OpenFile f = c.create("/bias", 64 * kKiB, 1, /*base_iod=*/0).value();
    const u64 n = 64 * kKiB;
    const u64 src = c.memory().alloc(n);
    fill(c, src, n, 29);
    EXPECT_TRUE(c.write(f, 0, src, n, IoOptions{}.with_sync()).ok());
    // Cold caches: the read's disk phase hits media, where the primary is
    // 50x slower than the current backup.
    cluster.drop_all_caches();
    const u64 dst = c.memory().alloc(n);
    IoResult r = c.read(f, 0, dst, n);
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    EXPECT_TRUE(equal_mem(c, src, dst, n));
    return r.elapsed();
  };
  const Duration primary_bound = cold_read_elapsed(false);
  const Duration biased = cold_read_elapsed(true);
  EXPECT_LT(biased, primary_bound);
}

// The tentpole end-to-end: factor 2 survives two *sequential* failures
// with background re-replication, and provably loses acked data without
// it. Timeline: preload A healthy; iod0 down [20 ms, 50 ms); B written at
// 25 ms (settles on iod1 alone); iod1 dies for good at 100 ms; read at
// 500 ms can only be served by iod0.
TEST(VersionPlaneTest, SequentialCrashesSurviveOnlyWithResync) {
  auto run_seq = [](bool resync) {
    ModelConfig cfg = faulty_config();
    cfg.replication.factor = 2;
    cfg.replication.write_quorum = 1;
    cfg.replication.resync = resync;
    cfg.fault.schedule.push_back(
        FaultEvent{FaultKind::kIodCrash,
                   TimePoint::origin() + Duration::ms(20.0), /*target=*/0,
                   Duration::ms(30.0)});
    cfg.fault.schedule.push_back(
        FaultEvent{FaultKind::kIodCrash,
                   TimePoint::origin() + Duration::ms(100.0), /*target=*/1,
                   Duration::sec(1000.0)});
    auto cluster = std::make_unique<Cluster>(cfg, 1, 2);
    Client& c = cluster->client(0);
    OpenFile f = c.create("/seq", 64 * kKiB, 1, /*base_iod=*/0).value();
    const u64 n = 32 * kKiB;
    const u64 a = c.memory().alloc(n);
    const u64 b = c.memory().alloc(n);
    fill(c, a, n, 3);
    fill(c, b, n, 9);
    EXPECT_TRUE(c.write(f, 0, a, n).ok());
    IoHandle w;
    const TimePoint at = TimePoint::origin() + Duration::ms(25.0);
    cluster->engine().schedule_at(at, [&, at] {
      core::ListIoRequest req;
      req.mem = {{b, n}};
      req.file = {{0, n}};
      w = c.submit({IoDir::kWrite, f, req, {}, at});
    });
    cluster->engine().run_until([&w] { return w.valid() && w.poll(); });
    EXPECT_TRUE(w.poll() && w.result().ok());  // B was acked
    auto [r, dst] = read_at(*cluster, f, Duration::ms(500.0), n);
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    struct Out {
      bool fresh, stale;
      i64 resync_stripes, resync_rounds;
    } out{equal_mem(c, b, dst, n), equal_mem(c, a, dst, n),
          cluster->stats().get(stat::kPvfsResyncStripes),
          cluster->stats().get(stat::kPvfsResyncRounds)};
    return out;
  };
  const auto with = run_seq(true);
  EXPECT_TRUE(with.fresh);  // no acked write lost
  EXPECT_EQ(with.resync_stripes, 1);
  EXPECT_GE(with.resync_rounds, 1);
  const auto without = run_seq(false);
  // The read "succeeds" — from the stale survivor: acked data is gone.
  EXPECT_FALSE(without.fresh);
  EXPECT_TRUE(without.stale);
  EXPECT_EQ(without.resync_stripes, 0);
}

// --- 11. recovery under pipelining ---------------------------------------

TEST(FaultTest, PipelinedChainsRecoverOutOfOrderSettles) {
  // Wide window + drops: rounds settle out of order, the slot-reuse floor
  // must still keep every staging slot single-occupancy, and the data must
  // come back intact.
  ModelConfig cfg = faulty_config();
  cfg.pipeline_depth = 4;
  cfg.fault.request_drop_rate = 0.1;
  cfg.fault.reply_drop_rate = 0.1;
  Cluster cluster(cfg, 1, 2);
  IoResult w = round_trip(cluster, /*pieces=*/256, /*piece_len=*/2048);
  EXPECT_TRUE(w.recovered());
}

// --- 12. manager crash windows + standby takeover -------------------------

TEST(ManagerCrashTest, OutageWithoutStandbyIsRiddenOutByMetaRetries) {
  ModelConfig cfg = faulty_config();
  // The manager is down for the first 4 ms; a 2 ms round timeout and sub-ms
  // backoff ride it out well inside the retry budget.
  cfg.fault.schedule.push_back(FaultEvent{FaultKind::kManagerCrash,
                                          TimePoint::origin(), 0,
                                          Duration::ms(4.0)});
  Cluster cluster(cfg, 1, 2);
  Result<OpenFile> f = cluster.client(0).create("/solo");
  ASSERT_TRUE(f.is_ok()) << f.status().to_string();
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kFaultManagerCrash), 1);
  EXPECT_GT(s.get(stat::kFaultManagerDownDrop), 0);
  EXPECT_GT(s.get(stat::kPvfsMetaRetries), 0);
  // One manager: nothing to fail over to, nothing took over.
  EXPECT_EQ(s.get(stat::kPvfsMetaFailovers), 0);
  EXPECT_EQ(s.get(stat::kPvfsManagerTakeovers), 0);
}

TEST(ManagerCrashTest, StandbyTakeoverFailsOverClientsAndFencesTheZombie) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.fault.standby_takeover = true;
  cfg.fault.manager_takeover_delay = Duration::ms(2.0);
  // The primary dies at 10 ms and never comes back; the standby promotes
  // itself at 12 ms.
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kManagerCrash,
                 TimePoint::origin() + Duration::ms(10.0), 0,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg, 2, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/mgr", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  const u64 b = c.memory().alloc(n);
  fill(c, a, n, 3);
  fill(c, b, n, 9);
  ASSERT_TRUE(c.write(f, 0, a, n).ok());  // epoch-1 mints, pre-crash

  // Overwrite at 50 ms, well after the takeover. The client still believes
  // the demoted primary is the version authority; the epoch fence catches
  // that (pvfs.epoch_rejections) and re-targets the mint at the standby —
  // no metadata round-trip, no timeout.
  IoHandle w;
  const TimePoint at = TimePoint::origin() + Duration::ms(50.0);
  cluster.engine().schedule_at(at, [&, at] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, at});
  });
  cluster.engine().run_until([&w] { return w.valid() && w.poll(); });
  ASSERT_TRUE(w.poll());
  EXPECT_TRUE(w.result().ok()) << w.result().status.to_string();

  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kFaultManagerCrash), 1);
  EXPECT_EQ(s.get(stat::kPvfsManagerTakeovers), 1);
  EXPECT_GE(s.get(stat::kPvfsEpochRejections), 1);
  EXPECT_TRUE(cluster.standby()->active());
  EXPECT_EQ(cluster.manager_epoch().value, 2u);
  EXPECT_EQ(&cluster.active_manager(), cluster.standby());

  // Client 0 learned the new authority through the version plane — its
  // metadata target moved with it, no timeout needed. Client 1 has not: its
  // first request still goes to the dead primary, times out, and fails over
  // to the (active) standby — which serves the adopted namespace.
  Result<OpenFile> o = cluster.client(1).open("/mgr");
  ASSERT_TRUE(o.is_ok()) << o.status().to_string();
  EXPECT_EQ(o.value().meta.handle, f.meta.handle);
  EXPECT_GE(s.get(stat::kPvfsMetaFailovers), 1);
  EXPECT_GT(s.get(stat::kFaultManagerDownDrop), 0);

  // The overwrite minted under epoch 2 marked both replicas current; the
  // read returns the acked bytes.
  auto [r, dst] = read_at(cluster, f, Duration::ms(200.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(equal_mem(c, b, dst, n));
}

TEST(ManagerCrashTest, TakeoverRebuildHealsViaResyncAfterLostNotes) {
  // The conservative rebuild end to end: quorum-1 write settles on the
  // backup while the primary copy is down, then the manager (with that
  // staleness knowledge) crashes. The standby's header scan re-discovers
  // the gap — the backup header is ahead of the primary's — marks the
  // primary copy stale, and the takeover's resync sweep heals it; a later
  // read served by the healed primary sees the acked bytes.
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.replication.write_quorum = 1;
  cfg.replication.resync = true;
  cfg.fault.standby_takeover = true;
  cfg.fault.manager_takeover_delay = Duration::ms(2.0);
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(10.0), /*target=*/0,
                 Duration::ms(30.0)});
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kManagerCrash,
                 TimePoint::origin() + Duration::ms(60.0), 0,
                 Duration::sec(1000.0)});
  // After resync heals iod0, iod1 (the only current copy before the heal)
  // dies for good; the read can only be served by iod0.
  cfg.fault.schedule.push_back(
      FaultEvent{FaultKind::kIodCrash,
                 TimePoint::origin() + Duration::ms(300.0), /*target=*/1,
                 Duration::sec(1000.0)});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f = c.create("/heal", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 n = 32 * kKiB;
  const u64 a = c.memory().alloc(n);
  const u64 b = c.memory().alloc(n);
  fill(c, a, n, 3);
  fill(c, b, n, 9);
  ASSERT_TRUE(c.write(f, 0, a, n).ok());
  IoHandle w;
  const TimePoint at = TimePoint::origin() + Duration::ms(15.0);
  cluster.engine().schedule_at(at, [&, at] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, at});
  });
  cluster.engine().run_until([&w] { return w.valid() && w.poll(); });
  ASSERT_TRUE(w.poll() && w.result().ok());  // B acked on iod1 alone

  auto [r, dst] = read_at(cluster, f, Duration::ms(500.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(equal_mem(c, b, dst, n));  // no acked write lost
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kPvfsManagerTakeovers), 1);
  EXPECT_GE(s.get(stat::kPvfsResyncStripes), 1);
}

// --- 13. silent corruption: checksums, verify-on-read, scrubber -----------

// Write pattern A to a width-1 factor-2 file pinned to iod `base`, healthy
// (both replicas current at v1). Returns the pattern buffer.
u64 preload(Cluster& cluster, OpenFile* f, u64 n) {
  Client& c = cluster.client(0);
  *f = c.create("/corr", 64 * kKiB, 1, /*base_iod=*/0).value();
  const u64 a = c.memory().alloc(n);
  fill(c, a, n, 41);
  EXPECT_TRUE(c.write(*f, 0, a, n).ok());
  return a;
}

TEST(CorruptionTest, ScheduledBitFlipIsDetectedAndFailedOver) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  // One bit of iod0's data at rest flips at 10 ms, after the write landed.
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kBitFlip, TimePoint::origin() + Duration::ms(10.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  const u64 a = preload(cluster, &f, n);
  // The read starts at the primary (the map records everyone current),
  // trips the block checksum, and fails over to the intact backup.
  auto [r, dst] = read_at(cluster, f, Duration::ms(20.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(equal_mem(c, a, dst, n));
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kFaultBitFlip), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptionsDetected), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptReadsFailedOver), 1);
  EXPECT_EQ(r.failovers, 1u);
  // The map now records iod0's copy as holding nothing; later reads are
  // placed straight on the backup without burning another failover.
  auto [r2, dst2] = read_at(cluster, f, Duration::ms(40.0), n);
  ASSERT_TRUE(r2.ok()) << r2.status.to_string();
  EXPECT_EQ(r2.failovers, 0u);
  EXPECT_TRUE(equal_mem(c, a, dst2, n));
}

TEST(CorruptionTest, BitFlipAfterCleanReadIsStillDetected) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kBitFlip, TimePoint::origin() + Duration::ms(20.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  const u64 a = preload(cluster, &f, n);
  // A clean read before the flip verifies every block of iod0's copy.
  auto [r1, dst1] = read_at(cluster, f, Duration::ms(10.0), n);
  ASSERT_TRUE(r1.ok()) << r1.status.to_string();
  EXPECT_EQ(r1.failovers, 0u);
  EXPECT_TRUE(equal_mem(c, a, dst1, n));
  EXPECT_EQ(cluster.stats().get(stat::kPvfsCorruptionsDetected), 0);
  // Having verified once must not exempt a block from the next check: the
  // flip at rest changes its bytes, so the next read trips the checksum.
  auto [r2, dst2] = read_at(cluster, f, Duration::ms(30.0), n);
  ASSERT_TRUE(r2.ok()) << r2.status.to_string();
  EXPECT_EQ(r2.failovers, 1u);
  EXPECT_TRUE(equal_mem(c, a, dst2, n));
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kFaultBitFlip), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptionsDetected), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptReadsFailedOver), 1);
}

TEST(CorruptionTest, BitFlipAfterOverwriteChecksLatestContent) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kBitFlip, TimePoint::origin() + Duration::ms(20.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  preload(cluster, &f, n);
  const u64 b = c.memory().alloc(n);
  fill(c, b, n, 53);
  IoHandle w;
  const TimePoint at = TimePoint::origin() + Duration::ms(10.0);
  cluster.engine().schedule_at(at, [&, at] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, at});
  });
  cluster.engine().run_until([&w] { return w.valid() && w.poll(); });
  ASSERT_TRUE(w.poll() && w.result().ok());
  // The stamps the flip is checked against are those of the overwrite: the
  // garbled primary fails over and the intact backup serves B, not A.
  auto [r, dst] = read_at(cluster, f, Duration::ms(30.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_TRUE(equal_mem(c, b, dst, n));
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kFaultBitFlip), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptionsDetected), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptReadsFailedOver), 1);
}

TEST(CorruptionTest, TornWriteIsDetectedOnReadBack) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  // iod0's copy of the first write round is torn: a prefix lands, the
  // suffix is garbled, and the iod acks as if nothing happened.
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kTornWrite, TimePoint::origin(), 0, Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  const u64 a = preload(cluster, &f, n);
  EXPECT_EQ(cluster.stats().get(stat::kFaultTornWrite), 1);
  auto [r, dst] = read_at(cluster, f, Duration::ms(20.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  // The stamped checksums cover the *intended* bytes, so the garbled
  // suffix cannot pass verification; the backup serves the acked data.
  EXPECT_TRUE(equal_mem(c, a, dst, n));
  EXPECT_GE(cluster.stats().get(stat::kPvfsCorruptionsDetected), 1);
  EXPECT_GE(cluster.stats().get(stat::kPvfsCorruptReadsFailedOver), 1);
}

TEST(CorruptionTest, LostWriteIsDetectedViaVersionCrossCheck) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  // iod0 acks the 15 ms overwrite without applying it (header stays v1);
  // the staleness map — fed by the ack — records it current at v2.
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kLostWrite, TimePoint::origin() + Duration::ms(10.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  preload(cluster, &f, n);
  const u64 b = c.memory().alloc(n);
  fill(c, b, n, 43);
  IoHandle w;
  const TimePoint at = TimePoint::origin() + Duration::ms(15.0);
  cluster.engine().schedule_at(at, [&, at] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, at});
  });
  cluster.engine().run_until([&w] { return w.valid() && w.poll(); });
  ASSERT_TRUE(w.poll() && w.result().ok());  // the faithful lie: B is acked
  EXPECT_EQ(cluster.stats().get(stat::kFaultLostWrite), 1);
  EXPECT_EQ(cluster.iod(0).stripe_version(f.meta.handle), 1u);
  // The read is placed on iod0 (the map believes its ack). Its checksums
  // verify — the old bytes are internally consistent — but the served
  // header version contradicts the recorded ack, which is exactly what a
  // lost write looks like: fail over and serve the acked bytes.
  auto [r, dst] = read_at(cluster, f, Duration::ms(100.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(equal_mem(c, b, dst, n));
  const Stats& s = cluster.stats();
  EXPECT_GE(s.get(stat::kPvfsCorruptionsDetected), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptReadsFailedOver), 1);
}

TEST(CorruptionTest, ScrubberFindsAndRepairsAtRestCorruption) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.replication.scrub = true;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kBitFlip, TimePoint::origin() + Duration::ms(10.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  const u64 a = preload(cluster, &f, n);
  // No reads ever touch the file: only the scrubber can find the rot.
  cluster.start_scrub(TimePoint::origin() + Duration::ms(300.0));
  cluster.run();
  const Stats& s = cluster.stats();
  EXPECT_GE(s.get(stat::kPvfsScrubChunks), 1);
  EXPECT_GE(s.get(stat::kPvfsScrubCorruptions), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptionsDetected), 1);
  // The scrub finding became a resync pull from the intact backup, which
  // is the one event allowed to clear the corrupt flag.
  EXPECT_GE(s.get(stat::kPvfsResyncStripes), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptionsRepaired), 1);
  const std::vector<std::byte> healed =
      cluster.iod(0).file(f.meta.handle).contents();
  ASSERT_GE(healed.size(), n);
  EXPECT_EQ(std::memcmp(healed.data(), c.memory().data(a), n), 0);
  // Healed means readable from the primary again: placement trusts it.
  auto [r, dst] = read_at(cluster, f, Duration::ms(400.0), n);
  ASSERT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_TRUE(equal_mem(c, a, dst, n));
}

TEST(CorruptionTest, ScrubberDetectsLostWriteViaHeaderCrossCheck) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.replication.scrub = true;
  cfg.fault.schedule.push_back(FaultEvent{
      FaultKind::kLostWrite, TimePoint::origin() + Duration::ms(10.0), 0,
      Duration::zero()});
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  preload(cluster, &f, n);
  const u64 b = c.memory().alloc(n);
  fill(c, b, n, 47);
  IoHandle w;
  const TimePoint at = TimePoint::origin() + Duration::ms(15.0);
  cluster.engine().schedule_at(at, [&, at] {
    core::ListIoRequest req;
    req.mem = {{b, n}};
    req.file = {{0, n}};
    w = c.submit({IoDir::kWrite, f, req, {}, at});
  });
  cluster.engine().run_until([&w] { return w.valid() && w.poll(); });
  ASSERT_TRUE(w.poll() && w.result().ok());
  cluster.start_scrub(TimePoint::origin() + Duration::ms(300.0));
  cluster.run();
  const Stats& s = cluster.stats();
  // The sweep compared iod0's v1 header against its recorded v2 ack,
  // downgraded the map, and resync pulled the acked bytes across.
  EXPECT_GE(s.get(stat::kPvfsScrubStaleHeaders), 1);
  EXPECT_GE(s.get(stat::kPvfsResyncStripes), 1);
  EXPECT_EQ(cluster.iod(0).stripe_version(f.meta.handle), 2u);
  const std::vector<std::byte> healed =
      cluster.iod(0).file(f.meta.handle).contents();
  ASSERT_GE(healed.size(), n);
  EXPECT_EQ(std::memcmp(healed.data(), c.memory().data(b), n), 0);
}

TEST(CorruptionTest, ScrubberNeverResurrectsRemovedHandles) {
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.replication.resync = true;
  cfg.replication.scrub = true;
  Cluster cluster(cfg, 1, 2);
  Client& c = cluster.client(0);
  OpenFile f;
  const u64 n = 32 * kKiB;
  preload(cluster, &f, n);
  const Handle h = f.meta.handle;
  ASSERT_TRUE(cluster.manager().stripe_versions(h, 0).known);
  ASSERT_TRUE(c.remove("/corr").is_ok());
  EXPECT_FALSE(cluster.manager().stripe_versions(h, 0).known);
  // Sweep the (now empty) iods for a while: nothing may re-materialize the
  // removed file's stripe state or enqueue resync work for it.
  cluster.start_scrub(TimePoint::origin() + Duration::ms(300.0));
  cluster.run();
  EXPECT_FALSE(cluster.manager().stripe_versions(h, 0).known);
  const Stats& s = cluster.stats();
  EXPECT_EQ(s.get(stat::kPvfsScrubCorruptions), 0);
  EXPECT_EQ(s.get(stat::kPvfsScrubStaleHeaders), 0);
  EXPECT_EQ(s.get(stat::kPvfsResyncStripes), 0);
}

TEST(CorruptionTest, RateDrivenFlipsUnderLoadAllRecover) {
  // A steady corruption rate on the write path: every flipped round read
  // back is detected and failed over, and the data always comes back
  // byte-exact (round_trip asserts it). Flips that land on the copy a
  // read never touches stay invisible here — that blind spot is exactly
  // the scrubber's job — so detections only bound from below.
  ModelConfig cfg = faulty_config();
  cfg.replication.factor = 2;
  cfg.fault.bit_flip_rate = 0.1;
  Cluster cluster(cfg, 1, 4);
  round_trip(cluster, /*pieces=*/1024, /*piece_len=*/2048);
  const Stats& s = cluster.stats();
  EXPECT_GT(s.get(stat::kFaultBitFlip), 0);
  EXPECT_GE(s.get(stat::kPvfsCorruptionsDetected), 1);
  EXPECT_GE(s.get(stat::kPvfsCorruptReadsFailedOver), 1);
}

}  // namespace
}  // namespace pvfsib::pvfs

// Every calibration constant of the simulation in one place.
//
// The defaults come from the paper's own measurements on its testbed
// (Section 4.2, 4.3, 6.1, 6.2: Mellanox InfiniHost HCA numbers, the
// registration cost model T = a*p + b, the kernel hole-query syscall,
// Table 2 network performance and Table 3 ext3 performance). Parameters the
// paper does not publish (syscall overheads, seek costs, cache geometry) are
// set to plausible 2003-era Linux/ATA values and are varied in the
// sensitivity tests.
#pragma once

#include <algorithm>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"

namespace pvfsib {

// --- InfiniBand fabric (Table 2) -------------------------------------------
struct NetParams {
  // One-way small-message latencies.
  Duration rdma_write_latency = Duration::us(6.0);
  Duration rdma_read_latency = Duration::us(12.4);
  Duration send_latency = Duration::us(6.8);  // channel semantics (MVAPICH)

  // Peak data bandwidths in MiB/s.
  double rdma_write_bw = 827.0;
  double rdma_read_bw = 816.0;
  double send_bw = 822.0;

  // Max gather/scatter entries per work request (InfiniBand spec value the
  // paper quotes). Longer lists are chunked into multiple WRs.
  u32 max_sge = 64;

  // Cost of posting one work request (descriptor build + doorbell). A
  // stream of WRs pipelines on the wire but each still pays this.
  Duration per_wr_overhead = Duration::us(0.8);

  // Extra per-WR cost charged for each SGE beyond the first: building and
  // DMA-fetching the descriptor list is not free on the HCA.
  Duration per_sge_overhead = Duration::us(0.06);

  // Penalty charged once per WR if any of its buffers is not 8-byte aligned
  // ("networks which use RDMA ... can generate large delays to compensate
  // for misaligned buffers").
  Duration misalign_penalty = Duration::us(2.0);
};

// --- Memory registration cost model (Section 4.2/4.3) ----------------------
struct RegParams {
  // T = a * pages + b.
  Duration reg_per_page = Duration::us(0.77);
  Duration reg_base = Duration::us(7.42);
  Duration dereg_per_page = Duration::us(0.23);
  Duration dereg_base = Duration::us(1.1);

  // Pin-down cache capacity. Exceeding either bound evicts LRU entries
  // (registration thrashing).
  u64 cache_max_entries = 4096;
  u64 cache_max_bytes = 512 * kMiB;

  Duration reg_cost(u64 bytes) const {
    return reg_base + reg_per_page * static_cast<i64>(pages_for(bytes));
  }
  Duration dereg_cost(u64 bytes) const {
    return dereg_base + dereg_per_page * static_cast<i64>(pages_for(bytes));
  }
};

// --- Host memory ------------------------------------------------------------
struct MemParams {
  double memcpy_bw = 1300.0;  // MiB/s (Section 3.2)

  Duration copy_cost(u64 bytes) const { return transfer_time(bytes, memcpy_bw); }
};

// --- OS services (Section 4.3) ----------------------------------------------
struct OsParams {
  // Custom kernel syscall walking vm structures: ~70 us for ~1000 holes.
  Duration holequery_base = Duration::us(5.0);
  Duration holequery_per_extent = Duration::us(0.065);
  // Reading /proc/$pid/maps instead: ~1100 us for the same query.
  Duration procfs_query = Duration::us(1100.0);
  // mincore()-style residency probing: one syscall plus a per-page bitmap
  // walk over the candidate span (the paper's portable fallback).
  Duration mincore_base = Duration::us(2.0);
  Duration mincore_per_page = Duration::us(0.02);

  Duration holequery_cost(u64 extents) const {
    return holequery_base + holequery_per_extent * static_cast<i64>(extents);
  }
  Duration mincore_cost(u64 pages) const {
    return mincore_base + mincore_per_page * static_cast<i64>(pages);
  }
};

// --- Disk and local file system (Table 3) -----------------------------------
struct DiskParams {
  // Media bandwidth asymptotes (MiB/s), reached for large requests.
  double media_read_bw = 21.0;   // bonnie uncached read: 20 MB/s
  double media_write_bw = 26.0;  // bonnie uncached write: 25 MB/s
  // Request size at which half the asymptotic bandwidth is reached;
  // models per-request firmware/DMA setup for small media accesses.
  // Calibrated so the ADS decision crossover for the block-column pattern
  // lands where the paper observed it (array size 2048, 2 KiB pieces).
  u64 media_half_size = 14 * kKiB;

  // Physical head movement. Short forward hops are "pass-overs": the head
  // stays on track while the platter spins past the gap, costing the same
  // as reading it. Genuine seeks ramp from track-to-track to the full
  // average seek with distance.
  u64 passover_max = 1 * kMiB;               // hops below this just spin by
  Duration seek_short = Duration::ms(1.0);   // track-to-nearby-track
  Duration seek_long = Duration::ms(8.5);    // average full seek
  u64 seek_long_distance = 1 * kGiB;         // distance at which long applies

  // Page-cache service bandwidths (Table 3 "with cache").
  double cache_read_bw = 1391.0;
  double cache_write_bw = 303.0;

  u64 cache_capacity = 512 * kMiB;  // node RAM given to the page cache

  // Effective media bandwidth for an access of `bytes`.
  double media_bw(u64 bytes, bool write) const {
    const double peak = write ? media_write_bw : media_read_bw;
    const double b = static_cast<double>(bytes);
    return peak * b / (b + static_cast<double>(media_half_size));
  }

  Duration seek_cost(u64 distance_bytes) const {
    if (distance_bytes == 0) return Duration::zero();
    if (distance_bytes < passover_max) {
      // The platter spins past the gap at media speed.
      return transfer_time(distance_bytes, media_read_bw);
    }
    const double f =
        std::min(1.0, static_cast<double>(distance_bytes) /
                          static_cast<double>(seek_long_distance));
    return seek_short + (seek_long - seek_short) * f;
  }
};

// --- File system call overheads (ADS model parameters, Table 1) -------------
struct FsParams {
  // Per-access fixed cost of read()/write() through VFS + ext3 on 2003-era
  // Linux: syscall entry, page lookup/allocation, journal bookkeeping and
  // block mapping. The paper's motivation — "the cost of making many
  // read/write system calls, each for small amounts of data, is extremely
  // high" — lives in these constants; together with media_half_size they
  // place the ADS decision crossover at 2 KiB pieces (array size 2048 in
  // Figure 6), where the paper observed it.
  Duration read_overhead = Duration::us(20.0);   // O_r
  Duration write_overhead = Duration::us(20.0);  // O_w
  Duration seek_overhead = Duration::us(2.0);    // O_seek (lseek syscall)
  Duration lock_overhead = Duration::us(2.0);    // O_lock
  Duration unlock_overhead = Duration::us(2.0);  // O_unlock
};

// --- PVFS ---------------------------------------------------------------
struct PvfsParams {
  u64 stripe_size = 64 * kKiB;       // PVFS default
  u32 max_list_pairs = 128;          // file accesses per list request (PVFS default)
  u64 fast_rdma_threshold = 64 * kKiB;  // eager path for transfers below this
  u64 fast_rdma_buffer = 64 * kKiB;     // pre-registered bounce buffer size
  u64 staging_buffer = 4 * kMiB;        // iod staging / sieve buffer size
  u64 request_msg_bytes = 256;          // wire size of a request header
  u64 reply_msg_bytes = 64;             // wire size of a reply header
  u64 list_pair_wire_bytes = 16;        // per (offset,length) pair on the wire
  Duration iod_request_cpu = Duration::us(2.0);  // request decode on the iod
  // Client-library software cost per issued request (building the request,
  // job queueing, completion handling). Dominant for Multiple I/O's
  // thousands of tiny calls, negligible for list I/O's few rounds.
  Duration client_request_cpu = Duration::us(15.0);
  // Active metadata managers, each owning a hash shard of the namespace and
  // of the version plane (protocol.h shard_of/shard_of_handle). 1 is the
  // classic single-manager PVFS plane, byte-identical to before sharding.
  u32 metadata_shards = 1;
  // Model the manager's metadata service as a serially-reusable CPU
  // (sim::Resource busy-until queueing) instead of a fixed per-request
  // latency. Off by default: concurrent metadata requests then overlap
  // freely, which keeps the figure benches' timelines untouched. The
  // metadata-storm bench turns it on — queueing at the manager CPU is
  // exactly the contention sharding exists to relieve.
  bool meta_cpu_queue = false;
};

// --- Fault injection and recovery ------------------------------------------
// The simulated fabric/servers are perfectly healthy by default. A
// non-trivial FaultConfig turns on the fault plane (src/fault/): seeded
// random perturbations plus explicit (time, target, kind) schedules, and
// the client-side recovery machinery (per-round timeouts, exponential
// backoff, capped retries, idempotent round replay). With enabled() false
// every fault/recovery code path is skipped entirely, so zero-fault runs
// are byte-identical to a build without the fault plane.
enum class FaultKind {
  kIodCrash,     // iod down for [at, at + duration); requests arriving are lost
  kDropRequest,  // drop the next round request to `target` at/after `at`
  kDropReply,    // drop the next round reply from `target` at/after `at`
  // Drop the next metadata request arriving at metadata shard `target`'s
  // manager at/after `at` (shard 0 is the only shard — and the single
  // manager — when the plane is unsharded). The client's metadata retry
  // path notices via timeout and resends with capped backoff.
  kDropMetaRequest,
  // Metadata shard `target`'s primary manager down for [at, at + duration);
  // metadata requests arriving in the window are lost. With
  // FaultConfig::standby_takeover the shard's standby manager takes over
  // `manager_takeover_delay` after the window opens; otherwise clients just
  // burn their retry budgets.
  kManagerCrash,
  // The in-flight migration target for metadata shard `target` crashes at
  // `at` (one-shot, consumed by the migration's next stream round or its
  // cutover check). The migration aborts cleanly and the source — which
  // kept serving throughout — simply stays the shard's authority: target
  // crash falls back to the source. Ignored when no migration is streaming
  // for the shard at the time.
  kMigrationTargetCrash,
  // --- Silent data corruption (integrity plane) ---------------------------
  // None of these three are fail-stop: the iod stays up and keeps acking.
  // They are only *observable* through the stripe block checksums and the
  // version cross-check (verify-on-read, scrubber).
  // Flip bytes in a stored stripe on iod `target` at `at` (media decay,
  // firmware bug). The flipped range is chosen deterministically from the
  // injector's seeded rng among the bytes the iod holds.
  kBitFlip,
  // The next write round applied by iod `target` at/after `at` persists only
  // a prefix of its payload but is acked — and its header versioned — as if
  // complete (power-loss torn write).
  kTornWrite,
  // The next write round arriving at iod `target` at/after `at` is acked
  // with the round's version but never applied: neither data nor header
  // move (lost/misdirected write; the firmware lied).
  kLostWrite,
};

struct FaultEvent {
  FaultKind kind = FaultKind::kIodCrash;
  TimePoint at = TimePoint::origin();
  u32 target = 0;  // iod id; metadata shard for the manager/meta kinds
  Duration duration = Duration::zero();  // kIodCrash: restart delay
};

struct FaultConfig {
  u64 seed = 1;  // drives every random draw (common/rng.h)

  // Random per-message/per-transfer fault rates (probabilities in [0, 1]).
  double request_drop_rate = 0.0;  // round request vanishes (timeout+retry)
  double reply_drop_rate = 0.0;    // round applied, reply vanishes (replay)
  // Wire corruption/loss absorbed by the RC transport: the transfer
  // completes but pays a retransmit timeout plus a second wire occupancy.
  double retransmit_rate = 0.0;
  Duration retransmit_timeout = Duration::us(500.0);
  // Per-link latency spike (congestion, SM sweep): extra one-way latency.
  double latency_spike_rate = 0.0;
  Duration latency_spike = Duration::ms(1.0);
  // Metadata request to the manager vanishes (client retries with the same
  // backoff policy as data rounds).
  double meta_request_drop_rate = 0.0;
  // QP-level failures: completion errors surface through
  // TransferResult.status as kUnavailable; RNR forces receiver-not-ready.
  double completion_error_rate = 0.0;
  double rnr_rate = 0.0;

  // Silent-corruption rates, drawn once per applied write round at the iod
  // (independent draws, checked in the order lost < torn < flip so at most
  // one fires per round). Scheduled kBitFlip/kTornWrite/kLostWrite events
  // compose with these for deterministic placement.
  double bit_flip_rate = 0.0;    // flip a stored byte of the round just written
  double torn_write_rate = 0.0;  // persist a prefix, ack the whole round
  double lost_write_rate = 0.0;  // persist nothing, ack the whole round

  // Degraded disk: iod service time multiplied by `factor` in [from, until).
  struct DiskDegrade {
    u32 iod = 0;
    double factor = 1.0;
    TimePoint from = TimePoint::origin();
    TimePoint until = TimePoint::from_ns(INT64_MAX);
  };
  std::vector<DiskDegrade> disk_degrade;

  // Explicit deterministic fault schedule (applied before random draws).
  std::vector<FaultEvent> schedule;

  // --- Recovery policy (client side) ---------------------------------------
  // A round with no reply by `round_timeout` after issue is retried after
  // an exponential backoff, up to `max_retries` replays; then the operation
  // fails terminally. Only consulted when the fault plane is enabled.
  Duration round_timeout = Duration::ms(250.0);
  u32 max_retries = 6;
  Duration backoff_base = Duration::ms(1.0);
  double backoff_mult = 2.0;
  Duration backoff_cap = Duration::ms(50.0);

  // Adaptive per-iod round timeouts (Jacobson-style RTT estimation over
  // settled rounds): timeout = clamp(srtt + timeout_var_mult * rttvar,
  // [timeout_min, timeout_max]). Until an iod has a sample the static
  // round_timeout applies. Keeps failover from firing early against a
  // merely-slow replica while still detecting a crashed one quickly.
  bool adaptive_timeout = false;
  double timeout_var_mult = 4.0;
  Duration timeout_min = Duration::us(200.0);
  Duration timeout_max = Duration::sec(2.0);

  // --- Manager takeover -----------------------------------------------------
  // Place a standby manager that takes over when a kManagerCrash window
  // opens: it bumps the cluster-wide manager epoch, adopts the namespace,
  // rebuilds the staleness map conservatively from iod stripe headers and
  // resumes minting above the highest version observed. Clients fail
  // metadata requests over to it (pvfs.meta_failovers); stale-epoch mints
  // and notes are fenced (pvfs.epoch_rejections). Takeover fires
  // `manager_takeover_delay` after the crash window opens (failure
  // detection + rebuild time).
  bool standby_takeover = false;
  Duration manager_takeover_delay = Duration::ms(50.0);

  bool enabled() const {
    return request_drop_rate > 0.0 || reply_drop_rate > 0.0 ||
           retransmit_rate > 0.0 || latency_spike_rate > 0.0 ||
           completion_error_rate > 0.0 || rnr_rate > 0.0 ||
           meta_request_drop_rate > 0.0 || bit_flip_rate > 0.0 ||
           torn_write_rate > 0.0 || lost_write_rate > 0.0 ||
           !disk_degrade.empty() || !schedule.empty();
  }
};

// --- Stripe replication (primary/backup) ------------------------------------
// Classic PVFS keeps no redundancy: a crashed iod whose outage outlives the
// retry budget fails the operation. With factor > 1 the manager places each
// logical stripe server on `factor` distinct physical iods (the primary plus
// factor-1 backups, rotated chained-declustering style), the client fans
// every write round out to all replicas and settles on a quorum of acks, and
// reads fail over to the next live replica when the current one exhausts its
// retry budget. factor == 1 is bit-identical to the classic single-copy
// protocol.
struct ReplicationParams {
  u32 factor = 1;  // replicas per stripe server (must be <= physical iods)
  // Acks required to settle a write round; 0 means all `factor` replicas
  // (durable but a crashed backup stalls the round until it restarts or the
  // budget runs out). 1 trades durability for availability.
  u32 write_quorum = 0;

  // --- Version plane (per-stripe versions, read-repair, resync) -----------
  // Every replicated write round carries a monotonically increasing
  // per-stripe version; acks return the version the replica now holds, so
  // the manager's staleness map knows which replicas are current. The three
  // knobs below build repair paths on that map. All of it is structurally
  // absent at factor 1.
  //
  // Read-repair: a read served by a fresher replica while another replica's
  // recorded version trails schedules an async repair write of the just-read
  // data to the stale one (pvfs.read_repairs). Heals content
  // opportunistically; only write acks and resync mark a replica current in
  // the staleness map (a repair covers one round's byte range, not
  // necessarily everything its version covers).
  bool read_repair = true;
  // When several replicas are current, serve the read from the one with the
  // lowest adaptive-timeout srtt estimate instead of always the primary
  // (first slice of fault-aware scheduling). Off by default so fault-free
  // replicated runs keep serving from the primary, baseline-identical.
  bool read_bias = false;
  // Background re-replication: a crash-restarted iod asks the manager for
  // its stale stripes and pulls fresh data from a current peer in
  // rate-limited rounds (pvfs.resync_stripes/resync_rounds), returning the
  // chain to full factor F — so factor F survives F-1 *sequential* failures
  // with MTTR-bounded exposure. Opt-in: it changes post-restart timelines.
  bool resync = false;
  // Wire rate cap for resync pulls in MiB/s (also bounded by the fabric's
  // RDMA read bandwidth) and the chunk size of one resync round.
  double resync_bandwidth = 200.0;
  u64 resync_round_bytes = 256 * kKiB;

  // --- Integrity plane (block checksums, verify-on-read, scrubber) --------
  // Checksum granularity inside a stripe's local file: the stripe header
  // (format v2; v1 headers were version-only) keeps one FNV-1a sum per
  // `integrity_block_bytes`-sized block. Every applied write/repair/resync
  // marks its blocks stamped without hashing them; a block is hashed only
  // when a fault-plane corruptor is about to garble it (from the intended
  // bytes) and again when a read, scrub or resync check covers it
  // afterwards, until one matches. Those corruptors are the only writers
  // behind a stamp, so the outcome equals hashing on every apply and
  // access, and fault-free runs hash nothing. Stamping and verification
  // are host-side work modeled at zero simulated cost (overlapped with the
  // disk phase), so fault-free timelines are byte-identical with
  // checksumming always on.
  u64 integrity_block_bytes = 16 * kKiB;
  // Background scrubber: a rate-limited periodic sweep per iod that walks
  // local stripe headers, re-verifies block checksums against stored bytes
  // and cross-checks header versions against the shard's manager, then
  // heals findings through the resync pull path. Opt-in (it schedules
  // periodic engine events and charges real disk reads); requires resync.
  // Started explicitly via Cluster::start_scrub(until) so the event queue
  // stays bounded.
  bool scrub = false;
  Duration scrub_interval = Duration::ms(10.0);  // one chunk per tick per iod
  u64 scrub_chunk_bytes = 256 * kKiB;            // bytes verified per tick

  u32 effective_quorum() const {
    return write_quorum == 0 ? factor : std::min(write_quorum, factor);
  }
};

// --- Live shard migration / resharding --------------------------------------
// Online ownership movement in the sharded metadata plane:
// Cluster::migrate_shard() drains one shard onto a fresh manager and
// Cluster::split_shards() grows the plane K -> 2K, both while clients keep
// racing (ARCHITECTURE.md "Live resharding"). The source streams its
// namespace + version/staleness/corrupt maps to the target in rate-limited
// rounds and keeps serving; a final fenced cutover bumps the shard epoch and
// flips the registry. Runs that never start a migration consult none of
// these knobs and stay byte-identical.
struct MigrationParams {
  // Wire rate cap for the snapshot stream in MiB/s (also bounded by the
  // fabric's control-path bandwidth) and the chunk size of one stream round.
  double stream_bandwidth = 400.0;
  u64 round_bytes = 64 * kKiB;
  // Pause between the last stream round and the cutover event (drain delay:
  // lets in-flight replies clear before ownership flips).
  Duration cutover_delay = Duration::us(500.0);
  // MetaClient's bounded re-refresh on kWrongShard replies: a call retries
  // its shard-map refresh up to `map_refresh_attempts` times with capped
  // exponential backoff, so two map generations in flight (a refresh that
  // lands an already-stale map mid-migration) cannot strand the call the
  // way the old at-most-once refresh did.
  u32 map_refresh_attempts = 3;
  Duration map_refresh_backoff = Duration::us(200.0);
  Duration map_refresh_backoff_cap = Duration::ms(2.0);
};

// --- Client caching tier ------------------------------------------------
// Per-client attribute/name + data caching (src/cache/). Disabled by
// default: with `enabled == false` no cache structures are consulted, no
// pvfs.cache_* counters move, and every timeline is byte-identical to a
// build without the tier.
struct CacheParams {
  bool enabled = false;
  // Data-cache byte budget per client (clean extents; LRU eviction). Dirty
  // write-back extents are never silently evicted — they are the only copy
  // of the user's bytes until flushed, so the budget may be transiently
  // exceeded while dirty data is pending.
  u64 data_capacity = 4 * kMiB;
  // Attribute/name cache entry budget per client (LRU eviction).
  u32 attr_capacity = 256;
  // With `leases == false` attribute entries expire on a plain TTL. With
  // leases (the default) entries stay valid until a manager-granted lease
  // is revoked: create/remove on the name, or an epoch bump (takeover,
  // migration cutover, shard split) on the owning shard.
  bool leases = true;
  Duration attr_ttl = Duration::ms(50.0);
  // Opt-in write-back data mode: writes stage dirty extents locally and
  // complete immediately; dirty data is flushed on close()/flush() or when
  // its age reaches `staleness_bound` (an engine timer), whichever comes
  // first. Default off = write-through (every write goes to the iods
  // before the op completes).
  bool write_back = false;
  Duration staleness_bound = Duration::ms(5.0);
};

// --- Everything --------------------------------------------------------
struct ModelConfig {
  NetParams net;
  RegParams reg;
  MemParams mem;
  OsParams os;
  DiskParams disk;
  FsParams fs;
  PvfsParams pvfs;
  FaultConfig fault;  // trivial by default: no faults, no recovery overhead
  ReplicationParams replication;  // factor 1 = classic single-copy PVFS
  MigrationParams migration;      // consulted only once a migration starts
  CacheParams cache;              // client caching tier; disabled = no-op

  // Outstanding-round window per I/O server: how many list I/O rounds a
  // client may keep in flight to one iod. 1 reproduces classic PVFS
  // flow control (the next request leaves when the previous reply
  // arrives); W > 1 lets the client issue round k+1 as soon as round k's
  // data phase clears the wire, overlapping wire, registration and disk
  // work the way credit-based RDMA designs (MVAPICH rendezvous pipelining)
  // do. Each iod provisions W staging buffers per client connection.
  u32 pipeline_depth = 1;

  // The defaults above *are* the paper's testbed; provided for readability.
  static ModelConfig paper_defaults() { return ModelConfig{}; }

  // A conventional-network configuration (Section 3.2's foil): TCP over
  // 2003-era gigabit Ethernet. High per-message overhead, modest bandwidth,
  // no registration costs (the kernel stack copies anyway). Used by the
  // network ablation to reproduce the paper's claim that noncontiguous
  // transmission strategy barely matters on slow networks.
  static ModelConfig tcp_era() {
    ModelConfig cfg;
    cfg.net.rdma_write_latency = Duration::us(55.0);
    cfg.net.rdma_read_latency = Duration::us(110.0);
    cfg.net.send_latency = Duration::us(55.0);
    cfg.net.rdma_write_bw = 100.0;
    cfg.net.rdma_read_bw = 100.0;
    cfg.net.send_bw = 100.0;
    cfg.net.per_wr_overhead = Duration::us(25.0);  // per-send() syscall
    cfg.net.per_sge_overhead = Duration::us(0.5);  // writev iovec handling
    cfg.net.misalign_penalty = Duration::zero();
    // Socket buffers need no pinning; registration is free.
    cfg.reg.reg_per_page = Duration::zero();
    cfg.reg.reg_base = Duration::zero();
    cfg.reg.dereg_per_page = Duration::zero();
    cfg.reg.dereg_base = Duration::zero();
    return cfg;
  }
};

}  // namespace pvfsib

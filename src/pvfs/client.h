// The PVFS client library against the simulated cluster.
//
// The public surface is a handle-based async operation API: describe an
// operation with an IoDesc (direction + list request + options), submit()
// it, and use the returned IoHandle to wait(), poll(), or attach
// completion callbacks. The blocking read_list/write_list calls and the
// contiguous read/write wrappers are thin shims over submit().
//
// Each operation partitions its request across the striped I/O servers,
// splits every server's share into rounds (at most max_list_pairs file
// accesses and one staging buffer of data each), and drives a per-server
// state machine over the event engine:
//
//   write round:  request --> [ack] --> data push (policy scheme) -->
//                 server disk phase --> reply
//   read round:   request --> server disk (+ direct/fast return) -->
//                 [ready ack --> client pull] --> reply
//
// Rounds to the same server are flow-controlled by an outstanding-round
// window (ModelConfig::pipeline_depth). At the default depth 1 the next
// request leaves when the previous reply arrives (classic PVFS). At depth
// W > 1 the client issues round k+1 as soon as round k's data phase clears
// the wire, keeping up to W rounds in flight per iod; the iod lands each
// in-flight round in its own staging buffer and the per-iod disk queue
// serializes the disk phases in data-arrival order, which preserves write
// ordering per handle. Different servers always run concurrently — that is
// where PVFS's striping parallelism comes from; the window adds wire/disk
// overlap on top of it.
#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/client_cache.h"
#include "common/config.h"
#include "core/ogr.h"
#include "core/transfer.h"
#include "ib/fabric.h"
#include "ib/mr_cache.h"
#include "pvfs/iod.h"
#include "pvfs/manager.h"
#include "pvfs/meta_client.h"
#include "pvfs/protocol.h"
#include "sim/engine.h"
#include "vmem/address_space.h"

namespace pvfsib::fault {
class Injector;
}

namespace pvfsib::pvfs {

struct OpenFile {
  FileMeta meta;
};

struct IoOptions {
  bool sync = false;     // writes: fsync on the iod before the reply
  bool use_ads = true;   // allow server-side Active Data Sieving
  core::TransferPolicy policy;  // noncontiguous transfer scheme
  // True when the caller chose `policy` deliberately (set by with_policy).
  // An unmarked policy defers to the cluster-level default, if one is set.
  bool policy_explicit = false;
  // Reads: allow the server to gather-push straight into a single
  // contiguous destination buffer.
  bool direct_read_return = true;
  // Application-aware registration (Section 4.2.1): the actual allocation
  // the list buffers came from (e.g. the whole malloc'd array). When set
  // (length > 0), the client pins that one region instead of running OGR.
  u64 allocation_hint_addr = 0;
  u64 allocation_hint_len = 0;

  // Fluent setup, e.g. IoOptions{}.with_sync().with_policy(p).
  IoOptions& with_sync(bool v = true) {
    sync = v;
    return *this;
  }
  IoOptions& with_ads(bool v = true) {
    use_ads = v;
    return *this;
  }
  IoOptions& with_policy(const core::TransferPolicy& p) {
    policy = p;
    policy_explicit = true;
    return *this;
  }
  IoOptions& with_scheme(core::XferScheme s) {
    policy.scheme = s;
    policy_explicit = true;
    return *this;
  }
  IoOptions& with_direct_read_return(bool v = true) {
    direct_read_return = v;
    return *this;
  }
  IoOptions& with_allocation_hint(u64 addr, u64 len) {
    allocation_hint_addr = addr;
    allocation_hint_len = len;
    return *this;
  }
};

// Where an operation's virtual time went, accumulated across every round
// of every server chain (phases of different servers overlap in wall-clock
// time, so the buckets sum to more than elapsed() on striped operations).
struct IoPhases {
  Duration registration = Duration::zero();  // OGR / pin-down work
  Duration wire = Duration::zero();   // data phases: pack copies + RDMA
  Duration disk = Duration::zero();   // server disk service time
  Duration stall = Duration::zero();  // rounds blocked on the window
};

struct IoResult {
  Status status;
  u64 bytes = 0;
  TimePoint start = TimePoint::origin();
  TimePoint end = TimePoint::origin();
  IoPhases phases{};
  // Round retries the recovery layer spent on this operation (0 on a clean
  // run; only ever nonzero when a fault plane is active).
  u32 retries = 0;
  // Read-failover hops taken across the operation's rounds (replicated
  // reads only). Together with `retries` this tells a caller *how* a read
  // survived — or, with status kAllReplicasFailed, how hard it tried.
  u32 failovers = 0;

  Duration elapsed() const { return end - start; }
  double bandwidth_mib() const {
    return pvfsib::bandwidth_mib(bytes, elapsed());
  }
  bool ok() const { return status.is_ok(); }
  // Completed correctly, but only after surviving injected faults.
  bool recovered() const { return ok() && retries > 0; }
};

using IoCallback = std::function<void(IoResult)>;

enum class IoDir { kWrite, kRead };

// Everything that defines one list I/O operation. Aggregate-initializable:
//   client.submit({IoDir::kWrite, file, req, opts});
struct IoDesc {
  IoDir dir = IoDir::kWrite;
  OpenFile file;
  core::ListIoRequest req;
  IoOptions opts;
  // Earliest virtual time the operation may start; clamped to the engine
  // clock at submit. Blocking shims pass the client's logical clock.
  TimePoint start = TimePoint::origin();
};

class Client;

// A first-class reference to an in-flight (or completed) operation.
// Cheap to copy; all copies observe the same completion state. Completion
// callbacks registered after the operation finished fire immediately.
class IoHandle {
 public:
  IoHandle() = default;

  bool valid() const { return state_ != nullptr; }
  // Non-blocking: has the operation completed (successfully or not)?
  bool poll() const;
  // The outcome; only meaningful once poll() is true (asserts otherwise).
  const IoResult& result() const;
  // Drive the engine until this operation completes, then return its
  // result and advance the owning client's logical clock past it.
  IoResult wait();
  // Register a completion callback (fires immediately if already done).
  // Returns *this so a callback can be chained onto a fresh submit().
  IoHandle& on_complete(IoCallback cb);

 private:
  friend class Client;
  struct State;
  IoHandle(Client* client, std::shared_ptr<State> state)
      : client_(client), state_(std::move(state)) {}

  Client* client_ = nullptr;
  std::shared_ptr<State> state_;
};

class Client {
 public:
  Client(u32 id, const ModelConfig& cfg, sim::Engine& engine,
         ib::Fabric& fabric, const MetaRegistry& registry,
         std::vector<Iod*> iods, Stats* stats,
         fault::Injector* faults = nullptr);

  // --- Metadata --------------------------------------------------------
  // Thin blocking shims over MetaClient::call: each builds one typed
  // MetaRequest, routes it through the shard map, and advances the
  // client's logical clock past the reply (docs/ASYNC_API.md has the full
  // request/reply mapping).
  Result<OpenFile> create(const std::string& name);
  Result<OpenFile> create(const std::string& name, u64 stripe_size,
                          u32 iod_count,
                          u32 base_iod = Manager::kAutoBase);
  Result<OpenFile> open(const std::string& name);
  Result<FileMeta> stat(const std::string& name);
  // Remove the namespace entry and every iod's local stripe file.
  Status remove(const std::string& name);

  // --- List I/O ---------------------------------------------------------
  // The one entry point: submit an operation, get a handle.
  IoHandle submit(const IoDesc& desc);

  // Blocking shims over submit(): run the engine until the op completes.
  IoResult write_list(const OpenFile& file, const core::ListIoRequest& req,
                      const IoOptions& opts = {});
  IoResult read_list(const OpenFile& file, const core::ListIoRequest& req,
                     const IoOptions& opts = {});

  // --- Contiguous convenience wrappers ----------------------------------
  IoResult write(const OpenFile& file, u64 file_offset, u64 addr, u64 length,
                 const IoOptions& opts = {});
  IoResult read(const OpenFile& file, u64 file_offset, u64 addr, u64 length,
                const IoOptions& opts = {});

  // Default transfer policy applied to operations whose options did not
  // set one explicitly (see Cluster::set_default_policy).
  void set_default_policy(std::optional<core::TransferPolicy> p) {
    default_policy_ = std::move(p);
  }
  const std::optional<core::TransferPolicy>& default_policy() const {
    return default_policy_;
  }

  // The metadata routing facade (shard map cache, redirects, version-plane
  // authority selection). Exposed for tests and tooling that poke at the
  // cached map (e.g. MetaClient::invalidate_map).
  MetaClient& meta() { return meta_; }

  // --- Client caching tier (src/cache/) ---------------------------------
  // Subscribe this client's cache to the cluster's lease revocation bus,
  // routed through the MetaClient. No-op when CacheParams::enabled is off
  // (the ctor never set a sink, so nothing subscribes).
  void attach_lease_bus(LeaseBus* bus) { meta_.attach_lease_bus(bus); }
  // Write-back mode: push every dirty extent of `file` to the servers and
  // convert it to clean. Blocking (drives the engine); a no-op returning
  // ok/0 bytes when there is nothing dirty or write-back is off.
  IoResult flush(const OpenFile& file);
  // POSIX-close semantics for the write-back mode: flush, then drop the
  // file's cached data (the next open re-reads through the tiers).
  IoResult close(const OpenFile& file);
  // The attribute/data cache itself, for tests and cache-drop tooling.
  cache::ClientCache& data_cache() { return ccache_; }

  // The client's process state.
  vmem::AddressSpace& memory() { return as_; }
  ib::Hca& hca() { return hca_; }
  ib::MrCache& cache() { return cache_; }
  ib::MrCache& mr_cache() { return cache_; }
  core::GroupRegistrar& registrar() { return registrar_; }
  u32 id() const { return id_; }

  // Local logical clock: blocking calls start at now() and advance it.
  TimePoint now() const { return now_; }
  void advance_to(TimePoint t) { now_ = max(now_, t); }

 private:
  friend class IoHandle;

  struct Round {
    ExtentList accesses;           // iod-local file extents
    core::MemSegmentList mem;      // matching client memory slices
    u64 bytes = 0;
  };
  struct OpState;  // shared per-operation bookkeeping
  // The state of one round across its attempts. Every round carries one,
  // healthy or not, and runs the same lifecycle: issue, fan out to the
  // chain (a factor-1 file is a chain of length 1 with quorum 1), collect
  // acks or a read return, settle. A disabled fault injector never fires,
  // so on a healthy run no timer is armed and no attempt is replayed.
  // Shared between the attempt's event chain and the armed timeout timer;
  // `settled` makes late duplicate completions harmless.
  struct RoundTry {
    u64 seq = 0;         // round_seq stamped once, reused on every replay
    u32 attempts = 1;    // attempts started (1 = first try)
    bool settled = false;
    bool timer_armed = false;
    sim::Engine::TimerId timer_id = 0;
    TimePoint first_issue = TimePoint::origin();
    TimePoint last_issue = TimePoint::origin();  // newest attempt's start
    // Read failover: attempts consumed before the latest failover (the
    // retry budget restarts at each new replica) and failovers taken so
    // far (capped at replica-count - 1 per round).
    u32 budget_base = 0;
    u32 failovers = 0;
    // Per-stripe version stamped on a write round whose chain is longer
    // than 1 (manager-minted in issue_round; 0 otherwise). Replays carry
    // the same version.
    u64 version = 0;
    // Manager epoch `version` was minted under (0 when unversioned). Rides
    // every attempt of the round so iods can fence mints that a manager
    // takeover has since superseded.
    u64 epoch = 0;
    // Write fan state, indexed by replica position in the chain's replica
    // set: which replicas have acked this round (replays go only to the
    // silent ones) and which already hold the payload in their staging
    // slot (replays to those skip the wire phase).
    std::vector<bool> acked;
    std::vector<bool> data_landed;
    u32 acks = 0;
    bool have_first_ack = false;
    TimePoint first_ack = TimePoint::origin();
  };

  void start_op(const OpenFile& file, const core::ListIoRequest& req,
                const IoOptions& opts, TimePoint start, bool is_write,
                IoCallback done, bool wb_flush = false);

  // --- Caching tier internals -------------------------------------------
  // Serve the read entirely from cached (clean or dirty) extents when they
  // cover it and every clean tag validates against the authority's
  // write-notice seq and stripe-version planes. Completes the op at zero
  // simulated cost and returns true; false = miss, go to the wire.
  bool serve_cached_read(const OpenFile& file, const core::ListIoRequest& req,
                         TimePoint start, const IoCallback& done);
  // Write-back staging: gather the request's bytes from user memory into
  // dirty cache extents, complete immediately, and arm the
  // staleness_bound flush timer for the handle.
  void stage_write_back(const OpenFile& file, const core::ListIoRequest& req,
                        TimePoint start, const IoCallback& done);
  // Start the flush write for `h`'s dirty runs (no-op when none). `done`
  // fires with the flush op's result after flush_applied converted the
  // runs to clean.
  void start_flush(Handle h, IoCallback done);
  // Op-completion cache hooks (round_done's final block): completion-time
  // seq bumps for writes, clean re-insert of the op's bytes, dirty overlay
  // onto a wire-read's user buffer.
  void cache_op_complete(OpState& op);
  // Issue the chain's next round at time `t` (window bookkeeping done).
  void issue_round(std::shared_ptr<OpState> op, u32 iod_idx, TimePoint t);
  // Give `tr` a fresh round_seq and an empty ack fan; a write on a chain
  // longer than 1 also gets a stripe version minted under the current
  // authority's epoch. Runs at issue and again when an epoch fence forces
  // a re-mint.
  void stamp_round(const OpState& op, u32 iod_idx, RoundTry& tr);
  // Round k's data phase cleared the wire at `t`: issue round k+1 if the
  // outstanding-round window has room, else record the stall.
  void wire_cleared(std::shared_ptr<OpState> op, u32 iod_idx, TimePoint t);
  // Fan one write attempt out to every not-yet-acked replica of the chain
  // (a single iod when unreplicated).
  void run_write_round(std::shared_ptr<OpState> op, u32 iod_idx,
                       size_t round_idx, TimePoint t0,
                       std::shared_ptr<RoundTry> tr);
  // Drive one write round against replica `rep` of the chain's set.
  void run_write_replica(std::shared_ptr<OpState> op, u32 iod_idx,
                         size_t round_idx, u32 rep, TimePoint t0,
                         std::shared_ptr<RoundTry> tr);
  // Replica `rep` acked the write round at `t` holding stripe version
  // `ack_version`: record the version with the manager (even for late acks
  // after the quorum settled — a slow-but-alive replica is current, not
  // stale) and settle once the write quorum is met (the first ack on a
  // chain of length 1). `attempt_seq` is the round_seq the attempt carried —
  // acks from attempts older than the round's current seq (superseded by a
  // re-mint) are dropped. `epoch_rejected` means the iod fenced the
  // attempt's version as epoch-stale: the round re-mints a fresh
  // version+epoch from the current authority and replays under a fresh
  // seq (pvfs.version_remints) instead of counting the ack.
  void write_replica_done(std::shared_ptr<OpState> op, u32 iod_idx,
                          size_t round_idx, u32 rep,
                          std::shared_ptr<RoundTry> tr, TimePoint t,
                          u64 ack_version, u64 attempt_seq,
                          bool epoch_rejected);
  void run_read_round(std::shared_ptr<OpState> op, u32 iod_idx,
                      size_t round_idx, TimePoint t0,
                      std::shared_ptr<RoundTry> tr);
  // Start an attempt at `t`: stamp it as the newest and, when the fault
  // plane is on, arm its timeout.
  void begin_attempt(std::shared_ptr<OpState> op, u32 iod_idx,
                     size_t round_idx, std::shared_ptr<RoundTry> tr,
                     TimePoint t);
  // Cancel the attempt's timeout timer, if one is armed.
  void disarm_timer(RoundTry& tr);
  // A round completed successfully (or terminally) at `t`: cancel its
  // timer, record recovery stats, and feed round_done. Idempotent per
  // round — late duplicate completions after a replay are ignored.
  void settle_round(std::shared_ptr<OpState> op, u32 iod_idx,
                    size_t round_idx, std::shared_ptr<RoundTry> tr,
                    TimePoint t, Status status);
  // An attempt failed with `why` at `t`: fail a read over to another
  // replica, retry with backoff if the error is transient and budget
  // remains, else settle the round terminally.
  void retry_or_fail(std::shared_ptr<OpState> op, u32 iod_idx,
                     size_t round_idx, std::shared_ptr<RoundTry> tr,
                     TimePoint t, Status why);
  // May this read round move to another replica of its chain? (Some
  // replica has not yet been tried.)
  bool can_fail_over(const OpState& op, u32 iod_idx,
                     const RoundTry& tr) const;
  // Re-route read round `round_idx` — and the chain's remaining rounds —
  // to the next live replica (plain rotation when all look down) with a
  // fresh retry budget, and re-issue it at `t`. Adds each of `stat_keys`
  // and traces "read round <n><why> iod<next>".
  void fail_over_read(std::shared_ptr<OpState> op, u32 iod_idx,
                      size_t round_idx, std::shared_ptr<RoundTry> tr,
                      TimePoint t,
                      std::initializer_list<std::string_view> stat_keys,
                      const std::string& why);
  // A round left the window (settled) at `t`.
  void round_done(std::shared_ptr<OpState> op, u32 iod_idx, size_t round_idx,
                  TimePoint t, Status status);
  static std::vector<Round> split_rounds(const core::ServerSubRequest& sub,
                                         u64 max_pairs, u64 max_bytes);
  // Is the fault plane on? Decides only behaviour that exists because of
  // it — armed round timers (and the RTT estimates that size them),
  // retryable errors, out-of-order settles and the lost-write check —
  // never whether the injector may be called.
  bool faulty() const;

  // The physical iod currently serving reads for (or primarying writes of)
  // the chain: replica_sets[iod_idx][chain.replica].
  u32 current_target(const OpState& op, u32 iod_idx) const;
  // The RoundRequest fields common to write and read rounds, for replica
  // position `rep` of the chain.
  RoundRequest round_request(const OpState& op, u32 iod_idx, size_t round_idx,
                             u32 rep, const RoundTry& tr) const;
  // Count and send a round's request — header plus its list pairs — to
  // `iod` at `t`; returns its arrival time.
  TimePoint send_request(Iod& iod, const Round& r, TimePoint t);
  // Fast RDMA (eager) data phase: a round within fast_rdma_threshold under
  // a pack-based scheme rides the pre-registered bounce buffer — pushed
  // with the write request, or returned with the read reply.
  bool eager(const OpState& op, const Round& r) const;
  // The bytes of `mem` in list order, copied out of client memory.
  std::vector<std::byte> gather(const core::MemSegmentList& mem) const;

  // --- Version plane (replica-aware reads, read-repair) -------------------
  // Starting replica for a replicated read chain: the first replica the
  // manager's staleness map records current (counting a skipped stale
  // primary as pvfs.stale_reads_avoided), tie-broken by the lowest srtt
  // estimate when ReplicationParams::read_bias is on. Position 0 whenever
  // every replica is current — fault-free runs keep serving from the
  // primary, baseline-identical.
  u32 pick_read_replica(const OpState& op, u32 iod_idx);
  // A read round settled OK at `t`, served by the chain's current replica
  // whose stripe header reported `serving_version`: record that with the
  // manager and schedule async repair writes of the round's data to every
  // chain replica whose recorded version trails (pvfs.read_repairs), when
  // ReplicationParams::read_repair allows.
  void maybe_read_repair(std::shared_ptr<OpState> op, u32 iod_idx,
                         size_t round_idx, u64 serving_version, TimePoint t);
  // Gather the round's bytes from client memory now and apply them to
  // replica position `rep` after an analytical pack+wire delay, serialized
  // per target iod (one outstanding repair per target).
  void schedule_repair_write(std::shared_ptr<OpState> op, u32 iod_idx,
                             size_t round_idx, u32 rep, u64 version,
                             TimePoint t);
  // Common tail of every successful read-return path: lost-write check,
  // read-repair bookkeeping, then settle.
  void finish_read_round(std::shared_ptr<OpState> op, u32 iod_idx,
                         size_t round_idx, std::shared_ptr<RoundTry> tr,
                         u64 serving_version, TimePoint t);
  // Lost-write detection: the staleness map records the serving replica as
  // having acked the stripe's latest version, yet its header reports less —
  // the acked write never reached the platter. Downgrades the map to the
  // observed header (pvfs.corruptions_detected), fails the chain over to
  // the next live replica (pvfs.corrupt_reads_failed_over) and re-issues
  // the round; returns true when it did. A replica the map already records
  // stale serves old data without tripping this — that is the legitimate
  // no-resync timeline, not a detection.
  bool lost_write_detected(std::shared_ptr<OpState> op, u32 iod_idx,
                           size_t round_idx, std::shared_ptr<RoundTry> tr,
                           u64 serving_version, TimePoint t);

  // --- Adaptive round timeouts (Jacobson-style per-iod RTT estimation) ---
  struct RttEstimate {
    bool seeded = false;
    Duration srtt = Duration::zero();
    Duration rttvar = Duration::zero();
  };
  // Feed attempt `tr`'s issue-to-completion time, completing at `t`, into
  // `iod_id`'s estimator. A no-op unless the fault plane is on with
  // FaultConfig::adaptive_timeout.
  void note_rtt(u32 iod_id, const RoundTry& tr, TimePoint t);
  // Timeout for one iod: srtt + var_mult * rttvar, clamped; the static
  // round_timeout until seeded or when adaptive timeouts are off.
  Duration iod_timeout(u32 iod_id) const;
  // Timeout for a round attempt: the (single) read target's timeout, or
  // the max over a write's fan so a slow backup is not declared dead by a
  // fast primary's estimate.
  Duration round_timeout_for(const OpState& op, u32 iod_idx) const;

  // Run one typed metadata request through MetaClient::call starting at
  // the client's logical clock, then advance the clock past the reply (or
  // the final timeout when every retry failed).
  MetaReply meta_roundtrip(const MetaRequest& rq);

  u32 id_;
  ModelConfig cfg_;
  sim::Engine& engine_;
  ib::Fabric& fabric_;
  std::vector<Iod*> iods_;
  Stats* stats_;
  fault::Injector* faults_;  // never null: Injector::disabled() stands in
  std::optional<core::TransferPolicy> default_policy_;
  // Next round_seq to stamp (client-wide counter; strictly increasing, so
  // every (client, slot) subsequence is strictly increasing too). Shared
  // across replicas of a fanned-out write round: each iod keeps its own
  // high-water mark, so one sequence number dedupes replays everywhere.
  u64 next_round_seq_ = 1;
  std::vector<RttEstimate> rtt_;  // per physical iod
  // Async repair writes are serialized per target iod: the next repair to
  // a target starts when the previous one arrived (background traffic,
  // one outstanding chunk per target).
  std::map<u32, TimePoint> repair_busy_until_;

  vmem::AddressSpace as_;
  ib::Hca hca_;
  ib::MrCache cache_;
  core::GroupRegistrar registrar_;
  core::NoncontigTransfer xfer_;
  // Metadata routing facade: cached shard map + retry/redirect machinery.
  // Declared after hca_ (it labels traces and sources requests with it).
  MetaClient meta_;
  // Client caching tier (attr + data). Distinct from cache_ — that is the
  // HCA's memory-registration pin-down cache.
  cache::ClientCache ccache_;
  // Write-back bookkeeping: file meta snapshot per handle with dirty
  // extents (the flush write needs stripe geometry), and whether the
  // staleness_bound flush timer is armed for the handle.
  std::map<Handle, FileMeta> wb_files_;
  std::map<Handle, bool> wb_timer_armed_;
  core::TransferEndpoint ep_;  // bounce buffer endpoint
  TimePoint now_ = TimePoint::origin();
};

}  // namespace pvfsib::pvfs

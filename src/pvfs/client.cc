#include "pvfs/client.h"

#include <cassert>
#include <cstring>

#include "fault/injector.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
std::string client_name(u32 id) { return "client" + std::to_string(id); }
}  // namespace

// Completion state shared by every copy of an IoHandle.
struct IoHandle::State {
  bool done = false;
  IoResult result;
  TimePoint start = TimePoint::origin();  // for the stalled-queue error path
  std::vector<IoCallback> callbacks;

  // Record the outcome and fire the callbacks registered so far.
  void complete(IoResult r) {
    result = std::move(r);
    done = true;
    auto cbs = std::move(callbacks);
    callbacks.clear();
    for (IoCallback& cb : cbs) cb(result);
  }
};

// Per-operation bookkeeping shared by the per-server round chains.
struct Client::OpState {
  OpenFile file;
  IoOptions opts;
  bool is_write = false;
  IoCallback done;
  TimePoint start = TimePoint::origin();   // when the caller issued the op
  TimePoint launch = TimePoint::origin();  // after op-wide registration
  // Per sub-request: the *logical stripe server* id (ServerSubRequest::
  // server). partition() skips servers that receive no data, so the dense
  // sub-request index is not the stripe id — shadow handles, version
  // allocation and staleness-map keys must all use the stripe id.
  std::vector<u32> stripes;
  std::vector<std::vector<Round>> rounds;  // per sub-request: its rounds
  // Per sub-request: the chain's ordered physical replicas (primary
  // first). A factor-1 file has chains of length 1: just the primary.
  std::vector<std::vector<u32>> replica_sets;
  u32 quorum = 1;  // write acks needed to settle a round
  // One chain of rounds per target iod, flow-controlled by `window`.
  struct Chain {
    size_t next_issue = 0;  // index of the next round to put on the wire
    u32 inflight = 0;       // issued rounds whose reply has not arrived
    bool stalled = false;   // wire cleared but the window was full
    TimePoint blocked_since = TimePoint::origin();
    // Slot-reuse guard: round k lands in staging slot k mod window, so
    // round k may only be issued once round k - window settled. Under
    // recovery rounds can settle out of order; `floor` is the length of
    // the consecutive settled prefix and issuance requires
    // next_issue < floor + window. With in-order settling (the only
    // possibility when the fault plane is off) this is exactly the
    // inflight < window check.
    std::vector<bool> settled_rounds;
    size_t floor = 0;
    // Which replica of the chain's set currently serves reads; read
    // failover advances it and the chain's remaining rounds follow.
    u32 replica = 0;
  };
  std::vector<Chain> chains;
  core::OgrOutcome prereg;  // op-wide buffer registration
  u64 total_bytes = 0;
  u64 logical_end = 0;  // for manager size bookkeeping on writes
  u32 window = 1;       // outstanding-round limit (pipeline_depth)
  u32 pending = 0;      // chains still running
  TimePoint max_end = TimePoint::origin();
  Status status;
  bool failed = false;
  IoPhases phases;
  u32 retries = 0;    // recovery retries accumulated across all rounds
  u32 failovers = 0;  // read-failover hops accumulated across all rounds

  // --- Caching tier (populated only when CacheParams::enabled) ----------
  // Copy of the request, kept so the completion hooks can gather/overlay
  // the op's bytes against user memory.
  core::ListIoRequest creq;
  bool wb_flush = false;         // write-back flush: skip the write hooks
  bool cache_insertable = false; // read miss whose bytes re-enter the cache
  // Read: per-stripe write-seq snapshot at issue. The entry is only
  // inserted (and only validates later) if the authority's seq still
  // matches — any write submitted or completed during the flight makes
  // the bytes uninsertable/unservable.
  std::map<u32, u64> cache_seq;
  // Read: minimum header version each stripe's rounds reported serving.
  // The min (not max) is the honest tag: a round served by a legitimately
  // stale replica must produce an entry that fails the version check, not
  // one that borrows a newer round's tag.
  std::map<u32, u64> serve_ver;
};

Client::Client(u32 id, const ModelConfig& cfg, sim::Engine& engine,
               ib::Fabric& fabric, const MetaRegistry& registry,
               std::vector<Iod*> iods, Stats* stats, fault::Injector* faults)
    : id_(id),
      cfg_(cfg),
      engine_(engine),
      fabric_(fabric),
      iods_(std::move(iods)),
      stats_(stats),
      faults_(fault::Injector::or_disabled(faults)),
      hca_(client_name(id), as_, cfg.reg, stats),
      cache_(hca_),
      registrar_(cache_, cfg.os, core::OgrConfig{}, stats),
      xfer_(fabric, cfg.mem),
      meta_(hca_, engine, stats, faults_, &registry, cfg.migration),
      ccache_(cfg.cache, stats) {
  if (cfg.cache.enabled) {
    // Route lease revocations bus -> MetaClient -> cache. Setting the sink
    // before any attach_lease_bus call is what makes the subscription
    // happen at all; cache-off clients leave the bus unobserved.
    meta_.set_lease_sink(
        [this](const LeaseRevoke& rv) { ccache_.on_revoke(rv); });
  }
  ep_.hca = &hca_;
  ep_.cache = &cache_;
  ep_.registrar = &registrar_;
  ep_.bounce_size = cfg.pvfs.fast_rdma_buffer;
  ep_.bounce_addr = as_.alloc(ep_.bounce_size);
  ib::RegAttempt reg = hca_.register_memory(ep_.bounce_addr, ep_.bounce_size);
  assert(reg.ok());
  ep_.bounce_key = reg.key;
  rtt_.resize(iods_.size());
}

// --- Metadata ----------------------------------------------------------

MetaReply Client::meta_roundtrip(const MetaRequest& rq) {
  MetaClient::Outcome o = meta_.call(rq, max(now_, engine_.now()));
  now_ = max(now_, o.done);
  return std::move(o.reply);
}

Result<OpenFile> Client::create(const std::string& name) {
  return create(name, cfg_.pvfs.stripe_size,
                static_cast<u32>(iods_.size()));
}

Result<OpenFile> Client::create(const std::string& name, u64 stripe_size,
                                u32 iod_count, u32 base_iod) {
  assert(iod_count <= iods_.size());
  MetaReply r = meta_roundtrip({.op = MetaOp::kCreate,
                                .name = name,
                                .stripe_size = stripe_size,
                                .iod_count = iod_count,
                                .base_iod = base_iod,
                                .replication_factor = cfg_.replication.factor});
  if (!r.status.is_ok()) return r.status;
  if (ccache_.enabled()) ccache_.put_attr(r.meta, now_);
  return OpenFile{r.meta};
}

Result<OpenFile> Client::open(const std::string& name) {
  if (ccache_.enabled()) {
    // Attribute-cache short-circuit: a valid entry answers the open with
    // no metadata round-trip and no simulated time.
    if (const FileMeta* m =
            ccache_.lookup_attr(name, max(now_, engine_.now()))) {
      return OpenFile{*m};
    }
  }
  MetaReply r = meta_roundtrip({.op = MetaOp::kOpen, .name = name});
  if (!r.status.is_ok()) return r.status;
  if (ccache_.enabled()) ccache_.put_attr(r.meta, now_);
  return OpenFile{r.meta};
}

Result<FileMeta> Client::stat(const std::string& name) {
  if (ccache_.enabled()) {
    if (const FileMeta* m =
            ccache_.lookup_attr(name, max(now_, engine_.now()))) {
      return *m;
    }
  }
  // stat is an open-shaped metadata round-trip.
  MetaReply r = meta_roundtrip({.op = MetaOp::kStat, .name = name});
  if (!r.status.is_ok()) return r.status;
  if (ccache_.enabled()) ccache_.put_attr(r.meta, now_);
  return r.meta;
}

Status Client::remove(const std::string& name) {
  Result<FileMeta> meta = stat(name);
  if (!meta.is_ok()) return meta.status();
  Status r = meta_roundtrip({.op = MetaOp::kRemove, .name = name}).status;
  PVFSIB_RETURN_IF_ERROR(r);
  if (ccache_.enabled()) {
    // The manager's kRemoved lease revoke (when a bus is attached) already
    // swept every subscribed cache, ours included, synchronously inside
    // the round-trip. This local pass is the bus-less fallback — both
    // calls are idempotent, so double delivery drops nothing twice.
    ccache_.invalidate_name(name);
    ccache_.on_revoke(LeaseRevoke{LeaseRevokeReason::kRemoved, 0, 1, name,
                                  meta.value().handle});
  }
  // The manager that served the remove tells every iod to unlink its stripe
  // file; the client returns once all acknowledgements are in.
  Manager& mgr = meta_.route(name);
  TimePoint done = now_;
  for (Iod* iod : iods_) {
    const TimePoint at = fabric_.send_control(
        mgr.hca(), iod->hca(), cfg_.pvfs.request_msg_bytes, now_,
        ib::ControlKind::kRequest);
    Duration unlink = iod->remove_file(meta.value().handle);
    if (meta.value().replication_factor > 1) {
      // Backup copies live under per-stripe shadow handles.
      for (u32 k = 0; k < meta.value().iod_count; ++k) {
        unlink += iod->remove_file(backup_handle(meta.value().handle, k));
      }
    }
    done = max(done, fabric_.send_control(
                         iod->hca(), mgr.hca(), cfg_.pvfs.reply_msg_bytes,
                         at + unlink, ib::ControlKind::kReply));
  }
  advance_to(done);
  return Status::ok();
}

// --- Round splitting ----------------------------------------------------

std::vector<Client::Round> Client::split_rounds(
    const core::ServerSubRequest& sub, u64 max_pairs, u64 max_bytes) {
  std::vector<Round> out;
  Round cur;
  size_t mi = 0;
  u64 mconsumed = 0;

  auto take_mem = [&](Round& dst, u64 want) {
    while (want > 0) {
      assert(mi < sub.mem.size());
      const core::MemSegment& m = sub.mem[mi];
      const u64 n = std::min(m.length - mconsumed, want);
      const u64 addr = m.addr + mconsumed;
      if (!dst.mem.empty() &&
          dst.mem.back().addr + dst.mem.back().length == addr) {
        dst.mem.back().length += n;
      } else {
        dst.mem.push_back({addr, n});
      }
      mconsumed += n;
      want -= n;
      if (mconsumed == m.length) {
        ++mi;
        mconsumed = 0;
      }
    }
  };
  auto flush = [&] {
    if (!cur.accesses.empty()) {
      out.push_back(std::move(cur));
      cur = Round{};
    }
  };

  for (const Extent& a : sub.file) {
    u64 off = a.offset;
    u64 left = a.length;
    while (left > 0) {
      if (cur.accesses.size() >= max_pairs || cur.bytes >= max_bytes) flush();
      const u64 n = std::min(left, max_bytes - cur.bytes);
      cur.accesses.push_back({off, n});
      take_mem(cur, n);
      cur.bytes += n;
      off += n;
      left -= n;
    }
  }
  flush();
  return out;
}

// --- Operation setup -----------------------------------------------------

void Client::start_op(const OpenFile& file, const core::ListIoRequest& req,
                      const IoOptions& opts, TimePoint start, bool is_write,
                      IoCallback done, bool wb_flush) {
  Status v = core::validate(req);
  if (!v.is_ok()) {
    done(IoResult{v, 0, start, start});
    return;
  }
  if (ccache_.enabled() && !wb_flush) {
    if (!is_write) {
      if (serve_cached_read(file, req, start, done)) return;
    } else if (ccache_.write_back()) {
      stage_write_back(file, req, start, done);
      return;
    }
  }
  auto op = std::make_shared<OpState>();
  op->file = file;
  op->opts = opts;
  op->is_write = is_write;
  op->done = std::move(done);
  op->start = max(start, engine_.now());
  op->total_bytes = req.bytes();
  op->window = std::max<u32>(1, cfg_.pipeline_depth);
  for (const Extent& e : req.file) {
    op->logical_end = std::max(op->logical_end, e.end());
  }

  // Optimistic Group Registration runs once per operation on the *user's*
  // buffer list (Section 4.3); the per-server slices later hit the pin-down
  // cache. Pack-only transfers (and small hybrids on the Fast-RDMA path)
  // skip registration entirely.
  const auto& pol = op->opts.policy;
  const bool needs_reg =
      pol.scheme == core::XferScheme::kMultipleMessage ||
      pol.scheme == core::XferScheme::kRdmaGatherScatter ||
      (pol.scheme == core::XferScheme::kHybrid &&
       op->total_bytes > pol.hybrid_threshold);
  if (needs_reg) {
    const core::RegStrategy strat =
        pol.scheme == core::XferScheme::kMultipleMessage
            ? core::RegStrategy::kIndividual
            : pol.reg_strategy;
    op->prereg =
        opts.allocation_hint_len > 0
            ? registrar_.acquire_declared(
                  req.mem,
                  Extent{opts.allocation_hint_addr, opts.allocation_hint_len})
            : registrar_.acquire(req.mem, strat);
    if (!op->prereg.ok()) {
      op->done(IoResult{op->prereg.status, 0, op->start, op->start});
      return;
    }
    if (stats_ != nullptr) {
      stats_->add("ogr.prereg_ns", op->prereg.cost.as_ns());
    }
    op->phases.registration += op->prereg.cost;
  }
  op->launch = op->start + op->prereg.cost;

  const core::StripeMap map(file.meta.stripe_size, file.meta.iod_count);
  const auto subs = core::partition(req, map);
  const bool replicated =
      file.meta.replication_factor > 1 && !file.meta.replicas.empty();
  if (replicated) {
    const u32 q = file.meta.replication_factor;
    op->quorum = cfg_.replication.write_quorum == 0
                     ? q
                     : std::min(cfg_.replication.write_quorum, q);
  }
  for (const auto& sub : subs) {
    // Logical stripe server -> physical iod, honoring the file's base.
    const u32 primary =
        (file.meta.base_iod + sub.server) % static_cast<u32>(iods_.size());
    op->stripes.push_back(sub.server);
    if (replicated) {
      assert(sub.server < file.meta.replicas.size());
      const std::vector<u32>& set = file.meta.replicas[sub.server];
      assert(!set.empty() && set[0] == primary);
      op->replica_sets.push_back(set);
    } else {
      op->replica_sets.push_back({primary});
    }
    op->rounds.push_back(split_rounds(sub, cfg_.pvfs.max_list_pairs,
                                      cfg_.pvfs.staging_buffer));
  }
  op->chains.resize(subs.size());
  for (u32 k = 0; k < subs.size(); ++k) {
    op->chains[k].settled_rounds.resize(op->rounds[k].size(), false);
    // Replica-aware placement: start each read chain at a replica the
    // staleness map records current, instead of discovering a stale/dead
    // primary via a failed round. Position 0 whenever all replicas are
    // current.
    if (!is_write) op->chains[k].replica = pick_read_replica(*op, k);
  }
  if (ccache_.enabled()) {
    op->wb_flush = wb_flush;
    op->creq = req;
    Manager& auth = meta_.authority(file.meta.handle);
    if (is_write) {
      // Submission-time write notice: from this instant no cached entry of
      // the touched stripes validates anywhere, covering the whole flight.
      for (u32 s : op->stripes) auth.bump_data_seq(file.meta.handle, s);
      if (!wb_flush) ccache_.invalidate_extents(file.meta.handle, req.file);
    } else {
      op->cache_insertable = true;
      for (u32 s : op->stripes) {
        op->cache_seq[s] = auth.data_seq(file.meta.handle, s);
      }
    }
  }
  op->pending = static_cast<u32>(subs.size());
  assert(op->pending > 0);
  for (u32 k = 0; k < op->pending; ++k) {
    issue_round(op, k, op->launch);
  }
}

// --- Caching tier ---------------------------------------------------------

bool Client::serve_cached_read(const OpenFile& file,
                               const core::ListIoRequest& req,
                               TimePoint start, const IoCallback& done) {
  const Handle h = file.meta.handle;
  Manager& auth = meta_.authority(h);
  const auto valid = [&](u32 stripe, u64 seq, u64 version) {
    if (seq != auth.data_seq(h, stripe)) return false;
    const Manager::StripeVersionView v = auth.stripe_versions(h, stripe);
    return !v.known || version >= v.latest;
  };
  std::vector<std::byte> bytes;
  if (!ccache_.read_lookup(h, req.file, valid, &bytes)) return false;
  // Full coverage with current tags: hand the bytes over host-side. The
  // list-I/O contract makes the concatenated memory segments correspond
  // byte-for-byte to the concatenated file extents.
  u64 off = 0;
  for (const core::MemSegment& m : req.mem) {
    std::memcpy(as_.data(m.addr), bytes.data() + off, m.length);
    off += m.length;
  }
  const TimePoint s = max(start, engine_.now());
  sim::Trace::instance().emitf(
      s, hca_.name(), "read served from cache: %llu B",
      static_cast<unsigned long long>(off));
  done(IoResult{Status::ok(), off, s, s});
  return true;
}

void Client::stage_write_back(const OpenFile& file,
                              const core::ListIoRequest& req, TimePoint start,
                              const IoCallback& done) {
  const Handle h = file.meta.handle;
  const std::vector<std::byte> bytes = gather(req.mem);
  const TimePoint s = max(start, engine_.now());
  ccache_.stage_dirty(h, file.meta.stripe_size, file.meta.iod_count, req.file,
                      bytes, s);
  wb_files_[h] = file.meta;
  sim::Trace::instance().emitf(
      s, hca_.name(), "write-back: staged %llu B dirty",
      static_cast<unsigned long long>(bytes.size()));
  if (!wb_timer_armed_[h]) {
    // Bound how long the dirty bytes stay client-local: one flush timer
    // per handle, re-armed on the next staging after it fires.
    wb_timer_armed_[h] = true;
    engine_.schedule_at(s + cfg_.cache.staleness_bound, [this, h] {
      wb_timer_armed_[h] = false;
      start_flush(h, [](IoResult) {});
    });
  }
  done(IoResult{Status::ok(), bytes.size(), s, s});
}

void Client::start_flush(Handle h, IoCallback done) {
  if (!ccache_.write_back() || !ccache_.has_dirty(h)) {
    done(IoResult{Status::ok(), 0, now_, now_});
    return;
  }
  const auto fit = wb_files_.find(h);
  assert(fit != wb_files_.end());
  const OpenFile file{fit->second};
  auto runs = std::make_shared<std::vector<cache::ClientCache::DirtyRun>>(
      ccache_.dirty_runs(h));
  // The flush is an ordinary write op and sources its payload from client
  // memory like one: copy the dirty runs into a scratch allocation.
  u64 total = 0;
  for (const auto& r : *runs) total += r.bytes.size();
  const u64 scratch = as_.alloc(total);
  core::ListIoRequest req;
  u64 off = 0;
  for (const auto& r : *runs) {
    std::span<std::byte> dst =
        as_.writable_span(scratch + off, r.bytes.size());
    std::memcpy(dst.data(), r.bytes.data(), r.bytes.size());
    req.mem.push_back({scratch + off, r.bytes.size()});
    req.file.push_back({r.offset, r.bytes.size()});
    off += r.bytes.size();
  }
  sim::Trace::instance().emitf(
      max(now_, engine_.now()), hca_.name(),
      "write-back: flushing %llu B in %zu runs",
      static_cast<unsigned long long>(total), runs->size());
  start_op(
      file, req, IoOptions{}, max(now_, engine_.now()), /*is_write=*/true,
      [this, h, runs, scratch, done = std::move(done)](IoResult r) {
        (void)as_.free_at(scratch);
        if (r.ok()) {
          Manager& auth = meta_.authority(h);
          const auto tags = [&](u32 stripe, u64* seq, u64* version) {
            *seq = auth.data_seq(h, stripe);
            const Manager::StripeVersionView v = auth.stripe_versions(h, stripe);
            *version = v.known ? v.latest : 0;
          };
          ccache_.flush_applied(h, *runs, tags);
        }
        done(r);
      },
      /*wb_flush=*/true);
}

void Client::cache_op_complete(OpState& op) {
  if (op.failed) return;
  const Handle h = op.file.meta.handle;
  Manager& auth = meta_.authority(h);
  if (op.is_write) {
    // Completion-time write notice: a read that raced this write and
    // snapshotted the submission seq can no longer insert (or validate)
    // its possibly pre-write bytes.
    std::map<u32, u64> done_seq;
    for (u32 s : op.stripes) done_seq[s] = auth.bump_data_seq(h, s);
    if (op.wb_flush) return;  // flush_applied re-tags the dirty entries
    const auto tags = [&](u32 stripe, u64* seq, u64* version) {
      const auto it = done_seq.find(stripe);
      *seq = it != done_seq.end() ? it->second : auth.data_seq(h, stripe);
      const Manager::StripeVersionView v = auth.stripe_versions(h, stripe);
      *version = v.known ? v.latest : 0;
    };
    ccache_.insert_clean(h, op.file.meta.stripe_size, op.file.meta.iod_count,
                         op.creq.file, gather(op.creq.mem), tags);
    return;
  }
  if (ccache_.write_back() && ccache_.has_dirty(h)) {
    // Read-your-writes: overlay the pending dirty bytes over what the wire
    // just delivered before the caller sees it.
    ccache_.overlay_dirty(
        h, op.creq.file, [&](u64 foff, std::span<const std::byte> b) {
          // Translate the file offset into the op's logical byte position,
          // then scatter into the memory segment list from there.
          u64 logical = 0;
          for (const Extent& e : op.creq.file) {
            if (foff >= e.offset && foff < e.end()) {
              logical += foff - e.offset;
              break;
            }
            logical += e.length;
          }
          u64 pos = logical;
          u64 src = 0;
          for (const core::MemSegment& m : op.creq.mem) {
            if (pos >= m.length) {
              pos -= m.length;
              continue;
            }
            const u64 n = std::min(m.length - pos, b.size() - src);
            std::memcpy(as_.data(m.addr + pos), b.data() + src, n);
            src += n;
            pos = 0;
            if (src == b.size()) break;
          }
        });
  }
  if (!op.cache_insertable) return;
  for (u32 s : op.stripes) {
    // A write submitted or completed during the flight: the bytes in user
    // memory may predate it. Skip the insert wholesale — a snapshot-tagged
    // entry would only be dropped at its first lookup anyway.
    if (auth.data_seq(h, s) != op.cache_seq[s]) return;
  }
  const auto tags = [&](u32 stripe, u64* seq, u64* version) {
    const auto it = op.cache_seq.find(stripe);
    *seq = it != op.cache_seq.end() ? it->second : 0;
    const auto vt = op.serve_ver.find(stripe);
    *version = vt != op.serve_ver.end() ? vt->second : 0;
  };
  ccache_.insert_clean(h, op.file.meta.stripe_size, op.file.meta.iod_count,
                       op.creq.file, gather(op.creq.mem), tags);
}

IoResult Client::flush(const OpenFile& file) {
  IoResult res{Status::ok(), 0, now_, now_};
  if (!ccache_.write_back() || !ccache_.has_dirty(file.meta.handle)) {
    return res;
  }
  bool done = false;
  start_flush(file.meta.handle, [&](IoResult r) {
    res = r;
    done = true;
  });
  engine_.run_until([&] { return done; });
  advance_to(res.end);
  return res;
}

IoResult Client::close(const OpenFile& file) {
  IoResult r = flush(file);
  if (ccache_.enabled()) ccache_.drop_file(file.meta.handle);
  return r;
}

// --- Round chains ---------------------------------------------------------

bool Client::faulty() const { return faults_->enabled(); }

u32 Client::current_target(const OpState& op, u32 iod_idx) const {
  const std::vector<u32>& set = op.replica_sets[iod_idx];
  return op.is_write ? set[0] : set[op.chains[iod_idx].replica];
}

std::vector<std::byte> Client::gather(const core::MemSegmentList& mem) const {
  std::vector<std::byte> out;
  out.reserve(core::total_bytes(mem));
  for (const core::MemSegment& m : mem) {
    const std::span<const std::byte> sp = as_.readable_span(m.addr, m.length);
    out.insert(out.end(), sp.begin(), sp.end());
  }
  return out;
}

TimePoint Client::send_request(Iod& iod, const Round& r, TimePoint t) {
  if (stats_ != nullptr) stats_->add(stat::kPvfsRequest);
  return fabric_.send_control(
      hca_, iod.hca(),
      cfg_.pvfs.request_msg_bytes +
          r.accesses.size() * cfg_.pvfs.list_pair_wire_bytes,
      t, ib::ControlKind::kRequest);
}

bool Client::eager(const OpState& op, const Round& r) const {
  const core::XferScheme s = op.opts.policy.scheme;
  return r.bytes <= cfg_.pvfs.fast_rdma_threshold &&
         (s == core::XferScheme::kHybrid ||
          s == core::XferScheme::kPackUnpack);
}

RoundRequest Client::round_request(const OpState& op, u32 iod_idx,
                                   size_t round_idx, u32 rep,
                                   const RoundTry& tr) const {
  RoundRequest rr;
  // A backup copy lives under the stripe's shadow handle and in its own
  // staging-slot region: the target iod also serves a neighbour stripe's
  // primary chain for this client, and the two must not share local files,
  // staging buffers, or the (client, slot) replay-dedupe log.
  rr.handle = rep == 0
                  ? op.file.meta.handle
                  : backup_handle(op.file.meta.handle, op.stripes[iod_idx]);
  rr.client = id_;
  rr.slot = rep * op.window + static_cast<u32>(round_idx % op.window);
  rr.round_seq = tr.seq;
  rr.version = tr.version;
  rr.epoch = tr.epoch;
  rr.is_write = op.is_write;
  rr.sync = op.opts.sync;
  rr.use_ads = op.opts.use_ads;
  rr.accesses = op.rounds[iod_idx][round_idx].accesses;
  return rr;
}

// --- Version plane --------------------------------------------------------

u32 Client::pick_read_replica(const OpState& op, u32 iod_idx) {
  const std::vector<u32>& set = op.replica_sets[iod_idx];
  if (set.size() <= 1) return 0;
  const Manager::StripeVersionView v =
      meta_.authority(op.file.meta.handle)
          .stripe_versions(op.file.meta.handle, op.stripes[iod_idx]);
  // Candidates the staleness map does not rule out. An unknown stripe (no
  // replicated write ever recorded) keeps everyone eligible.
  std::vector<u32> current;
  for (u32 j = 0; j < set.size(); ++j) {
    if (!v.known || j >= v.replica_versions.size() ||
        v.replica_versions[j] >= v.latest) {
      current.push_back(j);
    }
  }
  if (current.empty()) return 0;  // everyone trails: start at the primary
  u32 choice = current[0];
  if (cfg_.replication.read_bias && current.size() > 1) {
    // Slow-replica bias: among current replicas, prefer the lowest srtt
    // estimate. An unseeded estimator counts as zero (assume fast), which
    // keeps the primary preferred until evidence says otherwise.
    auto est = [&](u32 j) {
      const RttEstimate& e = rtt_[set[j]];
      return e.seeded ? e.srtt : Duration::zero();
    };
    for (u32 j : current) {
      if (est(j) < est(choice)) choice = j;
    }
  }
  if (choice != 0 && v.known && !v.replica_versions.empty() &&
      v.replica_versions[0] < v.latest) {
    // The primary would have served stale data; placement skipped it
    // without burning a failover.
    if (stats_ != nullptr) stats_->add(stat::kPvfsStaleReadsAvoided);
    sim::Trace::instance().emitf(
        engine_.now(), hca_.name(),
        "read placement: stripe %u primary iod%u stale (v%llu < v%llu), "
        "serving from iod%u",
        op.stripes[iod_idx], set[0],
        static_cast<unsigned long long>(v.replica_versions[0]),
        static_cast<unsigned long long>(v.latest), set[choice]);
  }
  return choice;
}

void Client::maybe_read_repair(std::shared_ptr<OpState> op, u32 iod_idx,
                               size_t round_idx, u64 serving_version,
                               TimePoint t) {
  const std::vector<u32>& set = op->replica_sets[iod_idx];
  if (set.size() == 1) return;  // unversioned: nothing to note or repair
  const u32 serving = op->chains[iod_idx].replica;
  const u32 stripe = op->stripes[iod_idx];
  // The serving replica demonstrably holds its header's version — a direct
  // observation of an applied header, trusted regardless of which manager
  // epoch minted it (note_epoch 0).
  Manager& authority = meta_.authority(op->file.meta.handle);
  authority.note_replica_version(op->file.meta.handle, stripe, set[serving],
                                 serving_version);
  if (ccache_.enabled()) {
    // Anything we cached below the observed serving version is provably
    // stale now; drop it eagerly instead of waiting for a hit-time check.
    ccache_.note_version(op->file.meta.handle, stripe, serving_version);
  }
  if (serving_version == 0 || !cfg_.replication.read_repair) return;
  const Manager::StripeVersionView v =
      authority.stripe_versions(op->file.meta.handle, stripe);
  for (u32 rep = 0; rep < set.size(); ++rep) {
    if (rep == serving) continue;
    const u64 held =
        rep < v.replica_versions.size() ? v.replica_versions[rep] : 0;
    if (held >= serving_version) continue;
    schedule_repair_write(op, iod_idx, round_idx, rep, serving_version, t);
  }
}

void Client::schedule_repair_write(std::shared_ptr<OpState> op, u32 iod_idx,
                                   size_t round_idx, u32 rep, u64 version,
                                   TimePoint t) {
  const Round& r = op->rounds[iod_idx][round_idx];
  const u32 target = op->replica_sets[iod_idx][rep];
  const Handle lh =
      rep == 0 ? op->file.meta.handle
               : backup_handle(op->file.meta.handle, op->stripes[iod_idx]);
  // Snapshot the just-read bytes now: the op's buffers belong to the
  // caller and may be rewritten the moment the read completes. The repair
  // stream is round-shaped (matches r.accesses in order).
  auto data = std::make_shared<std::vector<std::byte>>(gather(r.mem));
  // Analytical background transfer: pack copy, then the wire at the resync
  // rate cap. Serialized per target iod so repair traffic never bursts.
  const double bw =
      std::min(cfg_.replication.resync_bandwidth, cfg_.net.rdma_write_bw);
  const Duration xfer = cfg_.mem.copy_cost(r.bytes) +
                        cfg_.net.rdma_write_latency +
                        transfer_time(r.bytes, bw);
  TimePoint start = t;
  const auto it = repair_busy_until_.find(target);
  if (it != repair_busy_until_.end()) start = max(start, it->second);
  const TimePoint arrive = start + xfer;
  repair_busy_until_[target] = arrive;
  sim::Trace::instance().emitf(
      t, hca_.name(), "read-repair: round %zu -> iod%u (v%llu, %llu B)",
      round_idx + 1, target, static_cast<unsigned long long>(version),
      static_cast<unsigned long long>(r.bytes));
  engine_.schedule_at(arrive, [this, op, iod_idx, round_idx, target, lh,
                               version, data, arrive] {
    if (faults_->iod_down(target, arrive)) {
      // The stale replica is (still) down: drop the repair silently;
      // resync or a later read heals it.
      return;
    }
    iods_[target]->apply_repair(
        lh, op->rounds[iod_idx][round_idx].accesses,
        {data->data(), data->size()}, version, arrive);
    // Deliberately NOT noted with the manager: this repair covers one
    // round's byte range, while the version covers everything written up
    // to it — marking the replica current after a partial heal would
    // misroute future reads. Only write acks and resync mark current.
    if (stats_ != nullptr) stats_->add(stat::kPvfsReadRepairs);
  });
}

void Client::finish_read_round(std::shared_ptr<OpState> op, u32 iod_idx,
                               size_t round_idx, std::shared_ptr<RoundTry> tr,
                               u64 serving_version, TimePoint t) {
  if (op->cache_insertable) {
    // Tag the stripe with the *minimum* version any of its rounds served
    // (see OpState::serve_ver): a stale-replica round must yield an entry
    // the version check rejects.
    const auto [it, fresh] =
        op->serve_ver.emplace(op->stripes[iod_idx], serving_version);
    if (!fresh) it->second = std::min(it->second, serving_version);
  }
  if (!tr->settled) {
    if (lost_write_detected(op, iod_idx, round_idx, tr, serving_version, t)) {
      return;  // round re-issued against another replica
    }
    maybe_read_repair(op, iod_idx, round_idx, serving_version, t);
  }
  settle_round(op, iod_idx, round_idx, tr, t, Status::ok());
}

bool Client::lost_write_detected(std::shared_ptr<OpState> op, u32 iod_idx,
                                 size_t round_idx,
                                 std::shared_ptr<RoundTry> tr,
                                 u64 serving_version, TimePoint t) {
  // Only the fault plane loses acked writes; without it a header behind
  // the map is a write racing this read, not a loss.
  if (!faulty() || !can_fail_over(*op, iod_idx, *tr)) return false;
  const std::vector<u32>& set = op->replica_sets[iod_idx];
  const u32 serving = op->chains[iod_idx].replica;
  const u32 stripe = op->stripes[iod_idx];
  Manager& authority = meta_.authority(op->file.meta.handle);
  const Manager::StripeVersionView v =
      authority.stripe_versions(op->file.meta.handle, stripe);
  // The gate: only an ack the header disproves counts. A replica the map
  // records stale (crash before the write landed, resync off) legitimately
  // serves old data and must keep doing so, bit-for-bit as before.
  if (!v.known || serving >= v.replica_versions.size() ||
      v.replica_versions[serving] < v.latest || serving_version >= v.latest) {
    return false;
  }
  authority.note_replica_observed(op->file.meta.handle, stripe, set[serving],
                                  serving_version);
  fail_over_read(op, iod_idx, round_idx, tr, t,
                 {stat::kPvfsCorruptionsDetected,
                  stat::kPvfsCorruptReadsFailedOver, stat::kPvfsFailovers},
                 ": iod" + std::to_string(set[serving]) + " header v" +
                     std::to_string(serving_version) + " but acked v" +
                     std::to_string(v.replica_versions[serving]) +
                     " (LOST WRITE), failing over to");
  return true;
}

// --- Adaptive round timeouts ---------------------------------------------

void Client::note_rtt(u32 iod_id, const RoundTry& tr, TimePoint t) {
  // A completion from an older attempt can predate the newest issue; it
  // says nothing about the current one.
  if (!faulty() || !faults_->config().adaptive_timeout || t < tr.last_issue) {
    return;
  }
  const Duration sample = t - tr.last_issue;
  RttEstimate& e = rtt_[iod_id];
  if (!e.seeded) {
    // RFC-6298-style seeding: srtt = S, rttvar = S/2.
    e.seeded = true;
    e.srtt = sample;
    e.rttvar = sample / 2;
    return;
  }
  // Jacobson/Karels: alpha = 1/8, beta = 1/4.
  const Duration err = sample > e.srtt ? sample - e.srtt : e.srtt - sample;
  e.rttvar = e.rttvar - e.rttvar / 4 + err / 4;
  e.srtt = e.srtt - e.srtt / 8 + sample / 8;
}

Duration Client::iod_timeout(u32 iod_id) const {
  const FaultConfig& fc = faults_->config();
  const RttEstimate& e = rtt_[iod_id];
  if (!e.seeded) return fc.round_timeout;
  Duration t = e.srtt + e.rttvar * fc.timeout_var_mult;
  t = max(t, fc.timeout_min);
  return min(t, fc.timeout_max);
}

Duration Client::round_timeout_for(const OpState& op, u32 iod_idx) const {
  const FaultConfig& fc = faults_->config();
  if (!fc.adaptive_timeout) return fc.round_timeout;
  if (!op.is_write) return iod_timeout(current_target(op, iod_idx));
  // A write settles on a quorum of its chain; the slowest estimate bounds
  // how long the fan-out may legitimately take.
  Duration t = Duration::zero();
  for (u32 iod_id : op.replica_sets[iod_idx]) {
    t = max(t, iod_timeout(iod_id));
  }
  return t;
}

void Client::issue_round(std::shared_ptr<OpState> op, u32 iod_idx,
                         TimePoint t) {
  OpState::Chain& ch = op->chains[iod_idx];
  assert(ch.next_issue < op->rounds[iod_idx].size());
  assert(ch.inflight < op->window);
  assert(ch.next_issue < ch.floor + op->window);
  const size_t round_idx = ch.next_issue++;
  ++ch.inflight;
  if (op->window > 1 && stats_ != nullptr) {
    stats_->set_max(stat::kPvfsRoundsInflightMax, ch.inflight);
  }
  auto tr = std::make_shared<RoundTry>();
  tr->first_issue = t;
  stamp_round(*op, iod_idx, *tr);
  if (op->is_write) {
    run_write_round(op, iod_idx, round_idx, t, std::move(tr));
  } else {
    run_read_round(op, iod_idx, round_idx, t, std::move(tr));
  }
}

void Client::stamp_round(const OpState& op, u32 iod_idx, RoundTry& tr) {
  const size_t nrep = op.replica_sets[iod_idx].size();
  if (op.is_write && nrep > 1) {
    // Mint this round's per-stripe version (free piggyback on the metadata
    // plane). Replays reuse it — a round is one version — and carry the
    // minting manager's epoch so iods can fence the mint if a takeover
    // supersedes it mid-flight. A chain of length 1 stays unversioned.
    Manager& authority = meta_.authority(op.file.meta.handle);
    tr.version = authority.allocate_stripe_version(op.file.meta.handle,
                                                   op.stripes[iod_idx]);
    tr.epoch = authority.epoch();
  }
  tr.seq = next_round_seq_++;
  tr.acked.assign(nrep, false);
  tr.data_landed.assign(nrep, false);
  tr.acks = 0;
  tr.have_first_ack = false;
}

void Client::wire_cleared(std::shared_ptr<OpState> op, u32 iod_idx,
                          TimePoint t) {
  OpState::Chain& ch = op->chains[iod_idx];
  if (op->failed || ch.next_issue >= op->rounds[iod_idx].size()) return;
  if (ch.inflight >= op->window || ch.next_issue >= ch.floor + op->window) {
    // Window full (or the next slot's previous occupant has not settled):
    // remember the stall; round_done() issues on the next reply and
    // charges the blocked time to IoPhases::stall.
    if (!ch.stalled) {
      ch.stalled = true;
      ch.blocked_since = t;
    }
    return;
  }
  issue_round(op, iod_idx, t);
}

void Client::round_done(std::shared_ptr<OpState> op, u32 iod_idx,
                        size_t round_idx, TimePoint t, Status status) {
  OpState::Chain& ch = op->chains[iod_idx];
  assert(ch.inflight > 0);
  --ch.inflight;
  assert(round_idx < ch.settled_rounds.size());
  ch.settled_rounds[round_idx] = true;
  while (ch.floor < ch.settled_rounds.size() && ch.settled_rounds[ch.floor]) {
    ++ch.floor;
  }
  if (!status.is_ok() && !op->failed) {
    op->failed = true;
    op->status = status;
  }
  const bool more = !op->failed && ch.next_issue < op->rounds[iod_idx].size();
  // At window 1 replies are the only issuance trigger (classic lockstep
  // PVFS). At wider windows issuance normally rides the wire-cleared
  // trigger; a reply only issues when that trigger already fired into a
  // full window (the chain is stalled). Under an active fault plane
  // rounds settle out of order, so a settle is also allowed to issue
  // directly — the wire-cleared trigger for the freed slot may be long
  // gone.
  if (more && ch.inflight < op->window &&
      ch.next_issue < ch.floor + op->window &&
      (op->window == 1 || ch.stalled || faulty())) {
    if (ch.stalled) {
      ch.stalled = false;
      op->phases.stall += t - ch.blocked_since;
      if (stats_ != nullptr) stats_->add(stat::kPvfsPipelineStalls);
    }
    issue_round(op, iod_idx, t);
  }
  if (ch.inflight > 0 ||
      (!op->failed && ch.next_issue < op->rounds[iod_idx].size())) {
    return;  // chain still running
  }
  op->max_end = max(op->max_end, t);
  if (--op->pending == 0) {
    if (!op->prereg.keys.empty()) registrar_.release(op->prereg);
    if (op->is_write && !op->failed) {
      meta_.authority(op->file.meta.handle)
          .note_written(op->file.meta.handle, op->logical_end);
    }
    if (ccache_.enabled()) cache_op_complete(*op);
    const IoResult result{op->status, op->failed ? 0 : op->total_bytes,
                          op->start,  op->max_end,
                          op->phases, op->retries, op->failovers};
    sim::Trace::instance().emitf(
        result.end, hca_.name(), "%s op complete: %llu B in %s",
        op->is_write ? "write" : "read",
        static_cast<unsigned long long>(result.bytes),
        result.elapsed().to_string().c_str());
    op->done(result);
  }
}

// --- Recovery -------------------------------------------------------------

void Client::begin_attempt(std::shared_ptr<OpState> op, u32 iod_idx,
                           size_t round_idx, std::shared_ptr<RoundTry> tr,
                           TimePoint t) {
  tr->last_issue = t;
  if (!faulty()) return;  // nothing fails transiently: no timeout to arm
  const TimePoint deadline = t + round_timeout_for(*op, iod_idx);
  tr->timer_armed = true;
  tr->timer_id =
      engine_.schedule_at(deadline, [this, op, iod_idx, round_idx, tr] {
        tr->timer_armed = false;
        if (tr->settled) return;
        if (stats_ != nullptr) stats_->add(stat::kPvfsTimeouts);
        sim::Trace::instance().emitf(
            engine_.now(), hca_.name(),
            "iod%u round %zu attempt %u timed out",
            current_target(*op, iod_idx), round_idx + 1, tr->attempts);
        retry_or_fail(op, iod_idx, round_idx, tr, engine_.now(),
                      unavailable("round timed out waiting for reply"));
      });
}

void Client::disarm_timer(RoundTry& tr) {
  if (!tr.timer_armed) return;
  engine_.cancel(tr.timer_id);
  tr.timer_armed = false;
}

void Client::settle_round(std::shared_ptr<OpState> op, u32 iod_idx,
                          size_t round_idx, std::shared_ptr<RoundTry> tr,
                          TimePoint t, Status status) {
  if (tr->settled) return;  // a concurrent attempt already settled it
  tr->settled = true;
  disarm_timer(*tr);
  op->retries += tr->attempts - 1;
  op->failovers += tr->failovers;
  faults_->note_round_latency(t - tr->first_issue);
  // Writes feed the estimator per replica ack instead (write_replica_done).
  if (status.is_ok() && !op->is_write) {
    note_rtt(current_target(*op, iod_idx), *tr, t);
  }
  round_done(op, iod_idx, round_idx, t, std::move(status));
}

bool Client::can_fail_over(const OpState& op, u32 iod_idx,
                           const RoundTry& tr) const {
  return !op.is_write && tr.failovers + 1 < op.replica_sets[iod_idx].size();
}

void Client::fail_over_read(std::shared_ptr<OpState> op, u32 iod_idx,
                            size_t round_idx, std::shared_ptr<RoundTry> tr,
                            TimePoint t,
                            std::initializer_list<std::string_view> stat_keys,
                            const std::string& why) {
  // The caller may still own the attempt's armed timer; the re-issue arms
  // a fresh one, so the old one goes first.
  disarm_timer(*tr);
  const std::vector<u32>& set = op->replica_sets[iod_idx];
  const u32 nrep = static_cast<u32>(set.size());
  OpState::Chain& ch = op->chains[iod_idx];
  u32 next = (ch.replica + 1) % nrep;
  for (u32 i = 1; i <= nrep; ++i) {
    const u32 cand = (ch.replica + i) % nrep;
    if (cand != ch.replica && !faults_->iod_down(set[cand], t)) {
      next = cand;
      break;
    }
  }
  if (stats_ != nullptr) {
    for (std::string_view key : stat_keys) stats_->add(key);
  }
  sim::Trace::instance().emitf(t, hca_.name(), "read round %zu%s iod%u",
                               round_idx + 1, why.c_str(), set[next]);
  ch.replica = next;
  ++tr->failovers;
  tr->budget_base = tr->attempts;
  ++tr->attempts;
  run_read_round(op, iod_idx, round_idx, t, tr);
}

void Client::retry_or_fail(std::shared_ptr<OpState> op, u32 iod_idx,
                           size_t round_idx, std::shared_ptr<RoundTry> tr,
                           TimePoint t, Status why) {
  if (tr->settled) return;
  disarm_timer(*tr);
  const std::vector<u32>& set = op->replica_sets[iod_idx];
  const u32 from_iod = set[op->chains[iod_idx].replica];
  if (why.code() == ErrorCode::kCorrupt && !op->is_write) {
    // The serving replica's bytes failed checksum verification. Retrying
    // the same copy is pointless (the bytes are what they are): flag it
    // with the staleness map — it becomes a resync target and placement
    // stops routing to it — and fail the chain over to another replica.
    meta_.authority(op->file.meta.handle)
        .note_replica_corrupt(op->file.meta.handle, op->stripes[iod_idx],
                              from_iod);
    if (can_fail_over(*op, iod_idx, *tr)) {
      fail_over_read(
          op, iod_idx, round_idx, tr, t,
          {stat::kPvfsCorruptReadsFailedOver, stat::kPvfsFailovers},
          ": iod" + std::to_string(from_iod) + " corrupt, failing over to");
      return;
    }
    // No replica left to serve intact bytes: terminal.
    settle_round(op, iod_idx, round_idx, tr, t, std::move(why));
    return;
  }
  // Transient errors are only minted by the fault plane; without it any
  // failure is a real (terminal) one.
  const bool retryable = faulty() &&
                         (why.code() == ErrorCode::kUnavailable ||
                          why.code() == ErrorCode::kResourceExhausted);
  if (!retryable) {
    settle_round(op, iod_idx, round_idx, tr, t, std::move(why));
    return;
  }
  const FaultConfig& fc = faults_->config();
  // The budget counts attempts since the last failover: a fresh replica
  // deserves a fresh budget.
  if (tr->attempts - 1 - tr->budget_base >= fc.max_retries) {
    if (can_fail_over(*op, iod_idx, *tr)) {
      // Read failover: the serving replica exhausted its budget; re-route
      // this round — and the chain's remaining rounds — to the next live
      // replica, which is presumed healthy and tried immediately.
      fail_over_read(op, iod_idx, round_idx, tr, t,
                     {stat::kPvfsFailovers, stat::kPvfsRetries},
                     " failing over iod" + std::to_string(from_iod) + " ->");
      return;
    }
    if (!op->is_write && set.size() > 1) {
      // Failover ran out of replicas: every member of the chain burned a
      // full retry budget. Distinct terminal status so callers can tell
      // "the whole chain is gone" from a single overloaded server.
      settle_round(op, iod_idx, round_idx, tr, t,
                   all_replicas_failed(
                       "read exhausted all " + std::to_string(set.size()) +
                       " replicas (" + std::to_string(tr->attempts - 1) +
                       " attempts, " + std::to_string(tr->failovers) +
                       " failovers): " + why.message()));
      return;
    }
    settle_round(op, iod_idx, round_idx, tr, t,
                 unavailable("round failed after " +
                             std::to_string(tr->attempts - 1) +
                             " retries: " + why.message()));
    return;
  }
  if (stats_ != nullptr) stats_->add(stat::kPvfsRetries);
  // Exponential backoff, capped: base * mult^(retry - 1), the exponent
  // restarting with the budget at each failover.
  Duration backoff = fc.backoff_base;
  for (u32 i = 1; i < tr->attempts - tr->budget_base && backoff < fc.backoff_cap;
       ++i) {
    backoff = backoff * fc.backoff_mult;
  }
  backoff = min(backoff, fc.backoff_cap);
  ++tr->attempts;
  sim::Trace::instance().emitf(
      t, hca_.name(), "iod%u round %zu retry %u in %s (%s)",
      current_target(*op, iod_idx), round_idx + 1, tr->attempts - 1,
      backoff.to_string().c_str(), why.message().c_str());
  engine_.schedule_at(t + backoff, [this, op, iod_idx, round_idx, tr] {
    if (tr->settled) return;
    if (op->is_write) {
      run_write_round(op, iod_idx, round_idx, engine_.now(), tr);
    } else {
      run_read_round(op, iod_idx, round_idx, engine_.now(), tr);
    }
  });
}

// --- Write rounds --------------------------------------------------------

void Client::run_write_round(std::shared_ptr<OpState> op, u32 iod_idx,
                             size_t round_idx, TimePoint t0,
                             std::shared_ptr<RoundTry> tr) {
  begin_attempt(op, iod_idx, round_idx, tr, t0);
  t0 += cfg_.pvfs.client_request_cpu;
  const u32 nrep = static_cast<u32>(op->replica_sets[iod_idx].size());
  for (u32 rep = 0; rep < nrep; ++rep) {
    // Replays only re-fan to replicas that never acked; the acked ones
    // already hold (and applied) the data.
    if (tr->acked[rep]) continue;
    run_write_replica(op, iod_idx, round_idx, rep, t0, tr);
  }
}

void Client::write_replica_done(std::shared_ptr<OpState> op, u32 iod_idx,
                                size_t round_idx, u32 rep,
                                std::shared_ptr<RoundTry> tr, TimePoint t,
                                u64 ack_version, u64 attempt_seq,
                                bool epoch_rejected) {
  // An ack from an attempt a re-mint has since superseded (its seq is not
  // the round's current one) proves nothing about the current mint's fate.
  if (attempt_seq != tr->seq) return;
  if (epoch_rejected) {
    if (tr->settled) return;  // quorum settled before the fence was seen
    // The iod landed the bytes but fenced the version out of the header: a
    // takeover superseded the minting manager mid-flight. The round cannot
    // make progress under the dead mint, so re-mint version+epoch from the
    // current authority and replay everywhere under a *fresh* seq: the old
    // seq sits in the iods' dedupe logs and a same-seq replay would be
    // acked without re-running the disk phase — the header would never
    // move. A fresh seq also means the staged-payload shortcut no longer
    // applies (the replay carries data again), so data_landed resets too.
    disarm_timer(*tr);
    stamp_round(*op, iod_idx, *tr);
    ++tr->attempts;
    if (stats_ != nullptr) {
      stats_->add(stat::kPvfsVersionRemints);
      stats_->add(stat::kPvfsRetries);
    }
    sim::Trace::instance().emitf(
        t, hca_.name(),
        "write round %zu: mint fenced by epoch, re-minting v%llu "
        "(epoch %llu) and replaying",
        round_idx + 1, static_cast<unsigned long long>(tr->version),
        static_cast<unsigned long long>(tr->epoch));
    run_write_round(op, iod_idx, round_idx, t, tr);
    return;
  }
  if (tr->acked[rep]) return;  // duplicate ack of one replica
  tr->acked[rep] = true;
  // Record the ack with the staleness map even when the quorum already
  // settled the round: a slow-but-alive replica that acks late is current,
  // not stale, and must stay eligible for read placement. The note carries
  // the round's mint epoch; the manager fences notes whose epoch a
  // takeover has since superseded. Unversioned rounds (a chain of length
  // 1) have nothing to record.
  const u64 version = ack_version != 0 ? ack_version : tr->version;
  if (version != 0) {
    meta_.authority(op->file.meta.handle)
        .note_replica_version(op->file.meta.handle, op->stripes[iod_idx],
                              op->replica_sets[iod_idx][rep], version,
                              tr->epoch);
    if (ccache_.enabled()) {
      ccache_.note_version(op->file.meta.handle, op->stripes[iod_idx],
                           version);
    }
  }
  if (tr->settled) return;  // late ack after quorum settle
  ++tr->acks;
  if (!tr->have_first_ack) {
    tr->have_first_ack = true;
    tr->first_ack = t;
  }
  note_rtt(op->replica_sets[iod_idx][rep], *tr, t);
  if (tr->acks < op->quorum) return;  // timer stays armed for the rest
  if (stats_ != nullptr && op->quorum > 1 && t > tr->first_ack) {
    stats_->add(stat::kPvfsQuorumWaits);
  }
  settle_round(op, iod_idx, round_idx, tr, t, Status::ok());
}

void Client::run_write_replica(std::shared_ptr<OpState> op, u32 iod_idx,
                               size_t round_idx, u32 rep, TimePoint t0,
                               std::shared_ptr<RoundTry> tr) {
  const Round& r = op->rounds[iod_idx][round_idx];
  const u32 iod_id = op->replica_sets[iod_idx][rep];
  Iod& iod = *iods_[iod_id];

  RoundRequest rr = round_request(*op, iod_idx, round_idx, rep, *tr);
  // Partial-round restart: an earlier attempt's payload already landed in
  // this replica's staging slot (and was applied — data arrival and the
  // disk phase are atomic at the iod), so the replay carries no data
  // phase; the iod dedupes it by round_seq and just acks.
  const bool staged = tr->data_landed[rep];
  rr.data_staged = staged;

  if (stats_ != nullptr && rep > 0) stats_->add(stat::kPvfsReplicaWrites);
  const TimePoint t_req = send_request(iod, r, t0);
  // Fault plane: the request may vanish (random drop, scheduled drop, or
  // a crashed iod). The wire time was spent; nothing downstream happens
  // and the round timer drives the replay.
  const bool req_lost = faults_->request_lost(iod_id, t_req);
  TimePoint data_ready = t_req;
  std::optional<core::TransferOutcome> push;
  TimePoint push_start = t0;
  if (staged) {
    if (stats_ != nullptr) stats_->add(stat::kPvfsPartialRestarts);
    sim::Trace::instance().emitf(
        t0, hca_.name(),
        "-> iod%u write round %zu replay, payload staged (wire skipped)",
        iod_id, round_idx + 1);
  } else {
    const bool fast = eager(*op, r);
    sim::Trace::instance().emitf(
        t0, hca_.name(), "-> iod%u write round %zu/%zu: %zu pairs, %llu B (%s)",
        iod_id, round_idx + 1, op->rounds[iod_idx].size(),
        r.accesses.size(), static_cast<unsigned long long>(r.bytes),
        fast ? "fast-rdma eager" : "rendezvous");
    if (fast) {
      // Fast RDMA: pack into the pre-registered bounce buffer and write it
      // into the iod's staging buffer alongside the request (paid for even
      // when the request is lost).
      core::TransferPolicy p = op->opts.policy;
      p.scheme = core::XferScheme::kPackUnpack;
      p.pack_preregistered = true;
      push = xfer_.push(ep_, r.mem, iod.staging(id_, rr.slot), t0, p);
      data_ready = max(push->complete, t_req);
    } else if (!req_lost) {
      // Rendezvous: the iod acknowledges buffer availability, then the
      // client pushes with the configured scheme. A lost request never
      // gets that ack.
      push_start = fabric_.send_control(
          iod.hca(), hca_, cfg_.pvfs.reply_msg_bytes,
          t_req + cfg_.pvfs.iod_request_cpu, ib::ControlKind::kReply);
      push = xfer_.push(ep_, r.mem, iod.staging(id_, rr.slot), push_start,
                        op->opts.policy);
      data_ready = push->complete;
    }
  }
  if (push.has_value() && !push->ok() && !req_lost) {
    retry_or_fail(op, iod_idx, round_idx, tr, data_ready, push->status);
    return;
  }
  if (push.has_value() && push->ok()) {
    op->phases.registration += push->reg_cost;
    op->phases.wire += (push->complete - push_start) - push->reg_cost;
  }
  if (req_lost) {
    sim::Trace::instance().emitf(t_req, hca_.name(),
                                 "-> iod%u round %zu request lost", iod_id,
                                 round_idx + 1);
    return;
  }

  // Server disk phase begins when the data has landed.
  engine_.schedule_at(data_ready, [this, op, iod_idx, round_idx, rep, tr,
                                   rr = std::move(rr), &iod, iod_id,
                                   data_ready] {
    if (faults_->iod_down(iod_id, data_ready)) {
      // The iod crashed between accepting the request and the data
      // landing: the round dies on the server floor; the timer replays it.
      if (stats_ != nullptr) stats_->add(stat::kFaultIodDownDrop);
      sim::Trace::instance().emitf(data_ready, hca_.name(),
                                   "iod%u down, round %zu data dropped",
                                   iod_id, round_idx + 1);
      return;
    }
    tr->data_landed[rep] = true;
    Duration disk_cost = Duration::zero();
    u64 ack_version = 0;
    bool epoch_rejected = false;
    const TimePoint t_disk =
        iod.write_round(rr, data_ready + cfg_.pvfs.iod_request_cpu,
                        &disk_cost, &ack_version, &epoch_rejected);
    op->phases.disk += disk_cost;
    if (stats_ != nullptr) stats_->add(stat::kPvfsReply);
    const u64 attempt_seq = rr.round_seq;
    auto send_reply = [this, op, iod_idx, round_idx, rep, tr, &iod, iod_id,
                       t_disk, ack_version, attempt_seq, epoch_rejected] {
      const TimePoint t_reply =
          fabric_.send_control(iod.hca(), hca_, cfg_.pvfs.reply_msg_bytes,
                               t_disk, ib::ControlKind::kReply);
      if (faults_->reply_lost(iod_id, t_disk)) {
        // The write applied but its ack vanished; the replay is recognised
        // by round_seq at the iod and acked without re-running the disk.
        // The version note rides the ack, so it is lost with it.
        sim::Trace::instance().emitf(t_disk, hca_.name(),
                                     "iod%u round %zu reply lost", iod_id,
                                     round_idx + 1);
        return;
      }
      engine_.schedule_at(t_reply, [this, op, iod_idx, round_idx, rep, tr,
                                    t_reply, ack_version, attempt_seq,
                                    epoch_rejected] {
        write_replica_done(op, iod_idx, round_idx, rep, tr, t_reply,
                           ack_version, attempt_seq, epoch_rejected);
      });
    };
    if (op->replica_sets[iod_idx].size() > 1) {
      // NIC occupancy is booked in call order, so a replica fan whose disk
      // phases diverge (one copy on a degraded disk) must issue its reply
      // sends in nondecreasing virtual time or the slow copy's in-flight
      // ack time leaks into the fast copy's. Factor-1 chains keep the
      // inline call: one reply per round, issue order already matches.
      engine_.schedule_at(t_disk, send_reply);
    } else {
      send_reply();
    }
  });
  // With the data phase off the wire, the client NIC is free: a wider
  // window may put the next round's request on the wire while this round's
  // disk phase and reply are still pending. The primary's data phase
  // stands in for the whole fan (backup pushes start in lockstep).
  if (op->window > 1 && rep == 0 && !staged) {
    engine_.schedule_at(data_ready, [this, op, iod_idx, data_ready] {
      wire_cleared(op, iod_idx, data_ready);
    });
  }
}

// --- Read rounds -----------------------------------------------------

void Client::run_read_round(std::shared_ptr<OpState> op, u32 iod_idx,
                            size_t round_idx, TimePoint t0,
                            std::shared_ptr<RoundTry> tr) {
  begin_attempt(op, iod_idx, round_idx, tr, t0);
  t0 += cfg_.pvfs.client_request_cpu;
  const Round& r = op->rounds[iod_idx][round_idx];
  // Reads are served by whichever replica the chain currently points at
  // (the primary until a failover moves it).
  const u32 iod_id = current_target(*op, iod_idx);
  Iod& iod = *iods_[iod_id];
  RoundRequest rr =
      round_request(*op, iod_idx, round_idx, op->chains[iod_idx].replica, *tr);

  const auto& pol = op->opts.policy;
  const bool fast = eager(*op, r);
  const bool direct =
      !fast && op->opts.direct_read_return && r.mem.size() == 1 &&
      (pol.scheme == core::XferScheme::kHybrid ||
       pol.scheme == core::XferScheme::kRdmaGatherScatter);
  const ReadReturn path = fast ? ReadReturn::kFastBounce
                          : direct ? ReadReturn::kDirectGather
                                   : ReadReturn::kClientPull;

  TimePoint t_client = t0;
  u64 dest = 0;
  u32 rkey = 0;
  u32 release_key = 0;
  if (fast) {
    dest = ep_.bounce_addr;
    rkey = ep_.bounce_key;
  } else if (direct) {
    // Pin the single destination buffer and ship its rkey in the request.
    ib::MrCache::Lookup lk = cache_.acquire(r.mem[0].addr, r.mem[0].length);
    if (!lk.ok()) {
      retry_or_fail(op, iod_idx, round_idx, tr, t_client, lk.status);
      return;
    }
    t_client += lk.cost;
    op->phases.registration += lk.cost;
    dest = r.mem[0].addr;
    rkey = lk.key;
    release_key = lk.key;
  }

  const TimePoint t_req = send_request(iod, r, t_client);
  if (faults_->request_lost(iod_id, t_req)) {
    // The iod never sees the read round; the timer drives the replay,
    // which pins its own destination key.
    if (release_key != 0) cache_.release(release_key);
    sim::Trace::instance().emitf(t_req, hca_.name(),
                                 "-> iod%u round %zu request lost", iod_id,
                                 round_idx + 1);
    return;
  }

  engine_.schedule_at(t_req, [this, op, iod_idx, round_idx, tr,
                              rr = std::move(rr), &iod, iod_id, t_req, path,
                              dest, rkey, release_key,
                              r = &op->rounds[iod_idx][round_idx]] {
    const TimePoint t_svc = t_req + cfg_.pvfs.iod_request_cpu;
    Iod::ReadService svc = iod.read_round(rr, t_svc, path, &hca_, dest, rkey);
    if (stats_ != nullptr) stats_->add(stat::kPvfsReply);
    if (!svc.ok()) {
      if (release_key != 0) cache_.release(release_key);
      retry_or_fail(op, iod_idx, round_idx, tr, svc.ready, svc.status);
      return;
    }
    if (faults_->reply_lost(iod_id, svc.ready)) {
      // The return leg (data push completion or ready ack) vanished;
      // reads are naturally idempotent, so the replay just re-reads.
      if (release_key != 0) cache_.release(release_key);
      sim::Trace::instance().emitf(svc.ready, hca_.name(),
                                   "iod%u round %zu reply lost", iod_id,
                                   round_idx + 1);
      return;
    }
    op->phases.disk += svc.disk_cost;
    switch (path) {
      case ReadReturn::kFastBounce: {
        // Unpack the bounce buffer into the user's list buffers.
        u64 off = 0;
        for (const core::MemSegment& m : r->mem) {
          std::memcpy(as_.data(m.addr), as_.data(ep_.bounce_addr + off),
                      m.length);
          off += m.length;
        }
        op->phases.wire +=
            (svc.ready - t_svc) - svc.disk_cost + cfg_.mem.copy_cost(off);
        const TimePoint t_done = svc.ready + cfg_.mem.copy_cost(off);
        engine_.schedule_at(t_done, [this, op, iod_idx, round_idx, tr,
                                     t_done, ver = svc.version] {
          finish_read_round(op, iod_idx, round_idx, tr, ver, t_done);
        });
        break;
      }
      case ReadReturn::kDirectGather: {
        op->phases.wire += (svc.ready - t_svc) - svc.disk_cost;
        engine_.schedule_at(svc.ready, [this, op, iod_idx, round_idx, tr,
                                        release_key, t = svc.ready,
                                        ver = svc.version] {
          if (release_key != 0) cache_.release(release_key);
          finish_read_round(op, iod_idx, round_idx, tr, ver, t);
        });
        break;
      }
      case ReadReturn::kClientPull: {
        // The iod tells the client the staging buffer is ready; the client
        // pulls with its configured scheme.
        const TimePoint ack = fabric_.send_control(
            iod.hca(), hca_, cfg_.pvfs.reply_msg_bytes, svc.ready,
            ib::ControlKind::kReply);
        engine_.schedule_at(ack, [this, op, iod_idx, round_idx, tr, &iod,
                                  ack, r, slot = rr.slot,
                                  ver = svc.version] {
          core::TransferOutcome pull =
              xfer_.pull(ep_, r->mem, iod.staging(id_, slot), ack,
                         op->opts.policy);
          if (pull.ok()) {
            op->phases.registration += pull.reg_cost;
            op->phases.wire += (pull.complete - ack) - pull.reg_cost;
          }
          const TimePoint t_done = pull.complete;
          engine_.schedule_at(t_done, [this, op, iod_idx, round_idx, tr,
                                       t_done, st = pull.status, ver] {
            if (st.is_ok()) {
              finish_read_round(op, iod_idx, round_idx, tr, ver, t_done);
            } else {
              retry_or_fail(op, iod_idx, round_idx, tr, t_done, st);
            }
          });
        });
        break;
      }
    }
  });
  // The request is on the wire; a wider window may issue the next round's
  // request right behind it while this round is still being serviced.
  if (op->window > 1) {
    engine_.schedule_at(t_req, [this, op, iod_idx, t_req] {
      wire_cleared(op, iod_idx, t_req);
    });
  }
}

// --- IoHandle --------------------------------------------------------

bool IoHandle::poll() const { return state_ != nullptr && state_->done; }

const IoResult& IoHandle::result() const {
  assert(poll());
  return state_->result;
}

IoResult IoHandle::wait() {
  assert(valid());
  if (!state_->done) {
    auto st = state_;
    client_->engine_.run_until([st] { return st->done; });
  }
  if (!state_->done) {
    // The event queue drained without the completion firing — a protocol
    // bug; surface it instead of returning a default-OK result.
    IoResult stalled;
    stalled.status = internal_error("operation stalled: event queue drained");
    stalled.start = state_->start;
    stalled.end = client_->engine_.now();
    state_->complete(std::move(stalled));
    return state_->result;
  }
  client_->advance_to(state_->result.end);
  return state_->result;
}

IoHandle& IoHandle::on_complete(IoCallback cb) {
  assert(valid());
  if (state_->done) {
    cb(state_->result);
  } else {
    state_->callbacks.push_back(std::move(cb));
  }
  return *this;
}

// --- Public entry points ---------------------------------------------

IoHandle Client::submit(const IoDesc& desc) {
  auto st = std::make_shared<IoHandle::State>();
  st->start = max(desc.start, engine_.now());
  IoOptions opts = desc.opts;
  if (!opts.policy_explicit && default_policy_.has_value()) {
    opts.policy = *default_policy_;
  }
  start_op(desc.file, desc.req, opts, desc.start,
           desc.dir == IoDir::kWrite,
           [st](IoResult r) { st->complete(std::move(r)); });
  return IoHandle(this, std::move(st));
}

IoResult Client::write_list(const OpenFile& file,
                            const core::ListIoRequest& req,
                            const IoOptions& opts) {
  return submit({IoDir::kWrite, file, req, opts, now_}).wait();
}

IoResult Client::read_list(const OpenFile& file,
                           const core::ListIoRequest& req,
                           const IoOptions& opts) {
  return submit({IoDir::kRead, file, req, opts, now_}).wait();
}

IoResult Client::write(const OpenFile& file, u64 file_offset, u64 addr,
                       u64 length, const IoOptions& opts) {
  return write_list(
      file, {.mem = {{addr, length}}, .file = {{file_offset, length}}}, opts);
}

IoResult Client::read(const OpenFile& file, u64 file_offset, u64 addr,
                      u64 length, const IoOptions& opts) {
  return read_list(
      file, {.mem = {{addr, length}}, .file = {{file_offset, length}}}, opts);
}

}  // namespace pvfsib::pvfs

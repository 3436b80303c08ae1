#include "pvfs/iod.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "fault/injector.h"
#include "pvfs/manager.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace pvfsib::pvfs {

namespace {
std::string iod_name(u32 id) { return "iod" + std::to_string(id); }
}  // namespace

Iod::Iod(u32 id, u32 client_count, const ModelConfig& cfg, ib::Fabric& fabric,
         Stats* stats, fault::Injector* faults)
    : id_(id),
      cfg_(cfg),
      fabric_(fabric),
      stats_(stats),
      faults_(fault::Injector::or_disabled(faults)),
      hca_(iod_name(id), as_, cfg.reg, stats),
      fs_(iod_name(id), cfg.disk, cfg.fs, stats),
      disk_queue_(iod_name(id) + ".disk"),
      ads_(cfg.disk, cfg.fs, cfg.mem,
           core::AdsConfig{cfg.pvfs.staging_buffer, true, false}, stats) {
  // One buffer per in-flight round per client; replica chains bring their
  // own slot region (see RoundRequest::slot), so the pool scales with the
  // replication factor. At factor 1 this is exactly the classic pool.
  slots_per_client_ = std::max<u32>(1, cfg.pipeline_depth) *
                      std::max<u32>(1, cfg.replication.factor);
  staging_.resize(static_cast<size_t>(client_count) * slots_per_client_);
  for (core::StagingBuffer& sb : staging_) {
    sb.hca = &hca_;
    sb.size = cfg.pvfs.staging_buffer;
    sb.addr = as_.alloc(sb.size);
    ib::RegAttempt reg = hca_.register_memory(sb.addr, sb.size);
    assert(reg.ok());
    sb.rkey = reg.key;
  }
  sieve_addr_ = as_.alloc(cfg.pvfs.staging_buffer);
  ib::RegAttempt reg = hca_.register_memory(sieve_addr_, cfg.pvfs.staging_buffer);
  assert(reg.ok());
  sieve_key_ = reg.key;
}

disk::LocalFile& Iod::file(Handle h) {
  auto it = files_.find(h);
  if (it == files_.end()) {
    Result<u32> fd = fs_.create("/pvfs/h" + std::to_string(h));
    assert(fd.is_ok());
    it = files_.emplace(h, fd.value()).first;
  }
  return fs_.file(it->second);
}

Duration Iod::remove_file(Handle h) {
  auto it = files_.find(h);
  if (it == files_.end()) return Duration::zero();
  const Duration cost = fs_.file(it->second).purge();
  files_.erase(it);
  // Drop the stripe header with the data: a header outliving its file
  // would resurrect the deleted stripe in a later takeover's header scan
  // (and leak versions into a recreated file reusing the local key). The
  // block checksums go the same way — stale stamps on a recreated file
  // would read as instant corruption.
  stripe_version_.erase(h);
  block_sums_.erase(h);
  return cost;
}

Duration Iod::disk_scaled(Duration cost, TimePoint at) const {
  return cost * faults_->disk_factor(id_, at);
}

bool Iod::already_applied(u32 client, u32 slot, u64 seq) {
  u64& high = applied_seq_[{client, slot}];
  if (seq <= high) return true;
  high = seq;
  return false;
}

core::StagingBuffer& Iod::staging(u32 client, u32 slot) {
  assert(slot < slots_per_client_);
  const size_t idx = static_cast<size_t>(client) * slots_per_client_ + slot;
  assert(idx < staging_.size());
  return staging_[idx];
}

Iod::DiskPhase Iod::write_disk_phase(const RoundRequest& r,
                                     std::span<const std::byte> stream,
                                     TimePoint when) {
  DiskPhase out;
  disk::LocalFile& f = file(r.handle);
  const disk::IoOpts io{};

  // Short-circuit: the decision model is only consulted (and only counts
  // towards the profile) when the client allowed server-side sieving.
  const bool sieve =
      r.use_ads && ads_.decide(r.accesses, /*is_write=*/true, f.size()).sieve;
  sim::Trace::instance().emitf(
      when, hca_.name(),
      "write round h%llu slot%u @%llu: %zu accesses, %llu B -> %s",
      static_cast<unsigned long long>(r.handle), r.slot,
      static_cast<unsigned long long>(
          r.accesses.empty() ? 0 : r.accesses.front().offset),
      r.accesses.size(), static_cast<unsigned long long>(r.bytes()),
      sieve ? "sieve (RMW)" : "separate");

  if (!sieve) {
    u64 stream_off = 0;
    for (const Extent& a : r.accesses) {
      out.cost += f.pwrite(a.offset, stream.subspan(stream_off, a.length), io)
                      .cost;
      stream_off += a.length;
    }
  } else {
    // Read-modify-write under a byte-range lock covering the sieve spans.
    ExtentList sorted = r.accesses;
    sort_by_offset(sorted);
    Result<disk::LocalFile::RangeLock> lk =
        f.lock_range(bounding_span(sorted));
    if (!lk.is_ok()) {
      out.status = lk.status();
      return out;
    }
    out.cost += lk.value().cost;
    vmem::AddressSpace& as = as_;
    std::byte* sieve_buf = as.data(sieve_addr_);
    for (const auto& w : ads_.plan_windows(r.accesses)) {
      // Read the window span (short at EOF); zero-fill the tail so the
      // write-back cannot resurrect stale scratch bytes in file holes.
      Timed<u64> rd = f.pread(w.span.offset, {sieve_buf, w.span.length}, io);
      out.cost += rd.cost;
      if (rd.value < w.span.length) {
        std::memset(sieve_buf + rd.value, 0, w.span.length - rd.value);
      }
      // Modify: copy the wanted pieces from the packed stream.
      u64 wanted = 0;
      for (const auto& p : w.pieces) {
        std::memcpy(sieve_buf + p.window_off, stream.data() + p.stream_off,
                    p.length);
        wanted += p.length;
      }
      out.cost += cfg_.mem.copy_cost(wanted);
      // Write the whole window back.
      out.cost += f.pwrite(w.span.offset, {sieve_buf, w.span.length}, io).cost;
    }
    out.cost += f.unlock_range(lk.value().id);
  }

  if (r.sync) out.cost += f.fsync();
  out.status = Status::ok();
  return out;
}

TimePoint Iod::write_round(const RoundRequest& r, TimePoint data_ready,
                           Duration* disk_cost, u64* ack_version,
                           bool* epoch_rejected) {
  if (epoch_rejected != nullptr) *epoch_rejected = false;
  if (r.round_seq != 0 && already_applied(r.client, r.slot, r.round_seq)) {
    // Replay of a round whose reply was lost: the disk phase already ran,
    // so ack without re-applying (idempotent replay). The original apply
    // merged the version; the ack reports the current header.
    if (stats_ != nullptr) stats_->add(stat::kPvfsReplaysDeduped);
    sim::Trace::instance().emitf(
        data_ready, hca_.name(), "write round h%llu slot%u seq%llu: replay, %s",
        static_cast<unsigned long long>(r.handle), r.slot,
        static_cast<unsigned long long>(r.round_seq), "acked without reapply");
    if (disk_cost != nullptr) *disk_cost = Duration::zero();
    if (ack_version != nullptr) *ack_version = stripe_version(r.handle);
    return data_ready;
  }
  // A staged replay (partial-round restart) carries no payload; it must
  // always hit the dedupe branch above — data landing and the disk apply
  // are atomic at this iod, so "staged" implies "applied".
  assert(!r.data_staged);
  const core::StagingBuffer& sb = staging(r.client, r.slot);
  assert(r.bytes() <= sb.size);
  // Silent-corruption draws, fixed order (lost, torn, flip; at most one
  // fires) so the injector's rng stream is consumed identically across
  // runs. Drawn before the apply: a lost write never reaches the disk.
  bool lost = false;
  bool torn = false;
  bool flip = false;
  if (r.bytes() > 0) {
    lost = faults_->lost_write(id_, data_ready);
    if (!lost) torn = faults_->torn_write(id_, data_ready);
    if (!lost && !torn) flip = faults_->write_bit_flip(id_, data_ready);
  }
  if (lost) {
    // The disk firmware dropped the round but acked it: nothing is
    // applied, no header moves, yet the ack reports exactly what a real
    // apply would have — so the manager wrongly records this replica
    // current. already_applied() above logged the seq, so replays dedupe
    // like any acked round. Only a header-vs-staleness-map cross-check (a
    // reader's gate or the scrubber's) can catch the lie later.
    sim::Trace::instance().emitf(
        data_ready, hca_.name(),
        "write round h%llu slot%u: LOST WRITE injected, acked unapplied",
        static_cast<unsigned long long>(r.handle), r.slot);
    if (disk_cost != nullptr) *disk_cost = Duration::zero();
    if (ack_version != nullptr) {
      *ack_version = std::max(stripe_version(r.handle), r.version);
    }
    return data_ready;
  }
  const std::span<const std::byte> stream =
      as_.readable_span(sb.addr, r.bytes());
  const u64 pre_size = file(r.handle).size();
  DiskPhase phase = write_disk_phase(r, stream, data_ready);
  // Rounds on one iod are serialized by the disk queue (pipelined rounds
  // arrive in data-phase order), so the RMW range lock can never conflict;
  // a failure here is a protocol bug.
  assert(phase.status.is_ok());
  phase.cost = disk_scaled(phase.cost, data_ready);
  if (disk_cost != nullptr) *disk_cost = phase.cost;
  // Stamp block checksums of the *intended* content, then let torn/flip
  // corruption garble the stored bytes behind the stamps (garble hashes
  // the intended bytes first) — that mismatch is exactly what
  // verify-on-read and the scrubber detect.
  stamp_round(r.handle, r.accesses, pre_size);
  if (torn) {
    corrupt_torn(r.handle, r.accesses, data_ready);
  } else if (flip) {
    corrupt_flip(r.handle, r.accesses, data_ready);
  }
  // Merge the round's version into the stripe header (kept as if durable,
  // like applied_seq_). Unversioned rounds — the only kind at factor 1 —
  // never touch the map. A version minted under a manager epoch this iod
  // has seen superseded is fenced out of the header (the bytes above still
  // landed; only the version plane is epoch-gated), so a zombie primary's
  // in-flight mints cannot make this replica look current to a takeover
  // scan or to its own acks.
  if (r.version != 0) {
    const u64 fence =
        manager_epoch(shard_of_handle(r.handle, cfg_.pvfs.metadata_shards));
    if (r.epoch != 0 && r.epoch < fence) {
      if (epoch_rejected != nullptr) *epoch_rejected = true;
      if (stats_ != nullptr) stats_->add(stat::kPvfsEpochRejections);
      sim::Trace::instance().emitf(
          data_ready, hca_.name(),
          "write round h%llu slot%u: stale epoch %llu < %llu, header fenced",
          static_cast<unsigned long long>(r.handle), r.slot,
          static_cast<unsigned long long>(r.epoch),
          static_cast<unsigned long long>(fence));
    } else {
      u64& header = stripe_version_[r.handle];
      header = std::max(header, r.version);
    }
  }
  if (ack_version != nullptr) *ack_version = stripe_version(r.handle);
  return disk_queue_.acquire(data_ready, phase.cost);
}

u64 Iod::stripe_version(Handle h) const {
  auto it = stripe_version_.find(h);
  return it == stripe_version_.end() ? 0 : it->second;
}

TimePoint Iod::apply_repair(Handle h, const ExtentList& accesses,
                            std::span<const std::byte> stream, u64 version,
                            TimePoint at) {
  RoundRequest rr;
  rr.handle = h;
  rr.is_write = true;
  rr.use_ads = false;  // the repair stream is already round-shaped
  rr.accesses = accesses;
  const u64 pre_size = file(h).size();
  DiskPhase phase = write_disk_phase(rr, stream, at);
  assert(phase.status.is_ok());
  phase.cost = disk_scaled(phase.cost, at);
  // Repairs stamp like any apply: the healed bytes must verify on the next
  // read (and the scrubber must not re-flag the repaired blocks).
  stamp_round(h, accesses, pre_size);
  if (version != 0) {
    u64& header = stripe_version_[h];
    header = std::max(header, version);
  }
  return disk_queue_.acquire(at, phase.cost);
}

Timed<u64> Iod::serve_resync(const ResyncRequest& rq,
                             std::span<std::byte> dst) {
  disk::LocalFile& f = file(rq.peer_handle);
  const u64 size = f.size();
  if (rq.offset >= size) return {0, Duration::zero()};
  const u64 n = std::min({rq.max_bytes, size - rq.offset, dst.size()});
  return f.pread(rq.offset, dst.subspan(0, n), {});
}

// --- Background re-replication --------------------------------------------

struct Iod::ResyncState {
  std::vector<Manager::ResyncTarget> targets;
  size_t ti = 0;   // current target
  u64 off = 0;     // byte cursor within the current stripe's local file
  u64 rounds = 0;  // chunk pulls spent on the current stripe
  TimePoint t = TimePoint::origin();
};

void Iod::configure_resync(sim::Engine* engine,
                           std::vector<Manager*> authorities,
                           std::vector<Iod*> peers) {
  engine_ = engine;
  managers_ = std::move(authorities);
  peers_ = std::move(peers);
}

void Iod::set_resync_authority(u32 shard, Manager* manager) {
  if (engine_ == nullptr) return;  // configure_resync never ran
  // Grown on demand: split-born shards index past the mount-time count.
  if (shard >= managers_.size()) managers_.resize(shard + 1, nullptr);
  managers_[shard] = manager;
}

void Iod::on_restart(TimePoint t) {
  if (engine_ == nullptr || managers_.empty()) return;
  auto st = std::make_shared<ResyncState>();
  for (Manager* m : managers_) {
    if (m == nullptr) continue;
    auto part = m->resync_targets(id_);
    st->targets.insert(st->targets.end(), part.begin(), part.end());
  }
  if (st->targets.empty()) return;
  st->t = t;
  sim::Trace::instance().emitf(t, hca_.name(),
                               "resync: %zu stale stripe(s) after restart",
                               st->targets.size());
  resync_step(st);
}

void Iod::resync_step(std::shared_ptr<ResyncState> st) {
  // Crashed again mid-scan: abandon; the next restart rescans (the map
  // still records every unfinished stripe as stale).
  if (faults_->iod_down(id_, st->t)) return;
  while (st->ti < st->targets.size()) {
    const Manager::ResyncTarget& tg = st->targets[st->ti];
    // The first chain peer recorded current and up right now is the pull
    // source; with none, skip the stripe (still recorded stale — a later
    // restart retries).
    Iod* peer = nullptr;
    Handle peer_handle = 0;
    u32 peer_id = 0;
    for (size_t j = 0; j < tg.peers.size(); ++j) {
      const u32 p = tg.peers[j];
      if (p < peers_.size() && peers_[p] != nullptr &&
          !faults_->iod_down(p, st->t)) {
        peer = peers_[p];
        peer_handle = tg.peer_handles[j];
        peer_id = p;
        break;
      }
    }
    if (peer == nullptr) {
      ++st->ti;
      st->off = 0;
      st->rounds = 0;
      continue;
    }
    const u64 peer_size = peer->file(peer_handle).size();
    if (st->off >= peer_size) {
      // Stripe fully pulled: the copy now holds everything the map's
      // latest version covers, so the replica is current again.
      u64& header = stripe_version_[tg.local_handle];
      header = std::max(header, tg.latest);
      const u32 shard = shard_of_handle(tg.handle, cfg_.pvfs.metadata_shards);
      if (shard < managers_.size() && managers_[shard] != nullptr) {
        // A completed pull is the one event that also clears a corrupt
        // flag in the staleness map: the copy was rebuilt (and restamped)
        // in full from an intact peer.
        managers_[shard]->note_replica_resynced(tg.handle, tg.stripe, id_,
                                                tg.latest);
      }
      if (stats_ != nullptr) stats_->add(stat::kPvfsResyncStripes);
      sim::Trace::instance().emitf(
          st->t, hca_.name(),
          "resync: h%llu stripe %u current at v%llu (%llu B in %llu rounds)",
          static_cast<unsigned long long>(tg.handle), tg.stripe,
          static_cast<unsigned long long>(tg.latest),
          static_cast<unsigned long long>(peer_size),
          static_cast<unsigned long long>(st->rounds));
      ++st->ti;
      st->off = 0;
      st->rounds = 0;
      continue;
    }
    // Pull one chunk: RESYNC request over the fabric, peer disk read, the
    // return wire capped at the resync rate, local disk write. Chunks are
    // strictly sequential — one outstanding pull keeps the background
    // traffic bounded by resync_bandwidth.
    ResyncRequest rq;
    rq.handle = tg.handle;
    rq.stripe = tg.stripe;
    rq.peer_handle = peer_handle;
    rq.offset = st->off;
    rq.max_bytes = cfg_.replication.resync_round_bytes;
    std::vector<std::byte> buf(
        std::min(rq.max_bytes, peer_size - st->off));
    const TimePoint req_at =
        fabric_.send_control(hca_, peer->hca(), cfg_.pvfs.request_msg_bytes,
                             st->t, ib::ControlKind::kRequest);
    const Timed<u64> rd = peer->serve_resync(rq, buf);
    const double bw =
        std::min(cfg_.replication.resync_bandwidth, cfg_.net.rdma_read_bw);
    const Duration wire =
        cfg_.net.rdma_read_latency + transfer_time(rd.value, bw);
    if (!peer->verify_ranges(peer_handle, {{st->off, rd.value}})) {
      // The pull source itself is rotten: applying (and restamping) its
      // bytes here would launder the corruption into a copy that verifies
      // clean — silent rot, the one thing the integrity plane must never
      // manufacture. Flag the source and abandon the stripe; it stays
      // recorded stale, so a later scan retries against the surviving
      // chain once the flagged copy is excluded or healed.
      if (stats_ != nullptr) stats_->add(stat::kPvfsCorruptionsDetected);
      const u32 shard = shard_of_handle(tg.handle, cfg_.pvfs.metadata_shards);
      if (shard < managers_.size() && managers_[shard] != nullptr) {
        managers_[shard]->note_replica_corrupt(tg.handle, tg.stripe, peer_id);
      }
      sim::Trace::instance().emitf(
          st->t, hca_.name(),
          "resync: h%llu stripe %u pull source iod%u CORRUPT, abandoning",
          static_cast<unsigned long long>(tg.handle), tg.stripe, peer_id);
      ++st->ti;
      st->off = 0;
      st->rounds = 0;
      st->t = req_at + rd.cost + wire;
      engine_->schedule_at(st->t, [this, st] { resync_step(st); });
      return;
    }
    disk::LocalFile& lf = file(tg.local_handle);
    const u64 pre_size = lf.size();
    const Timed<u64> wr = lf.pwrite(st->off, {buf.data(), rd.value}, {});
    // Resync applies stamp like writes do: the rebuilt copy must verify.
    stamp_round(tg.local_handle, {{st->off, rd.value}}, pre_size);
    if (stats_ != nullptr) stats_->add(stat::kPvfsResyncRounds);
    st->off += rd.value;
    ++st->rounds;
    st->t = req_at + rd.cost + wire + wr.cost;
    engine_->schedule_at(st->t, [this, st] { resync_step(st); });
    return;
  }
}

Iod::DiskPhase Iod::read_separate_phase(const RoundRequest& r,
                                        u64 staging_addr) {
  DiskPhase out;
  disk::LocalFile& f = file(r.handle);
  u64 stream_off = 0;
  for (const Extent& a : r.accesses) {
    Timed<u64> rd = f.pread(
        a.offset, as_.writable_span(staging_addr + stream_off, a.length), {});
    out.cost += rd.cost;
    if (rd.value < a.length) {
      // Reading a hole / past EOF yields zeros (PVFS semantics for stripes
      // never written).
      std::memset(as_.data(staging_addr + stream_off + rd.value), 0,
                  a.length - rd.value);
    }
    stream_off += a.length;
  }
  out.status = Status::ok();
  return out;
}

Iod::ReadService Iod::read_round(const RoundRequest& r, TimePoint start,
                                 ReadReturn path, ib::Hca* client_hca,
                                 u64 client_dest, u32 client_rkey) {
  ReadService svc;
  svc.version = stripe_version(r.handle);
  const core::StagingBuffer& sb = staging(r.client, r.slot);
  const u64 total = r.bytes();
  if (total > sb.size) {
    svc.status = invalid_argument("read round exceeds staging buffer");
    return svc;
  }

  // Verify-on-read: recompute the stamped block checksums of every block
  // the round touches (zero simulated cost — the hash overlaps the disk
  // read). A mismatch means the stored bytes silently diverged from what
  // was acked (bit flip, torn write); this replica is reachable but
  // untrustworthy, so the round fails typed kCorrupt and the client fails
  // over instead of retrying here.
  if (!verify_ranges(r.handle, r.accesses)) {
    if (stats_ != nullptr) stats_->add(stat::kPvfsCorruptionsDetected);
    sim::Trace::instance().emitf(
        start, hca_.name(), "read round h%llu: block checksum MISMATCH",
        static_cast<unsigned long long>(r.handle));
    svc.status = corrupt("stripe block checksum mismatch on h" +
                         std::to_string(r.handle));
    svc.ready = start;
    return svc;
  }

  disk::LocalFile& f = file(r.handle);
  const bool sieve =
      r.use_ads &&
      ads_.decide(r.accesses, /*is_write=*/false, f.size()).sieve;
  sim::Trace::instance().emitf(
      start, hca_.name(), "read round h%llu: %zu accesses, %llu B -> %s, %s",
      static_cast<unsigned long long>(r.handle), r.accesses.size(),
      static_cast<unsigned long long>(total),
      sieve ? "sieve" : "separate",
      path == ReadReturn::kFastBounce      ? "fast-bounce"
      : path == ReadReturn::kDirectGather ? "direct-gather"
                                           : "client-pull");

  if (!sieve) {
    // Access-by-access, packing straight into the staging buffer.
    DiskPhase phase = read_separate_phase(r, sb.addr);
    phase.cost = disk_scaled(phase.cost, start);
    svc.disk_cost = phase.cost;
    const TimePoint data_at = disk_queue_.acquire(start, phase.cost);
    switch (path) {
      case ReadReturn::kClientPull:
        svc.ready = data_at;
        break;
      case ReadReturn::kFastBounce:
      case ReadReturn::kDirectGather: {
        const ib::Sge sge{sb.addr, total, sb.rkey};
        ib::TransferResult tr = fabric_.rdma_write(
            hca_, sge, *client_hca, client_dest, client_rkey, data_at);
        if (!tr.ok()) {
          svc.status = tr.status;
          return svc;
        }
        svc.ready = tr.complete;
        break;
      }
    }
    svc.status = Status::ok();
    svc.bytes = total;
    return svc;
  }

  // Sieved read: window by window.
  std::byte* sieve_buf = as_.data(sieve_addr_);
  TimePoint net_done = start;
  TimePoint disk_done = start;
  for (const auto& w : ads_.plan_windows(r.accesses)) {
    Timed<u64> rd = f.pread(w.span.offset, {sieve_buf, w.span.length}, {});
    if (rd.value < w.span.length) {
      std::memset(sieve_buf + rd.value, 0, w.span.length - rd.value);
    }
    rd.cost = disk_scaled(rd.cost, disk_done);
    svc.disk_cost += rd.cost;
    disk_done = disk_queue_.acquire(disk_done, rd.cost);

    if (path == ReadReturn::kDirectGather) {
      // Ship wanted pieces straight out of the sieve buffer, one gather per
      // run of stream-consecutive pieces (the remote side of a gather WR is
      // contiguous). No pack copy — the scatter/gather NIC does the work.
      std::vector<ib::Sge> run;
      u64 run_start = 0;
      u64 run_next = 0;
      auto flush_run = [&] {
        if (run.empty()) return;
        ib::TransferResult tr = fabric_.rdma_write_gather(
            hca_, run, *client_hca, client_dest + run_start, client_rkey,
            disk_done);
        assert(tr.ok());
        net_done = max(net_done, tr.complete);
        run.clear();
      };
      for (const auto& p : w.pieces) {
        if (run.empty() || p.stream_off != run_next) {
          flush_run();
          run_start = p.stream_off;
          run_next = p.stream_off;
        }
        run.push_back(ib::Sge{sieve_addr_ + p.window_off, p.length,
                              sieve_key_});
        run_next += p.length;
      }
      flush_run();
    } else {
      // Pack wanted pieces into the staging buffer (stream order) so the
      // client can pull one contiguous region / receive one bounce write.
      u64 wanted = 0;
      for (const auto& p : w.pieces) {
        std::memcpy(as_.data(sb.addr + p.stream_off),
                    sieve_buf + p.window_off, p.length);
        wanted += p.length;
      }
      svc.disk_cost += cfg_.mem.copy_cost(wanted);
      disk_done = disk_queue_.acquire(disk_done, cfg_.mem.copy_cost(wanted));
    }
  }

  switch (path) {
    case ReadReturn::kClientPull:
      svc.ready = disk_done;
      break;
    case ReadReturn::kFastBounce: {
      const ib::Sge sge{sb.addr, total, sb.rkey};
      ib::TransferResult tr = fabric_.rdma_write(
          hca_, sge, *client_hca, client_dest, client_rkey, disk_done);
      if (!tr.ok()) {
        svc.status = tr.status;
        return svc;
      }
      svc.ready = tr.complete;
      break;
    }
    case ReadReturn::kDirectGather:
      svc.ready = max(net_done, disk_done);
      break;
  }
  svc.status = Status::ok();
  svc.bytes = total;
  return svc;
}

// --- Data integrity ---------------------------------------------------------

namespace {
// Call fn(b) for each checksum block b (of `B` bytes) overlapping `ranges`
// clipped to `size`, skipping a repeat of the block just visited; stops at
// the first fn returning false and reports whether none did.
template <class Fn>
bool each_block(const ExtentList& ranges, u64 size, u64 B, Fn&& fn) {
  u64 prev = ~u64{0};
  for (const Extent& a : ranges) {
    if (a.length == 0 || a.offset >= size) continue;
    const u64 last = (a.offset + std::min(a.length, size - a.offset) - 1) / B;
    for (u64 b = a.offset / B; b <= last; ++b) {
      if (b == prev) continue;
      if (!fn(b)) return false;
      prev = b;
    }
  }
  return true;
}

// A copy of block b's stored bytes: B bytes, or fewer for the tail block.
std::vector<std::byte> block_of(const disk::LocalFile& f, u64 b, u64 B) {
  std::vector<std::byte> out(std::min<u64>(B, f.size() - b * B));
  f.stored().read(b * B, out);
  return out;
}
}  // namespace

u64 Iod::block_checksum(std::span<const std::byte> s) {
  u64 h = 1469598103934665603ull;  // FNV-1a 64-bit
  for (const std::byte b : s) {
    h ^= static_cast<u8>(b);
    h *= 1099511628211ull;
  }
  return h;
}

u64 Iod::block_bytes() const {
  return std::max<u64>(1, cfg_.replication.integrity_block_bytes);
}

void Iod::stamp_round(Handle h, const ExtentList& accesses, u64 pre_size) {
  const u64 size = file(h).size();
  if (size == 0) return;
  std::map<u64, BlockSum>& sums = block_sums_[h];
  auto mark = [&](u64 b) {
    sums[b] = BlockSum{};
    return true;
  };
  each_block(accesses, size, block_bytes(), mark);
  // Growth restamps the zero-filled gap and the old tail block, whose
  // extent (and therefore checksum) changed when the file grew.
  if (size > pre_size) {
    each_block({{pre_size, size - pre_size}}, size, block_bytes(), mark);
  }
}

bool Iod::verify_ranges(Handle h, const ExtentList& accesses) {
  const auto bit = block_sums_.find(h);
  if (bit == block_sums_.end()) return true;
  const auto fit = files_.find(h);
  if (fit == files_.end()) return true;
  const disk::LocalFile& f = fs_.file(fit->second);
  const u64 B = block_bytes();
  return each_block(accesses, f.size(), B, [&](u64 b) {
    const auto s = bit->second.find(b);
    // Pre-v2 blocks are trusted; pending and verified ones match by
    // construction. Only a block a corruptor touched needs the hash.
    if (s == bit->second.end() ||
        s->second.state != BlockSum::State::kUnverified) {
      return true;
    }
    if (block_checksum(block_of(f, b, B)) != s->second.sum) {
      return false;
    }
    s->second.state = BlockSum::State::kVerified;
    return true;
  });
}

void Iod::garble(Handle h, const ExtentList& ranges, std::byte mask) {
  disk::LocalFile& f = file(h);
  const auto bit = block_sums_.find(h);
  if (bit != block_sums_.end()) {
    const u64 B = block_bytes();
    each_block(ranges, f.size(), B, [&](u64 b) {
      const auto s = bit->second.find(b);
      if (s == bit->second.end()) return true;  // pre-v2 block: unstamped
      if (s->second.state == BlockSum::State::kPending) {
        s->second.sum = block_checksum(block_of(f, b, B));
      }
      s->second.state = BlockSum::State::kUnverified;
      return true;
    });
  }
  // A garbled byte inside a hole maps its page, so the damage persists.
  for (const Extent& a : ranges) {
    if (a.offset >= f.size()) continue;
    std::vector<std::byte> bytes(std::min(a.length, f.size() - a.offset));
    f.stored().read(a.offset, bytes);
    for (std::byte& x : bytes) x ^= mask;
    f.stored().write(a.offset, bytes);
  }
}

void Iod::corrupt_torn(Handle h, const ExtentList& accesses, TimePoint at) {
  const u64 total = total_length(accesses);
  if (total == 0) return;
  // Keep a prefix of the round's stream on the platter; the torn tail
  // reads back garbled under the intact (intended-content) stamps.
  const u64 keep = faults_->draw(total);
  ExtentList tail;
  u64 pos = 0;
  for (const Extent& a : accesses) {
    const u64 kept = pos >= keep ? 0 : std::min(a.length, keep - pos);
    if (kept < a.length) tail.push_back({a.offset + kept, a.length - kept});
    pos += a.length;
  }
  garble(h, tail, std::byte{0x5a});
  sim::Trace::instance().emitf(
      at, hca_.name(),
      "torn write injected on h%llu: kept %llu of %llu B",
      static_cast<unsigned long long>(h),
      static_cast<unsigned long long>(keep),
      static_cast<unsigned long long>(total));
}

void Iod::corrupt_flip(Handle h, const ExtentList& accesses, TimePoint at) {
  const u64 total = total_length(accesses);
  if (total == 0) return;
  u64 pos = faults_->draw(total);
  const u32 bit = static_cast<u32>(faults_->draw(8));
  for (const Extent& a : accesses) {
    if (pos < a.length) {
      const u64 off = a.offset + pos;
      if (off < file(h).size()) {
        garble(h, {{off, 1}}, static_cast<std::byte>(1u << bit));
        sim::Trace::instance().emitf(
            at, hca_.name(),
            "bit flip injected on h%llu at %llu (bit %u)",
            static_cast<unsigned long long>(h),
            static_cast<unsigned long long>(off), bit);
      }
      return;
    }
    pos -= a.length;
  }
}

void Iod::inject_bit_flip(TimePoint at) {
  // Deterministic pick among nonempty local files (map order), then a byte
  // and a bit, all from the injector's seeded stream. A node with no data
  // yet absorbs the event silently (and counts nothing — the fault never
  // materialized).
  std::vector<std::pair<Handle, u32>> cands;
  for (const auto& [h, fd] : files_) {
    if (fs_.file(fd).size() > 0) cands.emplace_back(h, fd);
  }
  if (cands.empty()) return;
  const auto [h, fd] = cands[faults_->draw(cands.size())];
  const disk::LocalFile& f = fs_.file(fd);
  const u64 off = faults_->draw(f.size());
  const u32 bit = static_cast<u32>(faults_->draw(8));
  garble(h, {{off, 1}}, static_cast<std::byte>(1u << bit));
  if (stats_ != nullptr) stats_->add(stat::kFaultBitFlip);
  sim::Trace::instance().emitf(
      at, hca_.name(), "bit flip injected at rest: %s off %llu bit %u",
      f.path().c_str(), static_cast<unsigned long long>(off), bit);
}

// --- Background scrubber ----------------------------------------------------

struct Iod::ScrubState {
  TimePoint until = TimePoint::origin();
  Handle cursor = 0;  // next local handle to visit (lower_bound key)
  u64 off = 0;        // byte cursor within the cursor file
};

void Iod::start_scrub(TimePoint until) {
  if (engine_ == nullptr || managers_.empty()) return;
  if (!cfg_.replication.scrub) return;
  auto st = std::make_shared<ScrubState>();
  st->until = until;
  const TimePoint first = engine_->now() + cfg_.replication.scrub_interval;
  if (first > until) return;
  engine_->schedule_at(first, [this, st] { scrub_tick(st); });
}

void Iod::scrub_tick(std::shared_ptr<ScrubState> st) {
  const TimePoint now = engine_->now();
  const bool down = faults_->iod_down(id_, now);
  if (!down && !files_.empty()) {
    u64 budget = std::max<u64>(1, cfg_.replication.scrub_chunk_bytes);
    u64 scanned = 0;
    bool issues = false;
    TimePoint done = now;
    // At most one pass over the file table per tick (+1 for the wrap).
    for (size_t visits = files_.size() + 1; budget > 0 && visits > 0;
         --visits) {
      const auto it = files_.lower_bound(st->cursor);
      if (it == files_.end()) {
        st->cursor = 0;
        st->off = 0;
        continue;
      }
      const Handle h = it->first;
      disk::LocalFile& f = fs_.file(it->second);
      if (st->off >= f.size()) {
        st->cursor = h + 1;
        st->off = 0;
        continue;
      }
      // The shard manager that owns this local file's stripes: corrupt and
      // stale findings are reported there, and the version cross-check
      // reads its staleness map.
      const bool backup = (h >> 63) != 0;
      const Handle gh = backup ? (h & ((Handle{1} << 48) - 1)) : h;
      const u32 shard = shard_of_handle(gh, cfg_.pvfs.metadata_shards);
      Manager* mgr = shard < managers_.size() ? managers_[shard] : nullptr;
      // Version cross-check, once per file (at its first chunk): a header
      // trailing a stripe the map records *current here* is an acked write
      // that never hit the platter — a lost write, invisible to checksums
      // because the stored (old) bytes still verify.
      if (st->off == 0 && mgr != nullptr) {
        const u64 header = stripe_version(h);
        for (const Manager::LocalStripeView& v : mgr->local_stripes(h, id_)) {
          if (v.known && v.recorded >= v.latest && header < v.latest) {
            if (stats_ != nullptr) {
              stats_->add(stat::kPvfsScrubStaleHeaders);
            }
            sim::Trace::instance().emitf(
                now, hca_.name(),
                "scrub: h%llu stripe %u header v%llu < map v%llu, lost "
                "write detected",
                static_cast<unsigned long long>(v.handle), v.stripe,
                static_cast<unsigned long long>(header),
                static_cast<unsigned long long>(v.latest));
            mgr->note_replica_observed(v.handle, v.stripe, id_, header);
            issues = true;
          }
        }
      }
      const u64 n = std::min(budget, f.size() - st->off);
      // The media re-read is charged through the disk queue like any other
      // access — scrub bandwidth is real, which is why the sweep is opt-in
      // and rate-limited.
      std::vector<std::byte> scratch(n);
      const Timed<u64> rd = f.pread(st->off, scratch, {});
      done = disk_queue_.acquire(done, disk_scaled(rd.cost, now));
      if (!verify_ranges(h, {{st->off, n}})) {
        if (stats_ != nullptr) {
          stats_->add(stat::kPvfsScrubCorruptions);
          stats_->add(stat::kPvfsCorruptionsDetected);
        }
        sim::Trace::instance().emitf(
            now, hca_.name(), "scrub: h%llu checksum MISMATCH in [%llu,%llu)",
            static_cast<unsigned long long>(h),
            static_cast<unsigned long long>(st->off),
            static_cast<unsigned long long>(st->off + n));
        if (mgr != nullptr) {
          for (const Manager::LocalStripeView& v :
               mgr->local_stripes(h, id_)) {
            mgr->note_replica_corrupt(v.handle, v.stripe, id_);
          }
        }
        issues = true;
      }
      budget -= n;
      scanned += n;
      st->off += n;
    }
    if (scanned > 0 && stats_ != nullptr) {
      stats_->add(stat::kPvfsScrubChunks);
      stats_->add(stat::kPvfsScrubBytes, scanned);
    }
    // Heal: the findings above are now recorded stale/corrupt in the
    // staleness map, which is exactly what the restart resync scanner
    // pulls from — reuse it. Concurrent scans are deterministic and pull
    // idempotently, so no interlock is needed.
    if (issues) on_restart(done);
  }
  const TimePoint next = now + cfg_.replication.scrub_interval;
  if (next <= st->until) {
    engine_->schedule_at(next, [this, st] { scrub_tick(st); });
  }
}

}  // namespace pvfsib::pvfs

#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "core/ads.h"
#include "core/listio.h"
#include "core/ogr.h"
#include "load/load_engine.h"
#include "mpiio/mpio_file.h"
#include "pvfs/cluster.h"
#include "trace.h"
#include "workloads/block_column.h"
#include "workloads/btio.h"

namespace perfbench {
namespace {

using namespace pvfsib;

constexpr std::string_view kWorkloads[] = {"blockcolumn", "load_mix", "btio"};

// Outcome counters and invariants of one run. `op` counts an operation
// (failed when it errored or returned wrong data); `require` is a run-wide
// invariant whose violation makes the whole run incorrect.
class Checks {
 public:
  void op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }
  void ops(u64 n, u64 bad, const std::string& what) {
    attempted_ += n;
    failed_ += bad;
    if (bad > 0) note(what);
  }
  void require(bool ok, const std::string& what) {
    if (!ok) {
      broken_ = true;
      note(what);
    }
  }

  u64 attempted() const { return attempted_; }
  u64 failed() const { return failed_; }
  bool correct() const { return !broken_ && failed_ == 0; }

 private:
  void note(const std::string& what) {
    if (notes_++ < 20) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }

  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 notes_ = 0;
  bool broken_ = false;
};

// Everything one measured pass produced. The simulated part repeats exactly
// for a given seed; `fingerprint` serializes it for the determinism guard.
struct Pass {
  // --- simulated results
  u64 ops = 0;       // completed operations
  u64 data_ops = 0;  // of which moved file data
  u64 payload = 0;   // bytes moved by data ops
  u64 write_bytes = 0;
  u64 read_bytes = 0;
  double io_sim_s = 0.0;  // simulated seconds with the workload's I/O open
  double busy_span_s = 0.0;  // simulated span NIC and disk busy times cover
  u64 mpiio_calls = 0;       // rank calls into File::write_all/read_all
  double write_sim_s = 0.0;
  double read_sim_s = 0.0;
  double p50_us = 0.0;
  double tail_us = 0.0;
  double tail_pct = 0.0;
  u64 lat_samples = 0;
  pvfs::IoPhases phases;  // summed over every rank result
  Stats delta;            // cluster counters over the pass
  double client_nic_s = 0.0;
  double iod_nic_s = 0.0;
  u32 clients = 0;
  u32 iods = 0;
  std::vector<double> disk_busy_s;  // per iod
  u64 events = 0;
  double mapped_mib = 0.0;
  std::vector<double> ovh_s;  // btio: per Table 5 method
  double paper_err = 0.0;     // btio
  double meta_p50_us = 0.0;   // load_mix
  double meta_p99_us = 0.0;
  double fairness = 0.0;
  u64 load_ops = 0;
  std::string fingerprint;
  // --- host cost of the library calls
  double host_s = 0.0;
  Usage usage;
};

// Busy time and counters of a cluster at one instant; passes take one
// before and after their calls and keep the difference.
struct Probe {
  Stats stats;
  double client_nic_s = 0.0;
  double iod_nic_s = 0.0;
  std::vector<double> disk_s;
  u64 events = 0;

  static Probe take(pvfs::Cluster& c) {
    Probe p;
    p.stats = c.stats();
    for (u32 i = 0; i < c.client_count(); ++i) {
      p.client_nic_s += c.client(i).hca().nic().busy_total().as_sec();
    }
    for (u32 i = 0; i < c.iod_count(); ++i) {
      p.iod_nic_s += c.iod(i).hca().nic().busy_total().as_sec();
      p.disk_s.push_back(c.iod(i).disk_queue().busy_total().as_sec());
    }
    p.events = c.engine().events_processed();
    return p;
  }
};

void add_probe_delta(Pass& p, pvfs::Cluster& c, const Probe& before) {
  const Probe after = Probe::take(c);
  const Stats diff = after.stats.diff(before.stats);
  for (const auto& [k, v] : diff.counters()) {
    p.delta.add(k, v);
  }
  p.client_nic_s += after.client_nic_s - before.client_nic_s;
  p.iod_nic_s += after.iod_nic_s - before.iod_nic_s;
  p.disk_busy_s.resize(after.disk_s.size(), 0.0);
  for (size_t i = 0; i < after.disk_s.size(); ++i) {
    p.disk_busy_s[i] += after.disk_s[i] - before.disk_s[i];
  }
  p.events += after.events - before.events;
  p.clients = c.client_count();
  p.iods = c.iod_count();
  double mapped = 0.0;
  for (u32 i = 0; i < c.client_count(); ++i) {
    mapped += static_cast<double>(c.client(i).memory().bytes_mapped());
  }
  p.mapped_mib += mapped / static_cast<double>(kMiB);
}

// Accumulates host wall and rusage time around library calls only, so the
// benchmark's own pattern fills and byte compares stay out of host_s.
class HostTimer {
 public:
  explicit HostTimer(Pass& p) : p_(p), t0_(host_now_s()), u0_(Usage::now()) {}
  ~HostTimer() {
    p_.host_s += host_now_s() - t0_;
    p_.usage += Usage::now() - u0_;
  }
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;

 private:
  Pass& p_;
  double t0_;
  Usage u0_;
};

void add_phases(pvfs::IoPhases& into, const pvfs::IoPhases& p) {
  into.registration += p.registration;
  into.wire += p.wire;
  into.disk += p.disk;
  into.stall += p.stall;
}

// Counter movement since `before` as span attributes; nothing is computed
// while tracing is off, so untraced passes pay no tracing cost.
SpanLog::Attrs stats_attrs(const SpanLog& log, const Stats& now,
                           const Stats& before) {
  SpanLog::Attrs out;
  if (!log.enabled()) return out;
  const Stats diff = now.diff(before);
  for (const auto& [k, v] : diff.counters()) {
    out.emplace_back("stats." + k, static_cast<double>(v));
  }
  return out;
}

// One span per call into File::write_all/read_all, with every rank's
// IoResult as a child carrying its IoPhases, and the Stats diff over the
// call as the parent's attributes.
struct CallSpans {
  SpanLog& log;
  u64 parent;
  u64 op;

  void ranks(const std::vector<pvfs::IoResult>& rs) const {
    if (!log.enabled()) return;
    for (size_t r = 0; r < rs.size(); ++r) {
      const pvfs::IoResult& x = rs[r];
      log.child("rank" + std::to_string(r), parent, op, x.start.as_ns(),
                x.end.as_ns(),
                {{"bytes", static_cast<double>(x.bytes)},
                 {"registration_us", x.phases.registration.as_us()},
                 {"wire_us", x.phases.wire.as_us()},
                 {"disk_us", x.phases.disk.as_us()},
                 {"stall_us", x.phases.stall.as_us()},
                 {"retries", static_cast<double>(x.retries)}});
    }
  }
};

// Makespan of an all-rank call, in simulated seconds.
double makespan_s(const std::vector<pvfs::IoResult>& rs) {
  TimePoint lo = TimePoint::from_ns(INT64_MAX);
  TimePoint hi = TimePoint::origin();
  for (const pvfs::IoResult& r : rs) {
    lo = r.start < lo ? r.start : lo;
    hi = max(hi, r.end);
  }
  return rs.empty() ? 0.0 : (hi - lo).as_sec();
}

// Record an all-rank call's results into the pass: payload, per-op latency
// samples, phases, and the op checks.
void record_call(Pass& p, std::vector<double>& lat_us,
                 const std::vector<pvfs::IoResult>& rs, bool is_write,
                 Checks& chk, const char* what) {
  u64 bytes = 0;
  for (const pvfs::IoResult& r : rs) {
    chk.op(r.ok(), std::string(what) + ": " + r.status.to_string());
    bytes += r.bytes;
    lat_us.push_back(r.elapsed().as_us());
    add_phases(p.phases, r.phases);
  }
  const double span = makespan_s(rs);
  p.ops += rs.size();
  p.data_ops += rs.size();
  p.mpiio_calls += rs.size();
  p.payload += bytes;
  p.io_sim_s += span;
  (is_write ? p.write_bytes : p.read_bytes) += bytes;
  (is_write ? p.write_sim_s : p.read_sim_s) += span;
}

void finish_latency(Pass& p, const std::vector<double>& lat_us) {
  p.lat_samples = lat_us.size();
  p.p50_us = percentile(lat_us, 50.0);
  p.tail_pct = tail_percentile(p.lat_samples);
  p.tail_us = percentile(lat_us, p.tail_pct);
}

std::string fingerprint(const Pass& p, const std::string& extra) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "ops=%llu data=%llu payload=%llu w=%llu r=%llu io=%.17g "
                "ws=%.17g rs=%.17g p50=%.17g tail=%.17g@%.17g n=%llu "
                "reg=%lld wire=%lld disk=%lld stall=%lld err=%.17g ",
                static_cast<unsigned long long>(p.ops),
                static_cast<unsigned long long>(p.data_ops),
                static_cast<unsigned long long>(p.payload),
                static_cast<unsigned long long>(p.write_bytes),
                static_cast<unsigned long long>(p.read_bytes), p.io_sim_s,
                p.write_sim_s, p.read_sim_s, p.p50_us, p.tail_us, p.tail_pct,
                static_cast<unsigned long long>(p.lat_samples),
                static_cast<long long>(p.phases.registration.as_ns()),
                static_cast<long long>(p.phases.wire.as_ns()),
                static_cast<long long>(p.phases.disk.as_ns()),
                static_cast<long long>(p.phases.stall.as_ns()), p.paper_err);
  std::string out = buf;
  for (double o : p.ovh_s) {
    std::snprintf(buf, sizeof(buf), "ovh=%.17g ", o);
    out += buf;
  }
  return out + extra + " " + p.delta.to_string();
}

// Deterministic byte pattern for (seed, a, b).
void fill_pattern(std::span<std::byte> out, u64 seed, u64 a, u64 b) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (a << 20) ^ (b + 1));
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const u64 v = rng.next();
    std::memcpy(out.data() + i, &v, 8);
  }
  const u64 v = rng.next();
  std::memcpy(out.data() + i, &v, out.size() - i);
}

// Every workload places its data after a seeded header of whole elements
// (at most 64 KiB), as files with a header do: each seed shifts the access
// against stripe, page and block boundaries, so the seeds sample a
// distribution of simulated outcomes rather than one point.
u64 header_bytes(u64 seed, u64 elem) {
  Rng rng(seed ^ 0x6a09e667f3bcc909ULL);
  return rng.below(64 * kKiB / elem) * elem;
}

mpiio::RankIo shifted(mpiio::RankIo io, u64 header) {
  io.view = mpiio::FileView(io.view.displacement() + header,
                            io.view.filetype());
  return io;
}

// --- host-cost replays ----------------------------------------------------

// Host time of the planning steps the library runs for one set of calls,
// each timed in isolation on a private one-client cluster so the measured
// cluster's caches and counters stay untouched.
struct ReplayCosts {
  double flatten_us = 0.0;  // per rank call: Datatype/FileView + partition
  double acquire_us = 0.0;  // per round: plan_groups + acquire
  double decide_us = 0.0;   // per round: decide (+ plan_windows if sieving)
};

struct ReplayCall {
  mpiio::RankIo io;
  bool is_write = false;
};

ReplayCosts replay_host_costs(const std::vector<ReplayCall>& calls,
                              u64 mem_extent) {
  ReplayCosts out;
  if (calls.empty()) return out;
  pvfs::Cluster cl(ModelConfig::paper_defaults(), 1, 4);
  pvfs::Client& c = cl.client(0);
  const u64 base = c.memory().alloc(mem_extent);
  const PvfsParams& pp = cl.config().pvfs;
  const core::StripeMap map(pp.stripe_size, cl.iod_count());
  core::ActiveDataSieving& ads = cl.iod(0).ads();
  core::GroupRegistrar& reg = c.registrar();
  const size_t round = pp.max_list_pairs;

  struct Planned {
    std::vector<core::ServerSubRequest> subs;
    bool is_write;
  };
  std::vector<Planned> planned;
  constexpr int kReps = 3;
  double t = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    planned.clear();
    const double t0 = host_now_s();
    for (const ReplayCall& call : calls) {
      core::ListIoRequest req;
      for (const Extent& e : call.io.memtype.prefix(call.io.bytes)) {
        req.mem.push_back({base + e.offset, e.length});
      }
      req.file = call.io.view.map_range(call.io.view_offset, call.io.bytes);
      planned.push_back({core::partition(req, map), call.is_write});
    }
    t += host_now_s() - t0;
  }
  out.flatten_us = t * 1e6 / (kReps * static_cast<double>(calls.size()));

  double t_ads = 0.0, t_ogr = 0.0;
  u64 ads_rounds = 0, ogr_rounds = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Planned& pl : planned) {
      for (const core::ServerSubRequest& sub : pl.subs) {
        for (size_t i = 0; i < sub.file.size(); i += round) {
          const ExtentList files(
              sub.file.begin() + static_cast<std::ptrdiff_t>(i),
              sub.file.begin() +
                  static_cast<std::ptrdiff_t>(std::min(i + round,
                                                       sub.file.size())));
          const double t0 = host_now_s();
          const core::AdsDecision d = ads.decide(files, pl.is_write);
          if (d.sieve) (void)ads.plan_windows(files);
          t_ads += host_now_s() - t0;
          ++ads_rounds;
        }
        for (size_t i = 0; i < sub.mem.size(); i += round) {
          const std::span<const core::MemSegment> segs(
              sub.mem.data() + i, std::min(round, sub.mem.size() - i));
          const double t0 = host_now_s();
          (void)reg.plan_groups(segs);
          const core::OgrOutcome o = reg.acquire(segs);
          t_ogr += host_now_s() - t0;
          ++ogr_rounds;
          reg.release(o);
        }
      }
    }
  }
  auto per_round_us = [](double t, u64 n) {
    return n > 0 ? t * 1e6 / static_cast<double>(n) : 0.0;
  };
  out.decide_us = per_round_us(t_ads, ads_rounds);
  out.acquire_us = per_round_us(t_ogr, ogr_rounds);
  return out;
}

// --- workloads ----------------------------------------------------------

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  // One-time set-up before the measured passes; pushes its host seconds
  // into `setups` (workloads whose passes need fresh clusters push there
  // from pass() instead).
  virtual void prepare(std::vector<double>& setups, SpanLog& log,
                       Checks& chk) = 0;
  virtual Pass pass(u64 iter, SpanLog& log, Checks& chk,
                    std::vector<double>& setups) = 0;
  // Host cost of the planning steps on this workload's own inputs.
  virtual ReplayCosts replay() { return {}; }
};

// Fig. 5 block-column access, List I/O + ADS, 4 clients x 4 iods.
class BlockColumn : public Workload {
 public:
  explicit BlockColumn(const Options& opt)
      : opt_(opt), header_(header_bytes(opt.seed, 4)) {
    w_.n = opt.smoke ? 512 : 4096;
  }

  void prepare(std::vector<double>& setups, SpanLog& log,
               Checks& chk) override {
    // Set up several times so setup_s is a median; measure on the last.
    const int reps = opt_.smoke ? 1 : 3;
    for (int k = 0; k < reps; ++k) {
      fx_.reset();
      const double t0 = host_now_s();
      build(log, chk);
      SpanLog off(false);
      (void)pass(0, off, chk, setups);  // warm-up: MR cache, page cache
      setups.push_back(host_now_s() - t0);
    }
  }

  Pass pass(u64 iter, SpanLog& log, Checks& chk,
            std::vector<double>&) override {
    Fixture& fx = *fx_;
    pvfs::Cluster& cl = *fx.cluster;
    mpiio::Communicator& comm = *fx.comm;
    const u64 share = w_.share_bytes();
    std::vector<mpiio::RankIo> wio(4), rio(4);
    for (int p = 0; p < 4; ++p) {
      fill_pattern(comm.rank(p).memory().writable_span(fx.wbuf[p], share),
                   opt_.seed, iter, static_cast<u64>(p));
      wio[p] = rank_io(p, fx.wbuf[p]);
      // Rank p reads back the block column rank p+1 wrote, so data
      // stored at the wrong offsets cannot compare equal.
      rio[p] = rank_io((p + 1) % 4, fx.rbuf[p]);
    }
    mpiio::Hints hints;
    hints.method = mpiio::IoMethod::kListIoAds;
    hints.sync = false;

    Pass out;
    std::vector<double> lat;
    const Probe before = Probe::take(cl);
    const u64 op = iter * 3;
    std::vector<pvfs::IoResult> wr, rd;
    {
      HostTimer ht(out);
      Stats b = log.enabled() ? cl.stats() : Stats{};
      u64 s = log.begin("File::write_all", 0, op, comm.rank(0).now().as_ns());
      wr = fx.file->write_all(wio, hints);
      log.end(s, comm.rank(0).now().as_ns(), stats_attrs(log, cl.stats(), b));
      CallSpans{log, s, op}.ranks(wr);

      s = log.begin("Cluster::drop_all_caches", 0, op + 1,
                    comm.rank(0).now().as_ns());
      cl.drop_all_caches();
      log.end(s, comm.rank(0).now().as_ns());

      if (log.enabled()) b = cl.stats();
      s = log.begin("File::read_all", 0, op + 2, comm.rank(0).now().as_ns());
      rd = fx.file->read_all(rio, hints);
      log.end(s, comm.rank(0).now().as_ns(), stats_attrs(log, cl.stats(), b));
      CallSpans{log, s, op + 2}.ranks(rd);
    }
    add_probe_delta(out, cl, before);
    record_call(out, lat, wr, true, chk, "blockcolumn write");
    record_call(out, lat, rd, false, chk, "blockcolumn read");
    finish_latency(out, lat);
    out.busy_span_s = out.io_sim_s;

    const u64 image = w_.file_bytes();
    chk.require(out.write_bytes == image && out.read_bytes == image,
                "blockcolumn payload per pass != N*N*4");
    for (int p = 0; p < 4; ++p) {
      const int q = (p + 1) % 4;
      const auto got = comm.rank(p).memory().readable_span(fx.rbuf[p], share);
      const auto want = comm.rank(q).memory().readable_span(fx.wbuf[q], share);
      chk.op(std::memcmp(got.data(), want.data(), share) == 0,
             "blockcolumn read-back of rank " + std::to_string(q) +
                 "'s column differs from what it wrote");
    }
    out.fingerprint = fingerprint(out, "");
    return out;
  }

  ReplayCosts replay() override {
    std::vector<ReplayCall> calls;
    for (int p = 0; p < 4; ++p) {
      calls.push_back({rank_io(p, 0), true});
      calls.push_back({rank_io(p, 0), false});
    }
    return replay_host_costs(calls, w_.share_bytes());
  }

 private:
  struct Fixture {
    std::unique_ptr<pvfs::Cluster> cluster;
    std::unique_ptr<mpiio::Communicator> comm;
    std::optional<mpiio::File> file;
    std::vector<u64> wbuf, rbuf;
  };

  void build(SpanLog& log, Checks& chk) {
    fx_ = std::make_unique<Fixture>();
    Fixture& fx = *fx_;
    fx.cluster =
        std::make_unique<pvfs::Cluster>(ModelConfig::paper_defaults(), 4, 4);
    fx.comm = std::make_unique<mpiio::Communicator>(*fx.cluster);
    u64 s = log.begin("File::create", 0, 0, 0);
    Result<mpiio::File> f = mpiio::File::create(*fx.comm, "/blockcolumn");
    log.end(s, fx.comm->rank(0).now().as_ns());
    chk.require(f.is_ok(), "blockcolumn create: " + f.status().to_string());
    if (!f.is_ok()) return;
    fx.file.emplace(f.value());
    // The paper's benchmark loops over an existing file: preload it so
    // the first write overwrites real data.
    pvfs::Client& c0 = fx.comm->rank(0);
    const u64 bytes = header_ + w_.file_bytes();
    const u64 pre = c0.memory().alloc(bytes);
    s = log.begin("Client::write preload", 0, 0, c0.now().as_ns());
    const pvfs::IoResult r = c0.write(fx.file->handle(0), 0, pre, bytes);
    log.end(s, r.end.as_ns(),
            {{"bytes", static_cast<double>(r.bytes)},
             {"registration_us", r.phases.registration.as_us()},
             {"wire_us", r.phases.wire.as_us()},
             {"disk_us", r.phases.disk.as_us()}});
    chk.op(r.ok(), "blockcolumn preload: " + r.status.to_string());
    for (int p = 0; p < 4; ++p) {
      fx.wbuf.push_back(fx.comm->rank(p).memory().alloc(w_.share_bytes()));
      fx.rbuf.push_back(fx.comm->rank(p).memory().alloc(w_.share_bytes()));
    }
  }

  mpiio::RankIo rank_io(int p, u64 mem) const {
    return shifted(w_.rank_io(p, mem), header_);
  }

  Options opt_;
  u64 header_;
  workloads::BlockColumnWorkload w_;
  std::unique_ptr<Fixture> fx_;
};

// load::LoadEngine closed loop at the saturation knee.
class LoadMix : public Workload {
 public:
  explicit LoadMix(const Options& opt) : opt_(opt) {
    lc_.seed = opt.seed;
    lc_.population = opt.smoke ? 8 : 32;
    lc_.file_bytes = opt.smoke ? 64 * kKiB : 256 * kKiB;
    lc_.io_min_bytes = 4 * kKiB;
    lc_.io_max_bytes = opt.smoke ? 16 * kKiB : 64 * kKiB;
    lc_.ramp = Duration::ms(opt.smoke ? 5.0 : 20.0);
    lc_.measure = Duration::ms(opt.smoke ? 20.0 : 200.0);
    lc_.start_jitter = Duration::ms(opt.smoke ? 2.0 : 5.0);
    lc_.interval = Duration::ms(opt.smoke ? 5.0 : 20.0);
    clients_ = opt.smoke ? 8 : 64;
  }

  void prepare(std::vector<double>&, SpanLog&, Checks&) override {}

  Pass pass(u64 iter, SpanLog& log, Checks& chk,
            std::vector<double>& setups) override {
    // A LoadEngine runs once, so every pass stands up a fresh cluster.
    const double t0 = host_now_s();
    ModelConfig cfg = ModelConfig::paper_defaults();
    cfg.pvfs.meta_cpu_queue = true;
    pvfs::Cluster cl(cfg, pvfs::Cluster::Topology{}
                              .clients(clients_)
                              .iods(4)
                              .metadata_shards(2));
    load::LoadEngine engine(cl, lc_);
    setups.push_back(host_now_s() - t0);

    Pass out;
    const Probe before = Probe::take(cl);
    load::LoadSummary s;
    {
      HostTimer ht(out);
      const u64 span = log.begin("LoadEngine::run", 0, iter, 0);
      s = engine.run();
      log.end(span, cl.engine().now().as_ns(),
              stats_attrs(log, cl.stats(), before.stats));
    }
    add_probe_delta(out, cl, before);

    // The summary flags failure without counting it: at least one op.
    chk.ops(s.ops, s.ok ? 0 : 1, "load_mix: LoadSummary::ok is false");
    chk.require(s.ops > 0, "load_mix: no measured ops");
    pvfs::Client& c0 = cl.client(0);
    for (const std::string& name : engine.live_churn_files()) {
      chk.op(c0.stat(name).is_ok(),
             "load_mix: live churn file missing: " + name);
    }
    for (const std::string& name : engine.removed_churn_files()) {
      chk.op(!c0.stat(name).is_ok(),
             "load_mix: removed churn file still present: " + name);
    }

    out.ops = s.ops;
    out.data_ops = s.data_ops;
    out.payload = s.bytes;
    out.io_sim_s = s.measure_secs;
    out.lat_samples = s.latency.count();
    out.p50_us = histogram_percentile_us(s.latency, 50.0);
    out.tail_pct = tail_percentile(out.lat_samples);
    out.tail_us = histogram_percentile_us(s.latency, out.tail_pct);
    out.meta_p50_us = histogram_percentile_us(s.meta_latency, 50.0);
    out.meta_p99_us = histogram_percentile_us(
        s.meta_latency, tail_percentile(s.meta_latency.count()));
    out.fairness = s.fairness;
    out.load_ops = s.ops;
    // Busy times cover the whole simulated run, set-up included.
    out.busy_span_s = cl.engine().now().as_sec();
    out.fingerprint = fingerprint(out, s.fingerprint());
    return out;
  }

 private:
  Options opt_;
  load::LoadConfig lc_;
  u32 clients_ = 64;
};

// Table 5: BTIO, five methods plus the no-I/O baseline.
class Btio : public Workload {
 public:
  explicit Btio(const Options& opt)
      : opt_(opt), header_(header_bytes(opt.seed, 8)) {
    if (opt.smoke) {
      cfg_.timesteps = 20;
      cfg_.pieces_per_proc = 64;
    }
  }

  void prepare(std::vector<double>&, SpanLog&, Checks&) override {}

  Pass pass(u64 iter, SpanLog& log, Checks& chk,
            std::vector<double>& setups) override {
    Pass out;
    std::vector<double> lat;
    const Duration baseline = run_method(std::nullopt, iter, out, lat, log,
                                         chk, setups);
    for (const Table5Row& row : table5_reference()) {
      const Duration total =
          run_method(method_of(row.method), iter, out, lat, log, chk, setups);
      out.ovh_s.push_back((total - baseline).as_sec());
    }
    finish_latency(out, lat);
    out.busy_span_s = out.io_sim_s;
    out.paper_err = paper_err_pct(out.ovh_s);
    const workloads::BtioWorkload w(cfg_);
    chk.require(out.write_bytes == 5 * w.total_file_bytes() &&
                    out.read_bytes == 5 * w.total_file_bytes(),
                "btio: payload per method != file size");
    out.fingerprint = fingerprint(out, "");
    return out;
  }

  ReplayCosts replay() override {
    const workloads::BtioWorkload w(cfg_);
    std::vector<ReplayCall> calls;
    for (int ph = 0; ph < w.output_phases(); ++ph) {
      for (int p = 0; p < cfg_.procs; ++p) {
        calls.push_back({shifted(w.rank_io(ph, p, 0), header_), true});
        calls.push_back({shifted(w.rank_io(ph, p, 0), header_), false});
      }
    }
    return replay_host_costs(calls, w.mem_extent_bytes());
  }

 private:
  static mpiio::IoMethod method_of(std::string_view m) {
    if (m == "multiple") return mpiio::IoMethod::kMultiple;
    if (m == "collective") return mpiio::IoMethod::kCollective;
    if (m == "list") return mpiio::IoMethod::kListIo;
    if (m == "list_ads") return mpiio::IoMethod::kListIoAds;
    return mpiio::IoMethod::kDataSieving;
  }

  // One BTIO run with `method` (nullopt: the no-I/O baseline); returns the
  // end-to-end virtual time.
  Duration run_method(std::optional<mpiio::IoMethod> method, u64 iter,
                      Pass& out, std::vector<double>& lat, SpanLog& log,
                      Checks& chk, std::vector<double>& setups) {
    const workloads::BtioWorkload w(cfg_);
    const int procs = cfg_.procs;
    const double t0 = host_now_s();
    pvfs::Cluster cl(ModelConfig::paper_defaults(), 4, 4);
    mpiio::Communicator comm(cl);
    const u64 cs = log.begin("File::create", 0, iter, 0);
    Result<mpiio::File> created = mpiio::File::create(comm, "/btio");
    log.end(cs, comm.rank(0).now().as_ns());
    chk.require(created.is_ok(),
                "btio create: " + created.status().to_string());
    if (!created.is_ok()) return Duration::zero();
    mpiio::File f = created.value();
    const u64 extent = w.mem_extent_bytes();
    std::vector<u64> wbuf(procs), rbuf(procs);
    for (int p = 0; p < procs; ++p) {
      wbuf[p] = comm.rank(p).memory().alloc(extent);
      rbuf[p] = comm.rank(p).memory().alloc(extent);
    }
    if (method) setups.push_back(host_now_s() - t0);

    mpiio::Hints hints;
    if (method) hints.method = *method;
    const std::string tag =
        method ? mpiio::to_string(*method) : std::string("no I/O");
    const Probe before = Probe::take(cl);
    std::vector<u8> expect(extent);
    const mpiio::Datatype memtype = w.memtype();
    int phase = 0;
    for (int step = 1; step <= cfg_.timesteps; ++step) {
      for (int p = 0; p < procs; ++p) {
        pvfs::Client& c = comm.rank(p);
        c.advance_to(c.now() + cfg_.step_compute);
      }
      if (!method || step % cfg_.write_interval != 0) continue;
      std::vector<mpiio::RankIo> io(procs);
      for (int p = 0; p < procs; ++p) {
        fill_pattern(comm.rank(p).memory().writable_span(wbuf[p], extent),
                     opt_.seed, static_cast<u64>(phase), static_cast<u64>(p));
        io[p] = shifted(w.rank_io(phase, p, wbuf[p]), header_);
      }
      std::vector<pvfs::IoResult> rs;
      {
        HostTimer ht(out);
        const u64 op = (iter << 20) + static_cast<u64>(phase);
        const Stats b = log.enabled() ? cl.stats() : Stats{};
        const u64 s = log.begin("File::write_all " + tag, 0, op,
                                comm.rank(0).now().as_ns());
        rs = f.write_all(io, hints);
        log.end(s, comm.rank(0).now().as_ns(),
                stats_attrs(log, cl.stats(), b));
        CallSpans{log, s, op}.ranks(rs);
      }
      record_call(out, lat, rs, true, chk, "btio write");
      ++phase;
    }
    // Read-back verification pass (BTIO's final phase).
    for (int ph = 0; method && ph < w.output_phases(); ++ph) {
      std::vector<mpiio::RankIo> io(procs);
      for (int p = 0; p < procs; ++p) {
        io[p] = shifted(w.rank_io(ph, p, rbuf[p]), header_);
      }
      std::vector<pvfs::IoResult> rs;
      {
        HostTimer ht(out);
        const u64 op = (iter << 20) + (1u << 16) + static_cast<u64>(ph);
        const Stats b = log.enabled() ? cl.stats() : Stats{};
        const u64 s = log.begin("File::read_all " + tag, 0, op,
                                comm.rank(0).now().as_ns());
        rs = f.read_all(io, hints);
        log.end(s, comm.rank(0).now().as_ns(),
                stats_attrs(log, cl.stats(), b));
        CallSpans{log, s, op}.ranks(rs);
      }
      record_call(out, lat, rs, false, chk, "btio read");
      for (int p = 0; p < procs; ++p) {
        fill_pattern(std::as_writable_bytes(std::span<u8>(expect)), opt_.seed,
                     static_cast<u64>(ph), static_cast<u64>(p));
        const auto got = comm.rank(p).memory().readable_span(rbuf[p], extent);
        bool same = true;
        for (const Extent& e : memtype.map()) {
          same = same && std::memcmp(got.data() + e.offset,
                                     expect.data() + e.offset, e.length) == 0;
        }
        chk.op(same, "btio " + tag + ": read-back of phase " +
                         std::to_string(ph) + " differs");
      }
    }
    if (method) add_probe_delta(out, cl, before);
    TimePoint end = TimePoint::origin();
    for (int p = 0; p < procs; ++p) end = max(end, comm.rank(p).now());
    return end - TimePoint::origin();
  }

  Options opt_;
  u64 header_;
  workloads::BtioConfig cfg_;
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "blockcolumn") return std::make_unique<BlockColumn>(opt);
  if (opt.workload == "load_mix") return std::make_unique<LoadMix>(opt);
  if (opt.workload == "btio") return std::make_unique<Btio>(opt);
  return nullptr;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> host_of(const std::vector<Pass>& ps) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(p.host_s);
  return v;
}

void end_to_end(const Pass& p, const std::vector<Pass>& plain,
                const std::vector<double>& setups, RunResult& r) {
  r.metrics["sim_mib_s"] =
      ratio(static_cast<double>(p.payload) / static_cast<double>(kMiB),
            p.io_sim_s);
  r.metrics["sim_ops_per_s"] = ratio(static_cast<double>(p.ops), p.io_sim_s);
  r.metrics["sim_op_p50_us"] = p.p50_us;
  r.metrics["sim_op_p99_us"] = p.tail_us;
  r.metrics["host_wall_s"] = median(host_of(plain));
  r.metrics["peak_rss_mib"] = peak_rss_mib();
  r.metrics["setup_s"] = median(setups);
}

void per_layer(const Pass& p, const std::vector<Pass>& traced,
               const std::vector<Pass>& plain, const ReplayCosts& rc,
               RunResult& r) {
  auto& m = r.metrics;
  const Stats& d = p.delta;
  auto get = [&](const char* k) { return static_cast<double>(d.get(k)); };
  const double mib = static_cast<double>(kMiB);
  const double ops = static_cast<double>(p.ops);
  const double data_ops = static_cast<double>(p.data_ops);
  const double payload = static_cast<double>(p.payload);

  m["sim_write_mib_s"] =
      ratio(static_cast<double>(p.write_bytes) / mib, p.write_sim_s);
  m["sim_read_mib_s"] =
      ratio(static_cast<double>(p.read_bytes) / mib, p.read_sim_s);
  m["paper_err_pct"] = p.paper_err;
  m["op_error_rate"] = ratio(static_cast<double>(r.failed),
                             static_cast<double>(r.attempted));

  m["mpiio.requests_per_op"] =
      ratio(get(stat::kPvfsRequest), static_cast<double>(p.mpiio_calls));
  m["mpiio.c2c_mib"] = get(stat::kNetBytesInterClient) / mib;
  for (size_t i = 0; i < table5_reference().size(); ++i) {
    m["mpiio.ovh_s." + std::string(table5_reference()[i].method)] =
        i < p.ovh_s.size() ? p.ovh_s[i] : 0.0;
  }
  m["mpiio.host_flatten_us"] = rc.flatten_us;

  m["client.rounds"] = get(stat::kPvfsRequest);
  m["client.stall_sim_us"] = p.phases.stall.as_us();
  m["client.retries"] = get(stat::kPvfsRetries);
  m["client.host_us_per_data_op"] =
      ratio(median(host_of(plain)) * 1e6, data_ops);

  m["reg.sim_us_per_op"] = ratio(p.phases.registration.as_us(), data_ops);
  m["ogr.groups"] = get(stat::kOgrGroups);
  m["ogr.fallbacks"] = get(stat::kOgrFallbacks);
  m["ib.mr.register"] = get(stat::kMrRegister);
  m["ib.mr.cache_hit_ratio"] =
      ratio(get(stat::kMrCacheHit),
            get(stat::kMrCacheHit) + get(stat::kMrCacheMiss));
  m["ogr.host_acquire_us"] = rc.acquire_us;

  m["wire.sim_us_per_op"] = ratio(p.phases.wire.as_us(), data_ops);
  m["ib.rdma_ops"] = get(stat::kRdmaWrite) + get(stat::kRdmaRead);
  m["ib.sends"] = get(stat::kSend);
  m["net.data_per_payload"] = ratio(get(stat::kNetBytesData), payload);
  m["ib.nic_util.client"] =
      ratio(p.client_nic_s, p.busy_span_s * static_cast<double>(p.clients));
  m["ib.nic_util.iod"] =
      ratio(p.iod_nic_s, p.busy_span_s * static_cast<double>(p.iods));

  m["ads.sieved"] = get(stat::kAdsSieved);
  m["ads.separate"] = get(stat::kAdsSeparate);
  m["ads.useful_ratio"] =
      ratio(payload, payload + get(stat::kAdsExtraBytes));
  m["ads.host_decide_us"] = rc.decide_us;

  m["disk.sim_us_per_op"] = ratio(p.phases.disk.as_us(), data_ops);
  m["disk.seeks"] = get(stat::kDiskSeek);
  m["disk.read_mib"] = get(stat::kDiskReadBytes) / mib;
  m["disk.write_mib"] = get(stat::kDiskWriteBytes) / mib;
  m["disk.cache_hit_ratio"] =
      ratio(get(stat::kCacheHitBytes),
            get(stat::kCacheHitBytes) + get(stat::kCacheMissBytes));
  double util_sum = 0.0, util_max = 0.0;
  for (double b : p.disk_busy_s) {
    const double u = ratio(b, p.busy_span_s);
    util_sum += u;
    util_max = std::max(util_max, u);
  }
  const double util_mean =
      ratio(util_sum, static_cast<double>(p.disk_busy_s.size()));
  m["iod.disk_util"] = util_mean;
  m["iod.disk_util_max_over_mean"] = ratio(util_max, util_mean);

  m["meta.sim_p50_us"] = p.meta_p50_us;
  m["meta.sim_p99_us"] = p.meta_p99_us;
  m["meta.retries"] = get(stat::kPvfsMetaRetries);
  m["meta.shard_redirects"] = get(stat::kPvfsShardRedirects);

  std::vector<double> user, sys, flt;
  for (const Pass& x : plain) {
    user.push_back(x.usage.user_s);
    sys.push_back(x.usage.sys_s);
    flt.push_back(x.usage.minflt);
  }
  const double host = median(host_of(plain));
  m["vmem.mapped_mib"] = p.mapped_mib;
  m["host.user_s"] = median(user);
  m["host.sys_s"] = median(sys);
  m["host.minflt"] = median(flt);
  m["host.ns_per_payload_byte"] = ratio(host * 1e9, payload);

  const double events = static_cast<double>(p.events);
  m["sim.events"] = events;
  m["sim.events_per_host_s"] = ratio(events, host);
  m["sim.events_per_op"] = ratio(events, ops);
  m["load.ops"] = static_cast<double>(p.load_ops);
  m["load.fairness"] = p.fairness;
  m["trace.overhead_s"] = median(host_of(traced)) - host;
}

void print_report(const Options& opt, const std::vector<Pass>& plain,
                  const std::vector<double>& setups, const RunResult& r) {
  const Pass& p = plain.front();
  std::printf("workload %s seed %llu\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("  host seconds per untraced pass:");
  for (double h : host_of(plain)) std::printf(" %.4f", h);
  std::printf("\n  host CPU seconds (user+sys) per untraced pass:");
  for (const Pass& x : plain) {
    std::printf(" %.4f", x.usage.user_s + x.usage.sys_s);
  }
  std::printf("\n  set-up seconds:");
  for (double t : setups) std::printf(" %.4f", t);
  std::printf("\n  sim_op_p99_us is the p%g of %llu samples\n", p.tail_pct,
              static_cast<unsigned long long>(p.lat_samples));
  for (const auto& [name, value] : r.metrics) {
    const MetricSpec* spec = find_metric(name);
    std::printf("  %-32s %16.6f %s\n", name.c_str(), value,
                spec ? std::string(spec->unit).c_str() : "");
  }
  std::printf("  op_error_rate %llu/%llu\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
}

}  // namespace

std::span<const std::string_view> workload_names() { return kWorkloads; }

RunResult run_workload(const Options& opt) {
  RunResult result;
  std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) {
    result.correct = false;
    return result;
  }
  Checks chk;
  std::vector<double> setups;
  SpanLog log(opt.trace);
  w->prepare(setups, log, chk);

  // Untraced passes give the end-to-end numbers. A traced run alternates
  // traced and untraced passes, so both host medians come from one
  // process and their difference is the tracing overhead.
  std::vector<Pass> plain, traced;
  const double t0 = host_now_s();
  for (u64 iter = 1;; ++iter) {
    const bool on = opt.trace && iter % 2 == 1;
    log.set_enabled(on);
    Pass p = w->pass(iter, log, chk, setups);
    (on ? traced : plain).push_back(std::move(p));
    const bool enough = !plain.empty() && (!opt.trace || !traced.empty());
    if (enough && host_now_s() - t0 >= opt.seconds) break;
  }
  log.set_enabled(false);

  // Determinism guard: every pass of one seed must simulate identically.
  const Pass& first = plain.front();
  for (const std::vector<Pass>* set : {&plain, &traced}) {
    for (const Pass& p : *set) {
      chk.require(p.fingerprint == first.fingerprint,
                  "nondeterministic simulation: pass results differ");
      chk.require(p.delta.get(stat::kPvfsRetries) == 0,
                  "client.retries is nonzero");
      chk.require(p.delta.get(stat::kPvfsMetaRetries) == 0,
                  "meta.retries is nonzero");
    }
  }

  result.attempted = chk.attempted();
  result.failed = chk.failed();
  if (opt.trace) {
    per_layer(first, traced, plain, w->replay(), result);
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    chk.require(log.write_jsonl(path), "cannot write span log " + path);
    std::printf("span log: %s (%zu spans)\n", path.c_str(),
                log.spans().size());
  } else {
    end_to_end(first, plain, setups, result);
  }
  result.correct = chk.correct();
  print_report(opt, plain, setups, result);
  return result;
}

}  // namespace perfbench

#include "metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr Better kLo = Better::kLower;
constexpr Better kHi = Better::kHigher;

constexpr MetricSpec kEndToEnd[] = {
    {"sim_mib_s", "MiB/s", kHi},
    {"sim_ops_per_s", "1/s", kHi},
    {"sim_op_p50_us", "us", kLo},
    {"sim_op_p99_us", "us", kLo},
    {"host_wall_s", "s", kLo},
    {"peak_rss_mib", "MiB", kLo},
    {"setup_s", "s", kLo},
};

constexpr MetricSpec kPerLayer[] = {
    // Workload-scoped results (0 where the workload has no such leg).
    {"sim_write_mib_s", "MiB/s", kHi},
    {"sim_read_mib_s", "MiB/s", kHi},
    {"paper_err_pct", "%", kLo},
    {"op_error_rate", "ratio", kLo},
    // mpiio
    {"mpiio.requests_per_op", "count", kLo},
    {"mpiio.c2c_mib", "MiB", kLo},
    {"mpiio.ovh_s.multiple", "s", kLo},
    {"mpiio.ovh_s.collective", "s", kLo},
    {"mpiio.ovh_s.list", "s", kLo},
    {"mpiio.ovh_s.list_ads", "s", kLo},
    {"mpiio.ovh_s.sieving", "s", kLo},
    {"mpiio.host_flatten_us", "us", kLo},
    // pvfs client
    {"client.rounds", "count", kLo},
    {"client.stall_sim_us", "us", kLo},
    {"client.retries", "count", kLo},
    {"client.host_us_per_data_op", "us", kLo},
    // core.ogr + ib.mr_cache
    {"reg.sim_us_per_op", "us", kLo},
    {"ogr.groups", "count", kLo},
    {"ogr.fallbacks", "count", kLo},
    {"ib.mr.register", "count", kLo},
    {"ib.mr.cache_hit_ratio", "ratio", kHi},
    {"ogr.host_acquire_us", "us", kLo},
    // core.transfer + ib
    {"wire.sim_us_per_op", "us", kLo},
    {"ib.rdma_ops", "count", kLo},
    {"ib.sends", "count", kLo},
    {"net.data_per_payload", "ratio", kLo},
    {"ib.nic_util.client", "ratio", kLo},
    {"ib.nic_util.iod", "ratio", kLo},
    // core.ads
    {"ads.sieved", "count", kHi},
    {"ads.separate", "count", kLo},
    {"ads.useful_ratio", "ratio", kHi},
    {"ads.host_decide_us", "us", kLo},
    // pvfs iod + disk
    {"disk.sim_us_per_op", "us", kLo},
    {"disk.seeks", "count", kLo},
    {"disk.read_mib", "MiB", kLo},
    {"disk.write_mib", "MiB", kLo},
    {"disk.cache_hit_ratio", "ratio", kHi},
    {"iod.disk_util", "ratio", kLo},
    {"iod.disk_util_max_over_mean", "ratio", kLo},
    // pvfs manager + meta_client
    {"meta.sim_p50_us", "us", kLo},
    {"meta.sim_p99_us", "us", kLo},
    {"meta.retries", "count", kLo},
    {"meta.shard_redirects", "count", kLo},
    // vmem and host
    {"vmem.mapped_mib", "MiB", kLo},
    {"host.user_s", "s", kLo},
    {"host.sys_s", "s", kLo},
    {"host.minflt", "count", kLo},
    {"host.ns_per_payload_byte", "ns", kLo},
    // sim and load
    {"sim.events", "count", kLo},
    {"sim.events_per_host_s", "1/s", kHi},
    {"sim.events_per_op", "count", kLo},
    {"load.ops", "count", kHi},
    {"load.fairness", "ratio", kHi},
    {"trace.overhead_s", "s", kLo},
};

// The percentiles a tail may be reported at, lowest first.
constexpr double kTailCandidates[] = {50.0, 90.0, 99.0};

constexpr Table5Row kTable5[] = {
    {"multiple", 14.4}, {"collective", 4.0}, {"list", 2.6},
    {"list_ads", 2.1},  {"sieving", 11.7},
};

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

const MetricSpec* find_metric(std::string_view name) {
  for (std::span<const MetricSpec> set : {end_to_end_metrics(),
                                          per_layer_metrics()}) {
    for (const MetricSpec& m : set) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

double tail_percentile(u64 samples) {
  for (auto it = std::rbegin(kTailCandidates); it != std::rend(kTailCandidates);
       ++it) {
    // Nearest rank of percentile p is ceil(p * n / 100); the samples
    // strictly beyond it are n - rank.
    const u64 pct = static_cast<u64>(*it);
    const u64 rank = (pct * samples + 99) / 100;
    if (samples - rank >= 10) return *it;
  }
  return 100.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double histogram_percentile_us(const pvfsib::LatencyHistogram& h, double p) {
  const u64 n = h.count();
  if (n == 0) return 0.0;
  const u64 r = std::clamp<u64>(
      static_cast<u64>(std::ceil(p / 100.0 * static_cast<double>(n))), 1, n);
  // Value (bucket midpoint) of the k-th smallest sample.
  auto at = [&](u64 k) {
    return h.quantile(static_cast<double>(k) / static_cast<double>(n)).as_ns();
  };
  const pvfsib::i64 v = at(r);
  u64 lo = 1, hi = r;  // first rank in v's bucket
  while (lo < hi) {
    const u64 mid = lo + (hi - lo) / 2;
    if (at(mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const u64 first = lo;
  lo = r;
  hi = n;  // last rank in v's bucket
  while (lo < hi) {
    const u64 mid = lo + (hi - lo + 1) / 2;
    if (at(mid) > v) {
      hi = mid - 1;
    } else {
      lo = mid;
    }
  }
  const u64 count = lo - first + 1;
  double ns = static_cast<double>(v);
  if (v >= 16) {
    // Buckets split each octave [2^e, 2^(e+1)) into 16 equal widths.
    const int e = std::bit_width(static_cast<u64>(v)) - 1;
    const double width = static_cast<double>(pvfsib::i64{1} << (e - 4));
    const double edge = static_cast<double>(v) - std::floor(width / 2);
    ns = edge + width * (static_cast<double>(r - first) + 0.5) /
                    static_cast<double>(count);
  }
  ns = std::clamp(ns, static_cast<double>(h.min().as_ns()),
                  static_cast<double>(h.max().as_ns()));
  return ns / 1e3;
}

std::span<const Table5Row> table5_reference() { return kTable5; }

double paper_err_pct(std::span<const double> measured_ovh_s) {
  const std::span<const Table5Row> ref = table5_reference();
  if (measured_ovh_s.size() != ref.size()) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    sum += std::fabs(measured_ovh_s[i] - ref[i].paper_ovh_s) /
           ref[i].paper_ovh_s;
  }
  return 100.0 * sum / static_cast<double>(ref.size());
}

std::string result_json(const RunResult& r) {
  char buf[128];
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  out += buf;
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    const MetricSpec* spec = find_metric(name);
    const double v = std::isfinite(value) ? value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  first ? "" : ", ", name.c_str(), v);
    out += buf;
    out += "\"unit\": \"";
    out += spec != nullptr ? spec->unit : "";
    out += "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

// The benchmark's metric catalogue and the arithmetic behind its numbers:
// names, units and directions of every metric, the rule that picks which
// tail percentile a sample count can support, exact order statistics, the
// Table 5 accuracy error, and the one-line JSON result.
#pragma once

#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace perfbench {

using pvfsib::u64;

enum class Better { kLower, kHigher };

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  Better better;
};

// Printed by every workload in an untraced run (--trace 0).
std::span<const MetricSpec> end_to_end_metrics();
// Printed by every workload in a traced run (--trace 1).
std::span<const MetricSpec> per_layer_metrics();
// Either catalogue; null when `name` is in neither.
const MetricSpec* find_metric(std::string_view name);

// The highest of p50, p90 and p99 that leaves at least ten of `samples`
// beyond it; 100 (the maximum) when even the median does not.
double tail_percentile(u64 samples);
// Nearest-rank percentile of `values` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
// Nearest-rank percentile of a LatencyHistogram, in microseconds, linearly
// interpolated inside the histogram bucket that holds the rank. The
// histogram alone reports bucket midpoints, 6.25 % apart; spreading the
// bucket's samples evenly over its width resolves runs whose tails differ
// by less than one bucket.
double histogram_percentile_us(const pvfsib::LatencyHistogram& h, double p);

// Table 5 of the paper: BTIO I/O overhead per method, in the order the
// btio workload runs them.
struct Table5Row {
  std::string_view method;  // metric suffix, e.g. "list_ads"
  double paper_ovh_s;
};
std::span<const Table5Row> table5_reference();
// Mean absolute relative error, in percent, of `measured_ovh_s` (one entry
// per table5_reference() row, same order) against the paper.
double paper_err_pct(std::span<const double> measured_ovh_s);

// Metric values of one run plus the outcome counters, rendered as the
// benchmark's last output line.
struct RunResult {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::map<std::string, double> metrics;
};

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name:
// {"value": v, "unit": u}}} with units from the catalogue and every digit
// of each value.
std::string result_json(const RunResult& r);

}  // namespace perfbench

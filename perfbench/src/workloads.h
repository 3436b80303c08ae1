// The benchmark's workloads, each driven through the library's public API:
//
//   blockcolumn  Fig. 5 block-column access at N=4096, List I/O + ADS:
//                seeded write, drop caches, cold read-back, byte compare
//   load_mix     load::LoadEngine closed loop, 64 clients x 4 iods x 2
//                metadata shards, default Zipf(0.99) mix
//   btio         Table 5: BTIO with all five methods plus the no-I/O
//                baseline, read-back verified
//
// A run sets up, repeats measured passes for the requested host seconds,
// checks every output, and returns either the end-to-end metrics (untraced)
// or the per-layer metrics (traced). README.md defines every metric.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "metrics.h"

namespace perfbench {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Shrunken inputs, for the smoke tests: same code paths, seconds not
  // minutes.
  bool smoke = false;
  // Where a traced run writes its span log.
  std::string out_dir = ".";
};

std::span<const std::string_view> workload_names();

// Runs one workload; prints a human-readable report to stdout and check
// failures to stderr. The caller prints result_json() of the return value.
RunResult run_workload(const Options& opt);

}  // namespace perfbench

// Benchmark runner: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out DIR]
//
// Prints a human-readable report, then as its last line the JSON result
// (correct, attempted, failed, metrics). Exits 0 only when every check
// passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metrics.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (std::string_view w : perfbench::workload_names()) {
    known = known || w == opt.workload;
  }
  if (!known) return usage(("unknown workload '" + opt.workload + "'").c_str());
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RunResult r = perfbench::run_workload(opt);
  for (const auto& [name, value] : r.metrics) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "check failed: metric %s is not finite\n",
                   name.c_str());
      r.correct = false;
    }
  }
  std::printf("%s\n", perfbench::result_json(r).c_str());
  return r.correct ? 0 : 1;
}

// Host-side measurement helpers for the benchmark runner: a monotonic host
// clock, getrusage snapshots, and the in-memory span recorder of a traced
// run.
//
// Spans wrap the runner's own calls into the library (File::create,
// Client::write, File::write_all/read_all, Cluster::drop_all_caches,
// LoadEngine::run); each carries its name, host and simulated start/end,
// the id of the operation it belongs to, its parent span, and free-form
// attributes (IoPhases, Stats deltas). Nothing is recorded while tracing
// is off; the whole log is written out once, when the run ends.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using pvfsib::i64;
using pvfsib::u64;

// Host seconds since an arbitrary fixed origin.
inline double host_now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;

  static Usage now();
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minflt - o.minflt};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minflt += o.minflt;
    return *this;
  }
};

// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

class SpanLog {
 public:
  using Attrs = std::vector<std::pair<std::string, double>>;

  struct Span {
    std::string name;
    u64 id = 0;
    u64 parent = 0;  // 0: a root span
    u64 op = 0;      // operation the span belongs to
    double host_start_s = 0.0;
    double host_end_s = 0.0;
    i64 sim_start_ns = 0;
    i64 sim_end_ns = 0;
    Attrs attrs;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool v) { enabled_ = v; }

  // Open a span now; returns its id (0 while disabled).
  u64 begin(std::string name, u64 parent, u64 op, i64 sim_start_ns);
  // Close span `id` now. No-op for id 0.
  void end(u64 id, i64 sim_end_ns, Attrs attrs = {});
  // Record an already finished child span (host times of its parent).
  void child(std::string name, u64 parent, u64 op, i64 sim_start_ns,
             i64 sim_end_ns, Attrs attrs);

  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

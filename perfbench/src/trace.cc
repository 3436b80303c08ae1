#include "trace.h"

#include <sys/resource.h>

#include <cstdio>

namespace perfbench {

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

}  // namespace

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {tv_s(ru.ru_utime), tv_s(ru.ru_stime),
          static_cast<double>(ru.ru_minflt)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

u64 SpanLog::begin(std::string name, u64 parent, u64 op, i64 sim_start_ns) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.sim_start_ns = sim_start_ns;
  s.host_start_s = host_now_s();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::end(u64 id, i64 sim_end_ns, Attrs attrs) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  s.host_end_s = host_now_s();
  s.sim_end_ns = sim_end_ns;
  s.attrs = std::move(attrs);
}

void SpanLog::child(std::string name, u64 parent, u64 op, i64 sim_start_ns,
                    i64 sim_end_ns, Attrs attrs) {
  if (!enabled_ || parent == 0 || parent > spans_.size()) return;
  const Span& p = spans_[parent - 1];
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.host_start_s = p.host_start_s;
  s.host_end_s = p.host_end_s;
  s.sim_start_ns = sim_start_ns;
  s.sim_end_ns = sim_end_ns;
  s.attrs = std::move(attrs);
  spans_.push_back(std::move(s));
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"op\": %llu, \"host_start_s\": %.9f, \"host_end_s\": %.9f, "
                 "\"sim_start_ns\": %lld, \"sim_end_ns\": %lld, \"attrs\": {",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.host_start_s,
                 s.host_end_s, static_cast<long long>(s.sim_start_ns),
                 static_cast<long long>(s.sim_end_ns));
    for (size_t i = 0; i < s.attrs.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "",
                   s.attrs[i].first.c_str(), s.attrs[i].second);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

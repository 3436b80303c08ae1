// Unit tests for the benchmark's own arithmetic and catalogue, plus a
// short-run smoke test of every workload (the ctest smoke entries run the
// binary itself; these run the library entry point in-process).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(TailPercentile, PicksHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99.0);   // rank 990, 10 beyond
  EXPECT_EQ(tail_percentile(999), 90.0);    // p99 leaves only 9
  EXPECT_EQ(tail_percentile(100), 90.0);    // rank 90, 10 beyond
  EXPECT_EQ(tail_percentile(99), 50.0);     // p90 leaves 9
  EXPECT_EQ(tail_percentile(20), 50.0);     // rank 10, 10 beyond
  EXPECT_EQ(tail_percentile(19), 100.0);    // nothing qualifies: the max
  EXPECT_EQ(tail_percentile(8), 100.0);
  EXPECT_EQ(tail_percentile(0), 100.0);
  EXPECT_EQ(tail_percentile(1'000'000), 99.0);  // capped at p99
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(HistogramPercentile, InterpolatesInsideBuckets) {
  pvfsib::LatencyHistogram h;
  for (int ns = 1000; ns < 2000; ++ns) h.record(pvfsib::Duration::ns(ns));
  // Uniform samples: interpolation recovers the exact order statistic to
  // within a nanosecond, where the bucket midpoint is off by up to 32 ns.
  EXPECT_NEAR(histogram_percentile_us(h, 50.0), 1.499, 0.001);
  EXPECT_NEAR(histogram_percentile_us(h, 99.0), 1.989, 0.001);
  EXPECT_NEAR(histogram_percentile_us(h, 100.0), 1.999, 0.001);
  // The lowest samples only half-fill their 32 ns bucket [992, 1024), so
  // the even spread places rank 10 inside the bucket, not on 1009.
  EXPECT_GE(histogram_percentile_us(h, 1.0), 0.992);
  EXPECT_LT(histogram_percentile_us(h, 1.0), 1.024);

  pvfsib::LatencyHistogram one;
  one.record(pvfsib::Duration::us(250.0));
  EXPECT_DOUBLE_EQ(histogram_percentile_us(one, 50.0), 250.0);
  EXPECT_EQ(histogram_percentile_us(pvfsib::LatencyHistogram{}, 50.0), 0.0);

  pvfsib::LatencyHistogram small;  // exact unit buckets below 16 ns
  for (int ns = 1; ns <= 10; ++ns) small.record(pvfsib::Duration::ns(ns));
  EXPECT_DOUBLE_EQ(histogram_percentile_us(small, 50.0), 0.005);
}

TEST(Catalogue, NamesUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (auto set : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricSpec& m : set) {
      EXPECT_TRUE(seen.insert(std::string(m.name)).second) << m.name;
      ASSERT_FALSE(m.name.empty());
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(m.name[0])));
      EXPECT_LE(m.name.size(), 64u);
      for (char c : m.name) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-')
            << m.name;
      }
      EXPECT_FALSE(m.unit.empty()) << m.name;
      EXPECT_LE(m.unit.size(), 16u);
      EXPECT_EQ(find_metric(m.name), &m);
    }
  }
  EXPECT_EQ(find_metric("no_such_metric"), nullptr);
}

TEST(Catalogue, EndToEndUnitsAndDirections) {
  struct Want {
    const char* name;
    const char* unit;
    Better better;
  };
  const Want want[] = {
      {"sim_mib_s", "MiB/s", Better::kHigher},
      {"sim_ops_per_s", "1/s", Better::kHigher},
      {"sim_op_p50_us", "us", Better::kLower},
      {"sim_op_p99_us", "us", Better::kLower},
      {"host_wall_s", "s", Better::kLower},
      {"peak_rss_mib", "MiB", Better::kLower},
      {"setup_s", "s", Better::kLower},
  };
  ASSERT_EQ(end_to_end_metrics().size(), std::size(want));
  for (const Want& w : want) {
    const MetricSpec* m = find_metric(w.name);
    ASSERT_NE(m, nullptr) << w.name;
    EXPECT_EQ(m->unit, w.unit) << w.name;
    EXPECT_EQ(m->better, w.better) << w.name;
  }
  EXPECT_EQ(find_metric("paper_err_pct")->unit, "%");
  EXPECT_EQ(find_metric("trace.overhead_s")->unit, "s");
}

TEST(PaperErr, Table5References) {
  const auto ref = table5_reference();
  ASSERT_EQ(ref.size(), 5u);
  EXPECT_EQ(ref[0].method, "multiple");
  EXPECT_DOUBLE_EQ(ref[0].paper_ovh_s, 14.4);
  EXPECT_DOUBLE_EQ(ref[1].paper_ovh_s, 4.0);
  EXPECT_DOUBLE_EQ(ref[2].paper_ovh_s, 2.6);
  EXPECT_DOUBLE_EQ(ref[3].paper_ovh_s, 2.1);
  EXPECT_DOUBLE_EQ(ref[4].paper_ovh_s, 11.7);

  const double exact[] = {14.4, 4.0, 2.6, 2.1, 11.7};
  EXPECT_DOUBLE_EQ(paper_err_pct(exact), 0.0);
  const double half[] = {7.2, 2.0, 1.3, 1.05, 5.85};
  EXPECT_NEAR(paper_err_pct(half), 50.0, 1e-9);
  const double doubled[] = {28.8, 8.0, 5.2, 4.2, 23.4};  // over, not under
  EXPECT_NEAR(paper_err_pct(doubled), 100.0, 1e-9);
  // The EXPERIMENTS.md Table 5 rows: about 69 %.
  const double measured[] = {3.05, 0.70, 1.29, 1.01, 2.18};
  EXPECT_NEAR(paper_err_pct(measured), 69.0, 0.1);
  const double wrong_size[] = {1.0};
  EXPECT_EQ(paper_err_pct(wrong_size), 0.0);
}

TEST(ResultJson, KeysUnitsAndDigits) {
  RunResult r;
  r.attempted = 12;
  r.failed = 0;
  r.metrics["setup_s"] = 0.123456789012345;
  r.metrics["sim_mib_s"] = 250.5;
  EXPECT_EQ(result_json(r),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.123456789012345, "
            "\"unit\": \"s\"}, \"sim_mib_s\": {\"value\": 250.5, \"unit\": "
            "\"MiB/s\"}}}");
}

// Short in-process run of each workload in both modes: every catalogue
// metric is present and finite, and every check passes.
class Smoke : public ::testing::TestWithParam<const char*> {};

TEST_P(Smoke, ReportsEveryMetricAndPassesChecks) {
  for (bool trace : {false, true}) {
    Options opt;
    opt.workload = GetParam();
    opt.seed = 3;
    opt.seconds = 0.01;
    opt.trace = trace;
    opt.smoke = true;
    opt.out_dir = ::testing::TempDir();
    const RunResult r = run_workload(opt);
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    const auto want = trace ? per_layer_metrics() : end_to_end_metrics();
    EXPECT_EQ(r.metrics.size(), want.size());
    for (const MetricSpec& m : want) {
      const auto it = r.metrics.find(std::string(m.name));
      ASSERT_NE(it, r.metrics.end()) << m.name;
      EXPECT_TRUE(std::isfinite(it->second)) << m.name;
      if (!trace) {
        EXPECT_GT(it->second, 0.0) << m.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("blockcolumn", "load_mix", "btio"));

}  // namespace
}  // namespace perfbench

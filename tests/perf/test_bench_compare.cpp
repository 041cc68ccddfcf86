#include "perf/bench_compare.hpp"

#include <gtest/gtest.h>

namespace tbi::perf {
namespace {

/// A miniature bench document in the shape the six bench --json sinks
/// emit: config + wall time + a record array with mixed metric classes.
Json fixture_doc() {
  Json doc;
  doc["bench"] = "bench_fixture";
  Json config;
  config["device"] = "LPDDR5-8533";
  config["frames"] = 40;
  config["threads"] = 1;
  doc["config"] = config;
  doc["wall_seconds"] = 2.0;
  doc["scenarios_per_second"] = 18.0;
  Json::Array rows;
  for (int i = 0; i < 3; ++i) {
    Json row;
    row["interleaver"] = i == 0 ? "none" : (i == 1 ? "triangular" : "two-stage");
    row["channel"] = "leo";
    row["rs_k"] = 223;
    row["word_errors"] = 10 * i;
    row["fer"] = 0.25 * i;
    row["steady_allocations"] = 0;
    row["allocations_per_frame"] = 0.0;
    row["workspace_peak_bytes"] = 100000;
    row["host_ns"] = 5000000;
    row["channel_symbols_per_second"] = 1e8;
    rows.push_back(row);
  }
  doc["records"] = rows;
  Json perf;
  perf["process_allocations"] = 123456;
  doc["perf"] = perf;
  return doc;
}

TEST(ClassifyMetric, FollowsNamingConventions) {
  EXPECT_EQ(classify_metric("word_errors"), MetricKind::Exact);
  EXPECT_EQ(classify_metric("fer"), MetricKind::Exact);
  EXPECT_EQ(classify_metric("steady_allocations"), MetricKind::Exact);
  EXPECT_EQ(classify_metric("allocations_per_frame"), MetricKind::Exact);
  EXPECT_EQ(classify_metric("wall_seconds"), MetricKind::TimeUp);
  EXPECT_EQ(classify_metric("host_ns"), MetricKind::TimeUp);
  EXPECT_EQ(classify_metric("sched_ns_per_pick"), MetricKind::TimeUp);
  EXPECT_EQ(classify_metric("ns_per_pick"), MetricKind::TimeUp);
  EXPECT_EQ(classify_metric("bursts_per_second"), MetricKind::TimeDown);
  EXPECT_EQ(classify_metric("channel_symbols_per_second"), MetricKind::TimeDown);
  EXPECT_EQ(classify_metric("workspace_peak_bytes"), MetricKind::Size);
  EXPECT_EQ(classify_metric("threads"), MetricKind::Ignored);
  EXPECT_EQ(classify_metric("process_allocations"), MetricKind::Ignored);
}

TEST(CompareBench, IdenticalDocumentsPass) {
  const Json doc = fixture_doc();
  const auto report = compare_bench(doc, doc);
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_GT(report.metrics_compared, 10u);
  EXPECT_GE(report.metrics_ignored, 2u);  // threads + process_allocations
}

TEST(CompareBench, PerturbedExactMetricFailsWithCellContext) {
  // The acceptance fixture: perturb one deterministic counter in one
  // record and the compare must go non-zero with a report naming the cell.
  const Json baseline = fixture_doc();
  Json candidate = fixture_doc();
  candidate["records"].as_array();  // type check
  Json::Array rows = baseline.at("records").as_array();
  rows[1]["word_errors"] = 11;  // was 10
  candidate["records"] = rows;

  const auto report = compare_bench(baseline, candidate);
  ASSERT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].path.find("records[1]"), std::string::npos);
  EXPECT_NE(report.failures[0].path.find("triangular"), std::string::npos)
      << "cell context label missing: " << report.failures[0].path;
  EXPECT_NE(report.failures[0].path.find("word_errors"), std::string::npos);
  EXPECT_NE(report.render().find("FAIL"), std::string::npos);
}

TEST(CompareBench, HotPathAllocationRegressionIsExact) {
  // allocations_per_frame going 0 -> anything is a hard failure — no
  // band applies to the zero-allocation invariant.
  const Json baseline = fixture_doc();
  Json candidate = fixture_doc();
  Json::Array rows = baseline.at("records").as_array();
  rows[2]["steady_allocations"] = 39;
  rows[2]["allocations_per_frame"] = 1.0;
  candidate["records"] = rows;
  const auto report = compare_bench(baseline, candidate);
  EXPECT_EQ(report.failures.size(), 2u) << report.render();
}

TEST(CompareBench, PickWorkCountIsExactWhilePickTimeIsBanded) {
  // The controller records stamp candidates_per_pick (a deterministic
  // count of scheduler work) next to sched_ns_per_pick (host time): the
  // time is classed TimeUp but, inside a record, is not checked; the
  // count gets no band.
  EXPECT_EQ(classify_metric("candidates_per_pick"), MetricKind::Exact);
  EXPECT_EQ(classify_metric("optimized_candidates_per_pick"), MetricKind::Exact);
  Json baseline = fixture_doc();
  Json::Array rows = baseline.at("records").as_array();
  rows[0]["sched_ns_per_pick"] = 120.0;
  rows[0]["candidates_per_pick"] = 1.25;
  baseline["records"] = rows;
  CompareOptions opt;
  opt.time_tol_pct = 400.0;

  Json slower = baseline;
  rows[0]["sched_ns_per_pick"] = 480.0;  // 4x
  slower["records"] = rows;
  EXPECT_TRUE(compare_bench(baseline, slower, opt).ok());

  Json more_work = baseline;
  rows[0]["sched_ns_per_pick"] = 120.0;
  rows[0]["candidates_per_pick"] = 1.2500001;
  more_work["records"] = rows;
  const auto report = compare_bench(baseline, more_work, opt);
  ASSERT_EQ(report.failures.size(), 1u) << report.render();
  EXPECT_NE(report.failures[0].path.find("candidates_per_pick"), std::string::npos);
}

TEST(CompareBench, TimeBandIsLooseAndOneSided) {
  const Json baseline = fixture_doc();
  CompareOptions opt;
  opt.time_tol_pct = 50.0;

  Json faster = fixture_doc();
  faster["wall_seconds"] = 0.5;           // 4x faster: never a failure
  faster["scenarios_per_second"] = 72.0;  // rate up: never a failure
  EXPECT_TRUE(compare_bench(baseline, faster, opt).ok());

  Json slower = fixture_doc();
  slower["wall_seconds"] = 2.9;  // +45%: inside the 50% band
  EXPECT_TRUE(compare_bench(baseline, slower, opt).ok());
  slower["wall_seconds"] = 3.2;  // +60%: outside
  EXPECT_FALSE(compare_bench(baseline, slower, opt).ok());

  // A rate may fall by the factor a time may grow by: to 18 / 1.5 = 12.
  Json slow_rate = fixture_doc();
  slow_rate["scenarios_per_second"] = 12.5;  // -31%: inside
  EXPECT_TRUE(compare_bench(baseline, slow_rate, opt).ok());
  slow_rate["scenarios_per_second"] = 10.0;  // -44%: outside
  EXPECT_FALSE(compare_bench(baseline, slow_rate, opt).ok());
  slow_rate["scenarios_per_second"] = 8.0;  // -56%: outside
  EXPECT_FALSE(compare_bench(baseline, slow_rate, opt).ok());

  // At CI's 400% the floor is a fifth of the baseline, not 1 - 4 < 0.
  opt.time_tol_pct = 400.0;
  slow_rate["scenarios_per_second"] = 18.0 / 4;  // 4x drop: inside
  EXPECT_TRUE(compare_bench(baseline, slow_rate, opt).ok());
  slow_rate["scenarios_per_second"] = 18.0 / 1e6;  // 10^6-fold drop: outside
  const auto report = compare_bench(baseline, slow_rate, opt);
  ASSERT_EQ(report.failures.size(), 1u) << report.render();
  EXPECT_NE(report.failures[0].what.find("rate dropped"), std::string::npos);
}

TEST(CompareBench, RecordHostTimingIsIgnoredWhileDocumentTimingIsBanded) {
  // CI's 400% band failed sub-millisecond FER cells on scheduler noise
  // alone (one record's host_ns 0.84 -> 4.39 ms, every counter equal).
  const Json baseline = fixture_doc();
  CompareOptions opt;
  opt.time_tol_pct = 400.0;

  Json noisy = fixture_doc();
  Json::Array rows = baseline.at("records").as_array();
  rows[1]["host_ns"] = 26 * 5000000;
  rows[1]["channel_symbols_per_second"] = 1e8 / 26;
  noisy["records"] = rows;
  noisy["wall_seconds"] = 2.0 * 4;  // inside the band
  auto report = compare_bench(baseline, noisy, opt);
  EXPECT_TRUE(report.ok()) << report.render();
  // Ignored: threads, process_allocations and each record's two timings.
  EXPECT_EQ(report.metrics_ignored, 2u + 2u * rows.size());

  Json slow = noisy;
  slow["wall_seconds"] = 2.0 * 6;  // +500%: outside
  report = compare_bench(baseline, slow, opt);
  ASSERT_EQ(report.failures.size(), 1u) << report.render();
  EXPECT_EQ(report.failures[0].path, "wall_seconds");

  Json miscount = noisy;
  rows[1]["word_errors"] = 11;  // was 10
  miscount["records"] = rows;
  report = compare_bench(baseline, miscount, opt);
  ASSERT_EQ(report.failures.size(), 1u) << report.render();
  EXPECT_NE(report.failures[0].path.find("records[1]"), std::string::npos);
  EXPECT_NE(report.failures[0].path.find("word_errors"), std::string::npos);
}

TEST(CompareBench, SizeBandIsOneSided) {
  const Json baseline = fixture_doc();
  CompareOptions opt;
  opt.size_tol_pct = 10.0;
  Json candidate = fixture_doc();
  Json::Array rows = baseline.at("records").as_array();
  rows[0]["workspace_peak_bytes"] = 50000;  // shrinking is fine
  rows[1]["workspace_peak_bytes"] = 105000;  // +5%: inside
  candidate["records"] = rows;
  EXPECT_TRUE(compare_bench(baseline, candidate, opt).ok());
  rows[2]["workspace_peak_bytes"] = 120000;  // +20%: outside
  candidate["records"] = rows;
  EXPECT_FALSE(compare_bench(baseline, candidate, opt).ok());
}

TEST(CompareBench, SchemaDriftIsStructural) {
  const Json baseline = fixture_doc();

  Json missing = fixture_doc();
  Json::Array rows = baseline.at("records").as_array();
  Json::Object row1 = rows[1].as_object();
  row1.erase("fer");
  rows[1] = Json(row1);
  missing["records"] = rows;
  auto report = compare_bench(baseline, missing);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.failures[0].structural);

  Json extra = fixture_doc();
  extra["new_metric"] = 1.0;
  report = compare_bench(baseline, extra);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.failures[0].structural);

  Json short_doc = fixture_doc();
  Json::Array two = baseline.at("records").as_array();
  two.pop_back();
  short_doc["records"] = two;
  report = compare_bench(baseline, short_doc);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.failures[0].structural);
  EXPECT_NE(report.failures[0].what.find("length"), std::string::npos);
}

TEST(CompareBench, IgnoredKeysNeverFail) {
  const Json baseline = fixture_doc();
  Json candidate = fixture_doc();
  candidate["config"]["threads"] = 16;        // harness knob
  candidate["perf"]["process_allocations"] = 1;  // run-dependent
  EXPECT_TRUE(compare_bench(baseline, candidate).ok());
  // Even missing entirely is fine for ignored keys.
  Json::Object cfg = baseline.at("config").as_object();
  cfg.erase("threads");
  candidate["config"] = Json(cfg);
  EXPECT_TRUE(compare_bench(baseline, candidate).ok());
}

TEST(CompareBench, StringAndBoolChangesFail) {
  const Json baseline = fixture_doc();
  Json candidate = fixture_doc();
  candidate["bench"] = "bench_other";
  const auto report = compare_bench(baseline, candidate);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.failures[0].what.find("bench_other"), std::string::npos);
}

}  // namespace
}  // namespace tbi::perf

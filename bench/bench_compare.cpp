/// \file bench_compare.cpp
/// Bench-trend gate: diff a fresh bench `--json` run against a committed
/// BENCH_*.json baseline with per-metric tolerance classes (exact for
/// deterministic counters, loose one-sided bands for host timing — see
/// src/perf/bench_compare.hpp). Exits 0 when the candidate is within
/// tolerance, 1 with a per-cell report on any regression or schema
/// drift, 2 on usage or I/O errors.
///
/// Usage: bench_compare --baseline FILE --candidate FILE
///                      [--time-tol-pct P] [--size-tol-pct P]
#include <cstdio>
#include <utility>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "perf/bench_compare.hpp"

int main(int argc, char** argv) {
  tbi::CliParser cli("bench_compare",
                     "diff a bench --json run against a committed baseline");
  cli.add_option("baseline", "file", "committed BENCH_*.json baseline");
  cli.add_option("candidate", "file", "fresh bench --json output");
  cli.add_option("time-tol-pct", "p",
                 "one-sided band for wall-clock metrics (default 50)");
  cli.add_option("size-tol-pct", "p",
                 "one-sided band for byte-size metrics (default 10)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 2;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }
  const std::string baseline_path = cli.get("baseline", "");
  const std::string candidate_path = cli.get("candidate", "");
  if (baseline_path.empty() || candidate_path.empty()) {
    std::fprintf(stderr, "error: --baseline and --candidate are required\n%s",
                 cli.usage().c_str());
    return 2;
  }

  tbi::perf::CompareOptions options;
  // A band that is not a number is a usage error (exit 2), not a
  // regression (exit 1); a negative band would fail a candidate identical
  // to its baseline.
  for (const auto& [name, pct] : {std::pair{"time-tol-pct", &options.time_tol_pct},
                                  std::pair{"size-tol-pct", &options.size_tol_pct}}) {
    const auto value = cli.read_double(name, *pct);
    if (!value) return 2;
    if (*value < 0) {
      std::fprintf(stderr, "error: --%s must be >= 0, got %g\n", name, *value);
      return 2;
    }
    *pct = *value;
  }

  tbi::Json baseline, candidate;
  try {
    baseline = tbi::Json::read_file(baseline_path);
    candidate = tbi::Json::read_file(candidate_path);
  } catch (const tbi::JsonError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const auto report = tbi::perf::compare_bench(baseline, candidate, options);
  std::fputs(report.render().c_str(), stdout);
  if (!report.ok()) {
    std::printf("candidate '%s' regressed against baseline '%s'\n",
                candidate_path.c_str(), baseline_path.c_str());
    return 1;
  }
  return 0;
}

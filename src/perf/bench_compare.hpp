/// \file bench_compare.hpp
/// Bench-trend comparison: diff a fresh bench `--json` document against a
/// committed `BENCH_*.json` baseline with per-metric tolerance classes.
///
/// The simulator is deterministic, so most fields — burst counts, row
/// hits, FER numerators, energy — must match the baseline *exactly* (up
/// to float round-off). Host-timing fields (`*_seconds`, `*_ns`,
/// `*_per_second`, `ns_per_pick`) are machine-dependent and only checked
/// with a loose one-sided percentage band: getting faster never fails,
/// regressing past the band does. Host timing inside an array element (a
/// record's `host_ns`, `sched_ns_per_pick`, ...) counts as ignored: a
/// sub-millisecond cell swings several-fold with scheduler noise, so only
/// the document's own wall time and rates are banded, and records are
/// gated on their counts. Byte-size fields get their own
/// (tighter) one-sided band, and a few fields that legitimately vary run
/// to run (`threads`, `process_allocations`, `generated_*`) are ignored.
/// Structural drift — missing keys, extra keys, record-count changes —
/// always fails: a schema change requires re-baselining on purpose.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace tbi::perf {

/// Tolerance class of one metric key.
enum class MetricKind {
  Exact,    ///< deterministic counter/derived value: tight relative tol
  TimeUp,   ///< host timing where higher is worse (*_seconds, *_ns)
  TimeDown, ///< host rate where lower is worse (*_per_second)
  Size,     ///< byte sizes: one-sided band, higher is worse
  Ignored,  ///< run-dependent, never compared
};

/// Classify a JSON object key by the naming conventions above.
MetricKind classify_metric(const std::string& key);

/// \p record (an object) without its host-timing members, the keys
/// classify_metric puts in TimeUp or TimeDown: what remains is identical
/// for every run of a deterministic cell (`--stable-json` rows).
Json without_host_timing(const Json& record);

struct CompareOptions {
  /// One-sided band for TimeUp/TimeDown metrics, percent of baseline:
  /// a time may grow to b * (1 + p/100), a rate fall to b / (1 + p/100).
  double time_tol_pct = 50.0;
  /// One-sided band for Size metrics, percent of baseline.
  double size_tol_pct = 10.0;
  /// Relative tolerance for Exact metrics (float round-off only).
  double exact_rel_tol = 1e-9;
};

/// One comparison failure, addressed by JSON path.
struct Diff {
  std::string path;  ///< e.g. "records[3](LPDDR5-8533/optimized/...).fer"
  std::string what;  ///< human-readable cause, values included
  bool structural = false;  ///< schema drift rather than a value band
};

struct CompareReport {
  std::size_t metrics_compared = 0;
  std::size_t metrics_ignored = 0;
  std::vector<Diff> failures;

  bool ok() const { return failures.empty(); }
  /// Multi-line per-cell report (empty summary line when ok()).
  std::string render() const;
};

/// Compare candidate against baseline. Both are whole bench documents
/// (objects with config/records/...); any JSON value works.
CompareReport compare_bench(const Json& baseline, const Json& candidate,
                            const CompareOptions& options = {});

}  // namespace tbi::perf

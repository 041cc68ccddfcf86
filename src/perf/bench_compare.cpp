#include "perf/bench_compare.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

namespace tbi::perf {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Identifying axes a record can carry, in display order; whichever are
/// present label the record in the failure report so "records[17]" reads
/// as the cell it is.
constexpr const char* kContextKeys[] = {
    "device", "mapping", "layout",  "policy", "variant",    "interleaver",
    "channel", "rs_k",   "spb",     "queue_depth", "side",  "bench",
};

std::string context_label(const Json& v) {
  if (!v.is_object()) return "";
  std::string label;
  for (const char* key : kContextKeys) {
    if (!v.contains(key)) continue;
    const Json& field = v.at(key);
    if (!label.empty()) label += '/';
    if (field.is_string()) {
      label += field.as_string();
    } else if (field.is_number()) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(field.as_int()));
      label += buf;
    }
  }
  return label;
}

std::string fmt(double d) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", d);
  return buf;
}

class Comparer {
 public:
  Comparer(const CompareOptions& options, CompareReport& report)
      : opt_(options), report_(report) {}

  void walk(const std::string& path, const Json& base, const Json& cand,
            MetricKind kind) {
    // A sub-millisecond record can read several times its baseline time
    // on a loaded host with every count equal; the document's own wall
    // time and rates keep their band.
    const bool record_timing =
        in_record_ && (kind == MetricKind::TimeUp || kind == MetricKind::TimeDown);
    if (kind == MetricKind::Ignored || record_timing) {
      ++report_.metrics_ignored;
      return;
    }
    if (base.is_object() || cand.is_object()) {
      walk_object(path, base, cand);
      return;
    }
    if (base.is_array() || cand.is_array()) {
      walk_array(path, base, cand);
      return;
    }
    leaf(path, base, cand, kind);
  }

 private:
  void structural(const std::string& path, const std::string& what) {
    report_.failures.push_back({path, what, true});
  }

  void walk_object(const std::string& path, const Json& base, const Json& cand) {
    if (!base.is_object() || !cand.is_object()) {
      structural(path, "type mismatch (object vs non-object)");
      return;
    }
    for (const auto& [key, bval] : base.as_object()) {
      const std::string child = path.empty() ? key : path + "." + key;
      if (!cand.contains(key)) {
        if (classify_metric(key) == MetricKind::Ignored) continue;
        structural(child, "missing from candidate (schema drift — re-baseline?)");
        continue;
      }
      walk(child, bval, cand.at(key), classify_metric(key));
    }
    for (const auto& [key, cval] : cand.as_object()) {
      (void)cval;
      if (!base.contains(key) && classify_metric(key) != MetricKind::Ignored) {
        const std::string child = path.empty() ? key : path + "." + key;
        structural(child, "not in baseline (schema drift — re-baseline?)");
      }
    }
  }

  void walk_array(const std::string& path, const Json& base, const Json& cand) {
    if (!base.is_array() || !cand.is_array()) {
      structural(path, "type mismatch (array vs non-array)");
      return;
    }
    const auto& b = base.as_array();
    const auto& c = cand.as_array();
    if (b.size() != c.size()) {
      structural(path, "length " + std::to_string(b.size()) + " vs " +
                           std::to_string(c.size()));
      return;
    }
    const bool outer = in_record_;
    in_record_ = true;
    for (std::size_t i = 0; i < b.size(); ++i) {
      std::string child = path + "[" + std::to_string(i) + "]";
      const std::string label = context_label(b[i]);
      if (!label.empty()) child += "(" + label + ")";
      walk(child, b[i], c[i], MetricKind::Exact);
    }
    in_record_ = outer;
  }

  void leaf(const std::string& path, const Json& base, const Json& cand,
            MetricKind kind) {
    if (base.is_number() && cand.is_number()) {
      number(path, base.as_double(), cand.as_double(), kind);
      return;
    }
    ++report_.metrics_compared;
    if (base.type() != cand.type()) {
      structural(path, "type mismatch");
      return;
    }
    if (base.is_string() && base.as_string() != cand.as_string()) {
      report_.failures.push_back(
          {path, "\"" + base.as_string() + "\" vs \"" + cand.as_string() + "\"",
           false});
    } else if (base.is_bool() && base.as_bool() != cand.as_bool()) {
      report_.failures.push_back(
          {path, std::string(base.as_bool() ? "true" : "false") + " vs " +
                     (cand.as_bool() ? "true" : "false"),
           false});
    }
  }

  void number(const std::string& path, double b, double c, MetricKind kind) {
    ++report_.metrics_compared;
    switch (kind) {
      case MetricKind::Exact: {
        const double tol = opt_.exact_rel_tol * std::max(std::abs(b), std::abs(c));
        if (std::abs(b - c) > tol) {
          report_.failures.push_back(
              {path, "baseline " + fmt(b) + " vs candidate " + fmt(c) +
                         " (exact metric)",
               false});
        }
        break;
      }
      case MetricKind::TimeUp:
        // One-sided: only a slowdown past the band fails. A zero baseline
        // carries no timing signal, so it never fails.
        if (b > 0.0 && c > b * (1.0 + opt_.time_tol_pct / 100.0)) {
          report_.failures.push_back(
              {path, "slowed " + fmt(b) + " -> " + fmt(c) + " (+" +
                         fmt(100.0 * (c - b) / b) + "%, band " +
                         fmt(opt_.time_tol_pct) + "%)",
               false});
        }
        break;
      case MetricKind::TimeDown:
        // The mirror of TimeUp: a rate may fall by the factor a time may
        // grow by, so the floor stays above 0 for any band.
        if (b > 0.0 && c < b / (1.0 + opt_.time_tol_pct / 100.0)) {
          report_.failures.push_back(
              {path, "rate dropped " + fmt(b) + " -> " + fmt(c) + " (-" +
                         fmt(100.0 * (b - c) / b) + "%, band " +
                         fmt(opt_.time_tol_pct) + "%)",
               false});
        }
        break;
      case MetricKind::Size:
        if (c > b * (1.0 + opt_.size_tol_pct / 100.0)) {
          report_.failures.push_back(
              {path, "grew " + fmt(b) + " -> " + fmt(c) + " bytes (band " +
                         fmt(opt_.size_tol_pct) + "%)",
               false});
        }
        break;
      case MetricKind::Ignored:
        --report_.metrics_compared;
        ++report_.metrics_ignored;
        break;
    }
  }

  const CompareOptions& opt_;
  CompareReport& report_;
  bool in_record_ = false;  ///< walking inside an array element
};

}  // namespace

MetricKind classify_metric(const std::string& key) {
  // Run-dependent fields: the thread count is a harness knob, the process
  // allocation counter includes startup noise from other code, and
  // generated_* stamps are provenance.
  if (key == "threads" || key == "process_allocations" ||
      key.rfind("generated", 0) == 0) {
    return MetricKind::Ignored;
  }
  // Host wall-clock: loose one-sided bands, direction by unit.
  if (ends_with(key, "_seconds") || ends_with(key, "_ns") ||
      ends_with(key, "ns_per_pick")) {
    return MetricKind::TimeUp;
  }
  if (ends_with(key, "_per_second")) return MetricKind::TimeDown;
  // Byte sizes: deterministic in principle but allocator-rounding adjacent;
  // one-sided growth band.
  if (ends_with(key, "_peak_bytes")) return MetricKind::Size;
  return MetricKind::Exact;
}

Json without_host_timing(const Json& record) {
  Json::Object kept;
  for (const auto& [key, value] : record.as_object()) {
    const MetricKind kind = classify_metric(key);
    if (kind != MetricKind::TimeUp && kind != MetricKind::TimeDown) {
      kept.emplace(key, value);
    }
  }
  return Json(std::move(kept));
}

std::string CompareReport::render() const {
  std::string out = "bench_compare: " + std::to_string(metrics_compared) +
                    " metrics compared, " + std::to_string(metrics_ignored) +
                    " ignored, " + std::to_string(failures.size()) +
                    (failures.size() == 1 ? " failure\n" : " failures\n");
  for (const auto& f : failures) {
    out += std::string("  FAIL ") + (f.structural ? "[structural] " : "") +
           f.path + ": " + f.what + "\n";
  }
  return out;
}

CompareReport compare_bench(const Json& baseline, const Json& candidate,
                            const CompareOptions& options) {
  CompareReport report;
  Comparer cmp(options, report);
  cmp.walk("", baseline, candidate, MetricKind::Exact);
  return report;
}

}  // namespace tbi::perf

// cne_metrics — pretty-print or diff metrics JSON for regression triage.
//
// Usage:
//   cne_metrics FILE.json                  # phase table + counters
//   cne_metrics BASELINE.json CURRENT.json # per-phase quantile diff
//
// Accepts either a bare metrics object (`cne_serve --metrics-json`) or any
// JSON document carrying one under a top-level "metrics" key (`cne_serve
// --json` output). The pretty-printer also renders the optional
// "exemplars" (per-phase slowest samples with capture context) and
// "budget" (privacy-budget burn-down) sections when present. The diff
// prints the relative change of every shared phase's count, p50, p99, and
// p999 (positive = current is slower) and the delta of every shared
// counter; phases or counters present on only one side are listed as
// added/removed. Exit status: 0 on success, 2 on unreadable or malformed
// input. The diff never fails the process — it is a triage lens, not a CI
// gate (scripts/check_perfbench.py gates the per-layer perf).
//
// Tolerance: snapshots from different builds or metrics levels disagree
// on shape — a counters-only snapshot has no "phases", an older build may
// lack a quantile field, a newer one may carry counters with non-numeric
// values. Both modes skip what they cannot interpret with a note instead
// of failing, so a diff across versions stays useful.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.h"

using cne::JsonValue;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cne_metrics FILE.json            (pretty-print)\n"
               "       cne_metrics BASE.json CUR.json   (diff)\n");
  return 2;
}

/// Whether `doc` looks like a metrics snapshot. Any of the snapshot's
/// top-level sections counts, so a counters-only snapshot (metrics level
/// `counters`) or a stripped-down document still loads.
bool LooksLikeMetrics(const JsonValue& doc) {
  return doc.Find("phases") != nullptr || doc.Find("counters") != nullptr ||
         doc.Find("metrics_version") != nullptr;
}

/// The metrics object of a parsed document: the document itself when it
/// looks like a snapshot, else its "metrics" member.
const JsonValue* MetricsRoot(const JsonValue& doc) {
  if (LooksLikeMetrics(doc)) return &doc;
  const JsonValue* nested = doc.Find("metrics");
  if (nested != nullptr && LooksLikeMetrics(*nested)) return nested;
  return nullptr;
}

bool LoadMetrics(const std::string& path, JsonValue* doc,
                 const JsonValue** metrics) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!JsonValue::Parse(buffer.str(), doc, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  *metrics = MetricsRoot(*doc);
  if (*metrics == nullptr) {
    std::fprintf(stderr, "error: %s carries no metrics object\n",
                 path.c_str());
    return false;
  }
  return true;
}

std::string FormatDuration(double seconds) {
  char buf[32];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.0fns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  }
  return buf;
}

/// A phase entry the table/diff can interpret: an object with a string
/// name. Quantile fields may still be individually absent (older builds);
/// those render/diff as skips, not failures.
bool UsablePhase(const JsonValue& phase) {
  const JsonValue* name = phase.Find("name");
  return name != nullptr && name->IsString();
}

bool HasQuantiles(const JsonValue& phase) {
  for (const char* key : {"count", "p50_seconds", "p99_seconds",
                          "p999_seconds"}) {
    const JsonValue* field = phase.Find(key);
    if (field == nullptr || !field->IsNumber()) return false;
  }
  return true;
}

void PrintCounters(const JsonValue& metrics) {
  const auto& counters = metrics["counters"].AsObject();
  if (counters.empty()) return;
  std::vector<std::string> skipped;
  std::printf("counters:");
  for (const auto& [name, value] : counters) {
    if (!value.IsNumber()) {
      skipped.push_back(name);
      continue;
    }
    std::printf(" %s=%.0f", name.c_str(), value.AsDouble());
  }
  std::printf("\n");
  for (const std::string& name : skipped) {
    std::printf("note: counter %s is not numeric; skipped\n", name.c_str());
  }
}

void PrintExemplars(const JsonValue& metrics) {
  for (const auto& [phase, list] : metrics["exemplars"].AsObject()) {
    std::printf("exemplars[%s]: (slowest retained samples)\n", phase.c_str());
    for (const JsonValue& e : list.AsArray()) {
      std::printf("  %s submit=%.0f",
                  FormatDuration(e["seconds"].AsDouble()).c_str(),
                  e["submit"].AsDouble());
      if (e.Find("u") != nullptr) {
        std::printf(" layer=%.0f u=%.0f w=%.0f", e["layer"].AsDouble(),
                    e["u"].AsDouble(), e["w"].AsDouble());
      }
      if (e.Find("kernel") != nullptr) {
        std::printf(" kernel=%s", e["kernel"].AsString().c_str());
      }
      if (e.Find("repr_u") != nullptr) {
        std::printf(" operands=%s[%.0f]", e["repr_u"].AsString().c_str(),
                    e["size_u"].AsDouble());
        if (e.Find("repr_w") != nullptr) {
          std::printf("x%s[%.0f]", e["repr_w"].AsString().c_str(),
                      e["size_w"].AsDouble());
        }
      }
      if (e.Find("simd") != nullptr) {
        std::printf(" simd=%s", e["simd"].AsString().c_str());
      }
      std::printf("\n");
    }
  }
}

void PrintBudget(const JsonValue& metrics) {
  const JsonValue* budget = metrics.Find("budget");
  if (budget == nullptr) return;
  const JsonValue& b = *budget;
  std::printf("budget burn-down:\n");
  std::printf("  lifetime=%g  charged=%.0f vertices  exhausted=%.0f\n",
              b["lifetime_budget"].AsDouble(),
              b["charged_vertices"].AsDouble(),
              b["exhausted_vertices"].AsDouble());
  std::printf("  spent=%g (rr=%g laplace=%g)  min_remaining=%g  "
              "sum_remaining=%g\n",
              b["total_spent"].AsDouble(), b["spent_rr"].AsDouble(),
              b["spent_laplace"].AsDouble(), b["min_remaining"].AsDouble(),
              b["sum_remaining"].AsDouble());
  const double projected = b["projected_submits_to_exhaustion"].AsDouble();
  if (projected >= 0.0) {
    std::printf("  projected submits to exhaustion: %.1f\n", projected);
  }
  const auto& hist = b["residual_histogram"].AsArray();
  if (!hist.empty()) {
    std::printf("  residual-eps histogram (exhausted .. full):");
    for (const JsonValue& bin : hist) std::printf(" %.0f", bin.AsDouble());
    std::printf("\n");
  }
}

void PrintTable(const JsonValue& metrics) {
  if (metrics.Find("phases") == nullptr) {
    std::printf("note: no phases section (counters-only snapshot?)\n");
  } else {
    std::printf("%-14s %10s %10s %9s %9s %9s %9s\n", "phase", "count",
                "total", "p50", "p99", "p999", "max");
    for (const JsonValue& phase : metrics["phases"].AsArray()) {
      if (!UsablePhase(phase)) {
        std::printf("note: skipping malformed phase entry\n");
        continue;
      }
      std::printf("%-14s %10.0f %10s %9s %9s %9s %9s\n",
                  phase["name"].AsString().c_str(), phase["count"].AsDouble(),
                  FormatDuration(phase["total_seconds"].AsDouble()).c_str(),
                  FormatDuration(phase["p50_seconds"].AsDouble()).c_str(),
                  FormatDuration(phase["p99_seconds"].AsDouble()).c_str(),
                  FormatDuration(phase["p999_seconds"].AsDouble()).c_str(),
                  FormatDuration(phase["max_seconds"].AsDouble()).c_str());
    }
  }
  PrintCounters(metrics);
  PrintExemplars(metrics);
  PrintBudget(metrics);
}

const JsonValue* FindPhase(const JsonValue& metrics, const std::string& name) {
  for (const JsonValue& phase : metrics["phases"].AsArray()) {
    if (phase["name"].AsString() == name) return &phase;
  }
  return nullptr;
}

std::string Change(double base, double current) {
  char buf[48];
  if (base == 0.0 && current == 0.0) {
    return "      =";
  }
  if (base == 0.0) {
    return "    new";
  }
  std::snprintf(buf, sizeof(buf), "%+6.1f%%",
                100.0 * (current - base) / base);
  return buf;
}

void PrintDiff(const JsonValue& base, const JsonValue& current) {
  if (base.Find("phases") == nullptr || current.Find("phases") == nullptr) {
    std::printf("note: %s side carries no phases; skipping the phase diff\n",
                base.Find("phases") == nullptr
                    ? (current.Find("phases") == nullptr ? "neither" : "base")
                    : "current");
  }
  std::printf("%-14s %12s %9s %9s %9s   (current p50/p99/p999 vs base; "
              "positive = slower)\n",
              "phase", "count", "p50", "p99", "p999");
  for (const JsonValue& base_phase : base["phases"].AsArray()) {
    if (!UsablePhase(base_phase)) {
      std::printf("note: skipping malformed base phase entry\n");
      continue;
    }
    const std::string& name = base_phase["name"].AsString();
    const JsonValue* cur_phase = FindPhase(current, name);
    if (cur_phase == nullptr) {
      std::printf("%-14s removed\n", name.c_str());
      continue;
    }
    if (!HasQuantiles(base_phase) || !HasQuantiles(*cur_phase)) {
      std::printf("%-14s skipped (missing quantile fields on one side)\n",
                  name.c_str());
      continue;
    }
    char count_change[48];
    std::snprintf(count_change, sizeof(count_change), "%.0f->%.0f",
                  base_phase["count"].AsDouble(),
                  (*cur_phase)["count"].AsDouble());
    std::printf(
        "%-14s %12s %9s %9s %9s   [%s -> %s p99]\n", name.c_str(),
        count_change,
        Change(base_phase["p50_seconds"].AsDouble(),
               (*cur_phase)["p50_seconds"].AsDouble())
            .c_str(),
        Change(base_phase["p99_seconds"].AsDouble(),
               (*cur_phase)["p99_seconds"].AsDouble())
            .c_str(),
        Change(base_phase["p999_seconds"].AsDouble(),
               (*cur_phase)["p999_seconds"].AsDouble())
            .c_str(),
        FormatDuration(base_phase["p99_seconds"].AsDouble()).c_str(),
        FormatDuration((*cur_phase)["p99_seconds"].AsDouble()).c_str());
  }
  for (const JsonValue& cur_phase : current["phases"].AsArray()) {
    if (!UsablePhase(cur_phase)) {
      std::printf("note: skipping malformed current phase entry\n");
      continue;
    }
    const std::string& name = cur_phase["name"].AsString();
    if (FindPhase(base, name) == nullptr) {
      std::printf("%-14s added (p99 %s)\n", name.c_str(),
                  FormatDuration(cur_phase["p99_seconds"].AsDouble()).c_str());
    }
  }
  for (const auto& [name, base_value] : base["counters"].AsObject()) {
    const JsonValue* cur_value = current["counters"].Find(name);
    if (cur_value == nullptr) {
      std::printf("counter %-20s removed\n", name.c_str());
      continue;
    }
    if (!base_value.IsNumber() || !cur_value->IsNumber()) {
      std::printf("counter %-20s skipped (non-numeric value)\n",
                  name.c_str());
      continue;
    }
    std::printf("counter %-20s %.0f -> %.0f (%+.0f)\n", name.c_str(),
                base_value.AsDouble(), cur_value->AsDouble(),
                cur_value->AsDouble() - base_value.AsDouble());
  }
  for (const auto& [name, cur_value] : current["counters"].AsObject()) {
    if (base["counters"].Find(name) == nullptr) {
      std::printf("counter %-20s added (%.0f)\n", name.c_str(),
                  cur_value.AsDouble());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    paths.emplace_back(argv[i]);
  }
  if (paths.empty() || paths.size() > 2) return Usage();

  JsonValue doc_a;
  const JsonValue* metrics_a = nullptr;
  if (!LoadMetrics(paths[0], &doc_a, &metrics_a)) return 2;

  if (paths.size() == 1) {
    PrintTable(*metrics_a);
    return 0;
  }

  JsonValue doc_b;
  const JsonValue* metrics_b = nullptr;
  if (!LoadMetrics(paths[1], &doc_b, &metrics_b)) return 2;
  PrintDiff(*metrics_a, *metrics_b);
  return 0;
}

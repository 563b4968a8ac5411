// cne_trace — inspector for Chrome-trace-event JSON written by
// `cne_serve --trace-out` (obs/trace_export.h).
//
// Usage:
//   cne_trace FILE.json           # per-span aggregates + per-submit roots
//   cne_trace FILE.json --tree    # indented span trees, one per thread
//   cne_trace FILE.json --submit=N  # restrict to one submission's events
//
// The aggregate view answers "where did the time go" without opening a
// viewer: one row per span name with count / total / mean / max, followed
// by one row per traced submission (its root "submit" span, if retained).
// --tree reconstructs nesting from interval containment per tid — the
// same invariant scripts/check_trace_json.py gates in CI — and prints the
// spans indented by depth in timestamp order.
//
// Exit status: 0 on success, 2 when --submit does not parse or the file is
// unreadable, not JSON, or not a Chrome trace document (no "traceEvents"
// array, or an event missing name/ts/dur/tid).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/json.h"

using cne::CommandLine;
using cne::JsonValue;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cne_trace FILE.json [--tree] [--submit=N]\n"
               "see the header of tools/cne_trace.cc for details\n");
  return 2;
}

struct Span {
  std::string name;
  double ts = 0.0;   // microseconds
  double dur = 0.0;  // microseconds
  long long tid = 0;
  long long submit = 0;
};

std::string FormatMicros(double micros) {
  char buf[32];
  if (micros < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0fns", micros * 1e3);
  } else if (micros < 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", micros);
  } else if (micros < 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", micros / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fs", micros / 1e6);
  }
  return buf;
}

/// Parses the document into spans. Returns false (with a message) when the
/// file is not a Chrome trace: unlike cne_metrics this tool is strict —
/// the producer is our own serializer, so any shape surprise is a bug.
bool LoadSpans(const std::string& path, std::vector<Span>* spans) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  std::string error;
  if (!JsonValue::Parse(buffer.str(), &doc, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->IsArray()) {
    std::fprintf(stderr, "error: %s has no traceEvents array\n",
                 path.c_str());
    return false;
  }
  for (size_t i = 0; i < events->AsArray().size(); ++i) {
    const JsonValue& e = events->AsArray()[i];
    const JsonValue* name = e.Find("name");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* dur = e.Find("dur");
    const JsonValue* tid = e.Find("tid");
    if (name == nullptr || !name->IsString() || ts == nullptr ||
        !ts->IsNumber() || dur == nullptr || !dur->IsNumber() ||
        tid == nullptr || !tid->IsNumber()) {
      std::fprintf(stderr,
                   "error: %s: traceEvents[%zu] is missing name/ts/dur/tid\n",
                   path.c_str(), i);
      return false;
    }
    Span span;
    span.name = name->AsString();
    span.ts = ts->AsDouble();
    span.dur = dur->AsDouble();
    span.tid = static_cast<long long>(tid->AsDouble());
    span.submit = static_cast<long long>(e["args"]["submit"].AsDouble());
    spans->push_back(std::move(span));
  }
  return true;
}

void PrintAggregates(const std::vector<Span>& spans) {
  struct Agg {
    uint64_t count = 0;
    double total = 0.0;
    double max = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans) {
    Agg& agg = by_name[s.name];
    ++agg.count;
    agg.total += s.dur;
    agg.max = std::max(agg.max, s.dur);
  }
  std::printf("%-14s %8s %10s %10s %10s\n", "span", "count", "total",
              "mean", "max");
  for (const auto& [name, agg] : by_name) {
    std::printf("%-14s %8llu %10s %10s %10s\n", name.c_str(),
                static_cast<unsigned long long>(agg.count),
                FormatMicros(agg.total).c_str(),
                FormatMicros(agg.total / static_cast<double>(agg.count))
                    .c_str(),
                FormatMicros(agg.max).c_str());
  }
}

void PrintSubmits(const std::vector<Span>& spans) {
  std::map<long long, const Span*> roots;
  for (const Span& s : spans) {
    if (s.name == "submit") roots.emplace(s.submit, &s);
  }
  if (roots.empty()) return;
  std::printf("\ntraced submissions:\n");
  for (const auto& [submit, root] : roots) {
    std::printf("  submit %-6lld %10s (tid %lld, ts %s)\n", submit,
                FormatMicros(root->dur).c_str(), root->tid,
                FormatMicros(root->ts).c_str());
  }
}

void PrintTree(const std::vector<Span>& spans) {
  // Group by tid; within one thread spans strictly nest, so a stack of
  // open intervals gives the depth of each span in timestamp order.
  std::map<long long, std::vector<const Span*>> by_tid;
  for (const Span& s : spans) by_tid[s.tid].push_back(&s);
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      if (a->ts != b->ts) return a->ts < b->ts;
      return a->dur > b->dur;
    });
    std::printf("tid %lld:\n", tid);
    std::vector<double> open_ends;
    for (const Span* s : list) {
      while (!open_ends.empty() && s->ts >= open_ends.back()) {
        open_ends.pop_back();
      }
      std::printf("  %*s%-*s %10s  submit=%lld\n",
                  static_cast<int>(2 * open_ends.size()), "",
                  std::max(1, 20 - static_cast<int>(2 * open_ends.size())),
                  s->name.c_str(), FormatMicros(s->dur).c_str(), s->submit);
      open_ends.push_back(s->ts + s->dur);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  if (cl.positional().size() != 1) return Usage();
  long long wanted = 0;
  try {
    wanted = cl.GetInt("submit", 0);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  std::vector<Span> spans;
  if (!LoadSpans(cl.positional()[0], &spans)) return 2;
  if (spans.empty()) {
    std::printf("no trace events\n");
    return 0;
  }
  if (cl.Has("submit")) {
    std::vector<Span> filtered;
    for (Span& s : spans) {
      if (s.submit == wanted) filtered.push_back(std::move(s));
    }
    spans = std::move(filtered);
    if (spans.empty()) {
      std::printf("no trace events for submit %lld\n", wanted);
      return 0;
    }
  }

  if (cl.GetBool("tree")) {
    PrintTree(spans);
    return 0;
  }
  PrintAggregates(spans);
  PrintSubmits(spans);
  return 0;
}

// cne_gen: seeded Chung–Lu bipartite dataset generator for the scale
// harness (src/graph/synthetic.h).
//
// Generates (or reuses from the on-disk edge cache) a power-law bipartite
// graph shaped like a paper Table 2 row and reports its shape and degree
// statistics. The same spec + seed always produces the same graph, byte
// for byte, so benches and CI can share cached datasets.
//
// Usage:
//   ./cne_gen --upper=105300 --lower=340500 --edges=1100000
//             [--exponent=2.1] [--exponent-lower=...] [--seed=1]
//   ./cne_gen --preset=BX [--scale-edges=1000000]
//   Common flags: [--cache-dir=DIR] [--out=FILE --format=text|bin]
//                 [--stats] [--json]
//
// --preset names a Table 2 dataset code (eval/datasets.h); its generated
// shape becomes the spec. --scale-edges rescales any shape to a target
// draw count (edges linear, vertices by sqrt — density-preserving).
// Exit code 0 on success, 2 on a numeric flag that does not parse, 1 on
// other bad flags or IO failure.

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "eval/datasets.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/synthetic.h"
#include "util/cli.h"

using namespace cne;

namespace {

SyntheticSpec SpecFromFlags(const CommandLine& cl) {
  SyntheticSpec spec;
  const std::string preset = cl.GetString("preset");
  if (!preset.empty()) {
    const auto ds = FindDataset(preset);
    if (!ds) throw std::runtime_error("unknown --preset code " + preset);
    spec.num_upper = static_cast<VertexId>(ds->gen_upper);
    spec.num_lower = static_cast<VertexId>(ds->gen_lower);
    spec.num_edges = ds->gen_edges;
    spec.exponent_upper = ds->exponent;
    spec.exponent_lower = ds->exponent;
    spec.seed = ds->seed;
  }
  spec.num_upper =
      static_cast<VertexId>(cl.GetInt("upper", spec.num_upper));
  spec.num_lower =
      static_cast<VertexId>(cl.GetInt("lower", spec.num_lower));
  spec.num_edges =
      static_cast<uint64_t>(cl.GetInt("edges", spec.num_edges));
  spec.exponent_upper = cl.GetDouble("exponent", spec.exponent_upper);
  spec.exponent_lower =
      cl.GetDouble("exponent-lower", spec.exponent_upper);
  spec.seed = static_cast<uint64_t>(cl.GetInt("seed", spec.seed));
  if (cl.Has("scale-edges")) {
    const uint64_t target =
        static_cast<uint64_t>(cl.GetInt("scale-edges", 0));
    spec = ScaledShapeSpec(spec.num_upper, spec.num_lower, spec.num_edges,
                           target, spec.exponent_upper, spec.seed);
  }
  if (spec.num_upper == 0 || spec.num_lower == 0 || spec.num_edges == 0) {
    throw std::runtime_error(
        "need --upper/--lower/--edges (or --preset); see header comment");
  }
  return spec;
}

void PrintJson(const SyntheticSpec& spec, const EdgeCacheEntry& entry,
               const GraphStats& stats, double build_seconds) {
  std::printf("{\n");
  std::printf("  \"spec\": {\"upper\": %u, \"lower\": %u, \"draws\": %llu, "
              "\"exponent_upper\": %.6g, \"exponent_lower\": %.6g, "
              "\"seed\": %llu},\n",
              spec.num_upper, spec.num_lower,
              static_cast<unsigned long long>(spec.num_edges),
              spec.exponent_upper, spec.exponent_lower,
              static_cast<unsigned long long>(spec.seed));
  std::printf("  \"cache\": {\"path\": \"%s\", \"hit\": %s, "
              "\"file_bytes\": %llu},\n",
              entry.path.c_str(), entry.generated ? "false" : "true",
              static_cast<unsigned long long>(entry.file_bytes));
  std::printf("  \"graph\": {\"edges\": %llu, \"density\": %.6g,\n",
              static_cast<unsigned long long>(stats.num_edges),
              stats.density);
  std::printf("    \"upper\": {\"vertices\": %u, \"max_degree\": %u, "
              "\"avg_degree\": %.6g, \"isolated\": %llu},\n",
              stats.upper.num_vertices, stats.upper.max_degree,
              stats.upper.average_degree,
              static_cast<unsigned long long>(stats.upper.isolated));
  std::printf("    \"lower\": {\"vertices\": %u, \"max_degree\": %u, "
              "\"avg_degree\": %.6g, \"isolated\": %llu}},\n",
              stats.lower.num_vertices, stats.lower.max_degree,
              stats.lower.average_degree,
              static_cast<unsigned long long>(stats.lower.isolated));
  std::printf("  \"build_seconds\": %.3f\n}\n", build_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CommandLine cl(argc, argv);
    const SyntheticSpec spec = SpecFromFlags(cl);
    const std::string cache_dir = cl.GetString("cache-dir");

    const auto t0 = std::chrono::steady_clock::now();
    EdgeCacheEntry entry;
    const BipartiteGraph graph = BuildSyntheticGraph(spec, cache_dir, &entry);
    const double build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const GraphStats stats = ComputeGraphStats(graph);
    if (cl.GetBool("json")) {
      PrintJson(spec, entry, stats, build_seconds);
    } else {
      std::printf("%s\n", spec.Describe().c_str());
      std::printf("cache %s: %s (%llu bytes)\n",
                  entry.generated ? "miss" : "hit", entry.path.c_str(),
                  static_cast<unsigned long long>(entry.file_bytes));
      std::printf("built in %.3fs: %llu distinct edges (%.2f%% of draws)\n",
                  build_seconds,
                  static_cast<unsigned long long>(stats.num_edges),
                  100.0 * static_cast<double>(stats.num_edges) /
                      static_cast<double>(spec.num_edges));
      if (cl.GetBool("stats")) {
        std::printf("%s\n", ToString(stats).c_str());
      }
    }

    const std::string out = cl.GetString("out");
    if (!out.empty()) {
      const std::string format = cl.GetString("format", "text");
      if (format == "bin") {
        WriteBinaryFile(graph, out);
      } else if (format == "text") {
        WriteEdgeListFile(graph, out);
      } else {
        throw std::runtime_error("--format must be 'text' or 'bin', got '" +
                                 format + "'");
      }
      std::printf("wrote %s (%s)\n", out.c_str(), format.c_str());
    }
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "cne_gen: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cne_gen: %s\n", e.what());
    return 1;
  }
}

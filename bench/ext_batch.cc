// Extension experiment: one-vs-many workloads on the shared-view service.
// The paper's applications (similarity, top-k, projection) are
// one-vs-many workloads: one source vertex against hundreds of
// candidates. This bench times such a workload two ways:
//
//   per_pair   one full protocol execution per candidate (fresh randomized
//              response from both vertices every time);
//   service    QueryService — shared noisy views, with the admitted
//              queries answered in shared-endpoint order
//              (service/workload_planner.h).
//
// Section `one_vs_many` runs a 1×N shared-source workload on the
// committed sample graph at ε = 1 (N ≥ 256 distinct candidates, repeated
// submissions so steady-state answering dominates); section `scale` runs
// it on generated graphs. Output is JSON on stdout (progress on stderr)
// for the BENCH_* perf trajectory.
//
// Built-in self-check: every service run is repeated at 2 threads, and
// the 1-thread and 2-thread answers must be bitwise identical; any
// mismatch exits non-zero, so CI runs double as a correctness gate.
//
// Extra flags on top of the shared bench set:
//   --candidates=256   candidates N of the 1×N workload
//   --repeats=64       submissions of the 1×N workload per timed path
//   --scale=1e5,1e6    edge-draw targets for the scale section: the 1×N
//                      workload on the top-degree source of generated
//                      BX-shaped graphs, reduced repeats
//   --out=path         also write the JSON to a file
//   --smoke            small CI configuration

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/oner.h"
#include "graph/graph_io.h"
#include "service/query_service.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/timer.h"

using namespace cne;

namespace {

bool AnswersIdentical(const std::vector<ServiceAnswer>& a,
                      const std::vector<ServiceAnswer>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rejected != b[i].rejected || a[i].estimate != b[i].estimate) {
      return false;
    }
  }
  return true;
}

struct ServiceRun {
  double seconds = 0.0;
  ServiceReport last;  ///< of the last submission, with the metrics
};

// Submits `workload` `repeats` times to a fresh service and returns the
// total wall time: one view materialization, then steady-state answering.
ServiceRun RunService(const BipartiteGraph& graph,
                      const ServiceOptions& options,
                      const std::vector<QueryPair>& workload,
                      size_t repeats) {
  QueryService service(graph, options);
  ServiceRun run;
  Timer timer;
  for (size_t r = 0; r < repeats; ++r) {
    ServiceReport report = service.Submit(workload);
    if (r + 1 == repeats) run.last = std::move(report);
  }
  run.seconds = timer.Seconds();
  // Submit does not snapshot the registry (too costly per batch); pull
  // the cumulative snapshot once, outside the timed loop.
  run.last.metrics = service.SnapshotMetrics();
  return run;
}

// Self-check: reruns `workload` at 2 threads and compares the last
// submission's answers bitwise against the 1-thread `reference`.
bool SameAnswersAtTwoThreads(const BipartiteGraph& graph,
                             ServiceOptions options,
                             const std::vector<QueryPair>& workload,
                             size_t repeats, const ServiceRun& reference,
                             const std::string& label) {
  options.num_threads = 2;
  if (AnswersIdentical(
          RunService(graph, options, workload, repeats).last.answers,
          reference.last.answers)) {
    return true;
  }
  std::fprintf(stderr,
               "SELF-CHECK FAILED: %s: 2-thread answers differ from the "
               "1-thread answers\n",
               label.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const CommandLine cl(argc, argv);
  const bool smoke = cl.GetBool("smoke");
  const size_t candidates_n =
      static_cast<size_t>(cl.GetInt("candidates", 256));
  const size_t repeats =
      static_cast<size_t>(cl.GetInt("repeats", smoke ? 32 : 64));
  bool identity_ok = true;

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"ext_batch\",\n"
       << "  \"seed\": " << options.seed << ",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";

  // ---- Section 1: 1×N shared-source workload, sample graph, ε = 1 ----
  {
    const char* root = std::getenv("CNE_SOURCE_DIR");
    const std::string sample_path =
        std::string(root ? root : ".") + "/data/sample_userpage.txt";
    json << "  \"one_vs_many\": ";
    if (!std::ifstream(sample_path).good()) {
      std::fprintf(stderr,
                   "sample graph not found at %s; skipping one_vs_many\n",
                   sample_path.c_str());
      json << "null,\n";
    } else {
      const BipartiteGraph g = ReadGraphFile(sample_path);
      const double epsilon = 1.0;
      // The busiest lower vertex plays the shared source, as in a top-k
      // query for the platform's heaviest user.
      const Layer layer = Layer::kLower;
      LayeredVertex source{layer, 0};
      for (VertexId v = 1; v < g.NumVertices(layer); ++v) {
        if (g.Degree(layer, v) > g.Degree(source)) source = {layer, v};
      }
      std::vector<QueryPair> workload;
      for (VertexId v = 0;
           v < g.NumVertices(layer) && workload.size() < candidates_n; ++v) {
        if (v != source.id) workload.push_back({layer, source.id, v});
      }

      ServiceOptions service_options;
      service_options.algorithm = ServiceAlgorithm::kOneR;
      service_options.epsilon = epsilon;
      service_options.seed = options.seed;
      service_options.num_threads = 1;

      // One full OneR protocol per candidate, per repetition — every
      // query pays two fresh ε-RR releases.
      OneREstimator oner;
      Rng per_pair_rng(options.seed + 1);
      double checksum = 0.0;
      Timer per_pair_timer;
      for (size_t r = 0; r < repeats; ++r) {
        for (const QueryPair& q : workload) {
          checksum += oner.Estimate(g, q, epsilon, per_pair_rng).estimate;
        }
      }
      const double per_pair_seconds = per_pair_timer.Seconds();

      const ServiceRun service =
          RunService(g, service_options, workload, repeats);
      identity_ok &= SameAnswersAtTwoThreads(g, service_options, workload,
                                             repeats, service, "one_vs_many");

      const double total_queries =
          static_cast<double>(workload.size() * repeats);
      const double speedup_vs_per_pair =
          service.seconds > 0.0 ? per_pair_seconds / service.seconds : 0.0;
      std::fprintf(stderr,
                   "one_vs_many N=%zu x%zu: per_pair %.3fs, service %.3fs "
                   "(%.1fx vs per_pair, checksum %.1f)\n",
                   workload.size(), repeats, per_pair_seconds,
                   service.seconds, speedup_vs_per_pair, checksum);

      json << "{\n"
           << "    \"epsilon\": " << epsilon << ",\n"
           << "    \"source_degree\": " << g.Degree(source) << ",\n"
           << "    \"candidates\": " << workload.size() << ",\n"
           << "    \"repeats\": " << repeats << ",\n"
           << "    \"total_queries\": " << total_queries << ",\n"
           << "    \"per_pair_seconds\": " << per_pair_seconds << ",\n"
           << "    \"planned_seconds\": " << service.seconds << ",\n"
           << "    \"planned_qps\": "
           << (service.seconds > 0.0 ? total_queries / service.seconds : 0.0)
           << ",\n"
           << "    \"speedup_vs_per_pair\": " << speedup_vs_per_pair
           << ",\n"
           << "    \"meets_3x_vs_per_pair\": "
           << (speedup_vs_per_pair >= 3.0 ? "true" : "false") << ",\n"
           << "    \"groups_formed\": " << service.last.groups_formed
           << ",\n"
           << "    \"avg_group_size\": " << service.last.avg_group_size
           << ",\n"
           << "    \"planner_seconds_last_submit\": "
           << service.last.planner_seconds << ",\n"
           << "    \"rejected\": " << service.last.rejected << ",\n"
           << "    \"phases\": "
           << bench::PhasesJson(service.last.metrics, "    ") << "\n"
           << "  },\n";
    }
  }

  // ---- Section 2 (--scale): the 1×N workload on the top-degree source
  // ---- of generated BX-shaped graphs, reduced repeats. Service qps is
  // ---- the scale metric, named planned_qps as in the committed baselines.
  json << "  \"scale\": [";
  bool first_scale = true;
  for (uint64_t target : bench::ParseScaleList(cl)) {
    const bench::ScaleDataset dataset = bench::MakeScaleDataset(target);
    const BipartiteGraph& g = dataset.graph;
    const size_t scale_repeats = smoke ? 4 : 8;

    // The busiest upper vertex is the shared source; the next
    // `candidates_n` busiest upper vertices are its candidates (matching
    // a top-k query against the head of the degree distribution).
    const Layer layer = Layer::kUpper;
    std::vector<VertexId> by_degree(g.NumVertices(layer));
    for (VertexId v = 0; v < g.NumVertices(layer); ++v) by_degree[v] = v;
    std::partial_sort(by_degree.begin(),
                      by_degree.begin() +
                          std::min<size_t>(candidates_n + 1, by_degree.size()),
                      by_degree.end(), [&](VertexId a, VertexId b) {
                        return g.Degree(layer, a) > g.Degree(layer, b);
                      });
    const VertexId source = by_degree.front();
    std::vector<QueryPair> workload;
    for (size_t i = 1; i < by_degree.size() && workload.size() < candidates_n;
         ++i) {
      workload.push_back({layer, source, by_degree[i]});
    }

    ServiceOptions base;
    base.algorithm = ServiceAlgorithm::kOneR;
    base.epsilon = 1.0;
    base.seed = options.seed;
    base.num_threads = 1;

    const ServiceRun run = RunService(g, base, workload, scale_repeats);
    identity_ok &=
        SameAnswersAtTwoThreads(g, base, workload, scale_repeats, run,
                                "scale " + std::to_string(target));

    const double total_queries =
        static_cast<double>(workload.size() * scale_repeats);
    const double planned_qps =
        run.seconds > 0.0 ? total_queries / run.seconds : 0.0;
    std::fprintf(stderr, "scale %llu 1x%zu x%zu: service %.3fs (%.0f qps)\n",
                 static_cast<unsigned long long>(target), workload.size(),
                 scale_repeats, run.seconds, planned_qps);

    if (!first_scale) json << ",";
    first_scale = false;
    json << "\n    {\"shape\": " << bench::GraphShapeJson(dataset)
         << ",\n     \"source_degree\": " << g.Degree(layer, source)
         << ", \"candidates\": " << workload.size()
         << ", \"repeats\": " << scale_repeats << ", \"simd_level\": \""
         << SimdLevelName(ActiveSimdLevel())
         << "\", \"planned_seconds\": " << run.seconds
         << ", \"groups_formed\": " << run.last.groups_formed
         << ",\n     \"phases\": "
         << bench::PhasesJson(run.last.metrics, "     ")
         << ",\n     \"scale_metric\": "
         << bench::ScaleMetricJson("planned_qps", planned_qps, true) << "}";
  }
  json << "\n  ],\n"
       << "  \"answers_identical\": " << (identity_ok ? "true" : "false")
       << "\n}\n";

  std::cout << json.str();
  const std::string out_path = cl.GetString("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return identity_ok ? 0 : 3;
}

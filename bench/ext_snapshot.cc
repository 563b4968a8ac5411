// Extension experiment: persistence subsystem throughput (store/).
//
// Measures, on the committed sample graph, (1) checkpoint (save) cost and
// snapshot size, (2) warm-start latency — restoring a killed service from
// snapshot + WAL — against the cold start that rebuilds the same state by
// re-executing the workload, and (3) runs the round-trip self-check: the
// restored service must produce byte-identical answers and residual
// budgets to an uninterrupted run. Any disagreement exits non-zero, so
// the CI smoke run is also a correctness gate for the persistence layer.
//
// Output is machine-readable JSON on stdout (progress on stderr).
//
// Extra flags on top of the shared bench set:
//   --algorithm=OneR    service algorithm (Naive|OneR|MultiR-SS|MultiR-DS)
//   --hot=48            hot-set size of the synthetic workload
//   --repeats=5         save/load timing repetitions (median-free mean)
//   --scale=1e5,1e6     edge-draw targets for the scale section:
//                       checkpoint/warm/cold on generated BX-shaped graphs,
//                       the median checkpoint seconds as the canonical
//                       scale metric
//   --out=path          also write the JSON to a file
//   --smoke             small CI configuration

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "util/binary_io.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/statistics.h"
#include "util/timer.h"

using namespace cne;

namespace {

// Checkpoints timed per scale entry; their median is the scale metric.
constexpr size_t kScaleCheckpoints = 25;

bool SameAnswers(const ServiceReport& a, const ServiceReport& b) {
  if (a.answers.size() != b.answers.size()) return false;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    if (a.answers[i].rejected != b.answers[i].rejected ||
        a.answers[i].estimate != b.answers[i].estimate) {
      return false;
    }
  }
  return true;
}

bool SameLedgers(const BudgetLedger& a, const BudgetLedger& b) {
  const auto sa = a.Snapshot();
  const auto sb = b.Snapshot();
  if (sa.size() != sb.size()) return false;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (!(sa[i].vertex == sb[i].vertex) || sa[i].spent != sb[i].spent) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const CommandLine cl(argc, argv);
  const bool smoke = cl.GetBool("smoke");

  const std::string algorithm_name = cl.GetString("algorithm", "OneR");
  const auto algorithm = ParseServiceAlgorithm(algorithm_name);
  if (!algorithm) {
    std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm_name.c_str());
    return 2;
  }
  // This bench lives in the dense ε ≤ 1 regime of the sample graph, like
  // ext_intersect; the shared --epsilon default of 2 is for estimators.
  const double epsilon = cl.Has("epsilon") ? options.epsilon : 1.0;
  const size_t queries =
      cl.Has("pairs") ? options.pairs : (smoke ? 2000 : 10000);
  const VertexId hot = static_cast<VertexId>(cl.GetInt("hot", 48));
  const size_t repeats =
      static_cast<size_t>(cl.GetInt("repeats", smoke ? 3 : 5));

  // The committed fixture when reachable (repo root or CNE_SOURCE_DIR),
  // a matched generated graph otherwise.
  const char* root = std::getenv("CNE_SOURCE_DIR");
  const std::string sample_path =
      std::string(root ? root : ".") + "/data/sample_userpage.txt";
  BipartiteGraph graph;
  std::string graph_source;
  if (std::ifstream(sample_path).good()) {
    graph = ReadGraphFile(sample_path);
    graph_source = "data/sample_userpage.txt";
  } else {
    Rng rng(1);
    graph = ErdosRenyiBipartite(120, 300, 1400, rng);
    graph_source = "generated ER(120, 300, 1400)";
  }

  const auto dir = std::filesystem::temp_directory_path() /
                   ("cne_ext_snapshot_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ServiceOptions service_options;
  service_options.algorithm = *algorithm;
  service_options.epsilon = epsilon;
  // Headroom for the MultiR per-query sourcings so the workload answers
  // instead of rejecting.
  service_options.lifetime_budget = 4.0 * epsilon;
  service_options.num_threads = 2;
  service_options.seed = options.seed;

  Rng workload_rng(options.seed);
  const auto w1 = MakeHotSetWorkload(graph, Layer::kLower, queries, hot,
                                     workload_rng);
  // The post-checkpoint batch hits the *other* layer, so its releases are
  // all fresh: the WAL actually carries charges and view authorizations,
  // not just a seal.
  const auto w2 = MakeHotSetWorkload(graph, Layer::kUpper, queries / 4,
                                     hot, workload_rng);
  const auto probe = MakeHotSetWorkload(graph, Layer::kLower, queries / 4,
                                        hot, workload_rng);

  // --- Phase 1: run + checkpoint (save cost), then kill mid-stream.
  double save_seconds = 0.0;
  uint64_t snapshot_bytes = 0;
  std::string phases_json;
  {
    ServiceOptions persistent = service_options;
    persistent.snapshot_dir = dir.string();
    QueryService service(graph, persistent);
    service.Submit(w1);
    for (size_t r = 0; r < repeats; ++r) {
      save_seconds += service.Checkpoint();
    }
    save_seconds /= static_cast<double>(repeats);
    snapshot_bytes =
        std::filesystem::file_size(dir / kSnapshotFileName);
    service.Submit(w2);  // lives only in the WAL
    // Per-phase latency quantiles of the persistent run — the only
    // section of any bench where the checkpoint histogram has counts.
    phases_json = bench::PhasesJson(service.SnapshotMetrics(), "  ");
    std::fprintf(stderr, "checkpoint: %.4fs for %" PRIu64 " bytes\n",
                 save_seconds, snapshot_bytes);
  }  // kill: no final checkpoint

  // --- Phase 2: warm start (snapshot load + WAL replay), cold start
  // --- (re-execute the history), averaged over `repeats`.
  double warm_seconds = 0.0;
  uint64_t wal_replay_records = 0;
  for (size_t r = 0; r < repeats; ++r) {
    ServiceOptions persistent = service_options;
    persistent.snapshot_dir = dir.string();
    Timer timer;
    QueryService warm(graph, persistent);
    warm_seconds += timer.Seconds();
    wal_replay_records = warm.recovery().wal_replay_records;
  }
  warm_seconds /= static_cast<double>(repeats);

  double cold_seconds = 0.0;
  for (size_t r = 0; r < repeats; ++r) {
    Timer timer;
    QueryService cold(graph, service_options);
    cold.Submit(w1);
    cold.Submit(w2);
    cold_seconds += timer.Seconds();
  }
  cold_seconds /= static_cast<double>(repeats);
  std::fprintf(stderr, "warm start %.4fs (replayed %" PRIu64
                       " WAL records), cold start %.4fs\n",
               warm_seconds, wal_replay_records, cold_seconds);

  // --- Phase 3: round-trip self-check. The restored service and the
  // --- uninterrupted one must agree bit for bit.
  bool identical = true;
  {
    ServiceOptions persistent = service_options;
    persistent.snapshot_dir = dir.string();
    QueryService warm(graph, persistent);
    QueryService reference(graph, service_options);
    reference.Submit(w1);
    reference.Submit(w2);
    const ServiceReport got = warm.Submit(probe);
    const ServiceReport want = reference.Submit(probe);
    identical = SameAnswers(want, got) &&
                SameLedgers(reference.ledger(), warm.ledger()) &&
                want.store.releases == got.store.releases;
    if (!identical) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: restored service diverges from the "
                   "uninterrupted run\n");
    }
  }
  std::filesystem::remove_all(dir);

  // ---- Scale section: the same checkpoint / warm-start / cold-start
  // ---- cycle on generated BX-shaped graphs. Checkpoint seconds is the
  // ---- canonical metric: a checkpoint writes only view records and the
  // ---- ledger, so its cost is the commit (fsyncs and rename), and a
  // ---- bytes-per-second figure would only track how few bytes it wrote.
  std::vector<std::string> scale_entries;
  for (uint64_t target : bench::ParseScaleList(cl)) {
    const bench::ScaleDataset dataset = bench::MakeScaleDataset(target);
    const BipartiteGraph& g = dataset.graph;
    const size_t scale_queries = smoke ? 2000 : 4000;
    const auto scale_dir =
        std::filesystem::temp_directory_path() /
        ("cne_ext_snapshot_scale_" + std::to_string(::getpid()) + "_" +
         std::to_string(target));
    std::filesystem::remove_all(scale_dir);

    Rng scale_rng(options.seed);
    const auto sw1 =
        MakeHotSetWorkload(g, Layer::kUpper, scale_queries, hot, scale_rng);
    const auto sw2 = MakeHotSetWorkload(g, Layer::kLower, scale_queries / 4,
                                        hot, scale_rng);
    const auto sprobe = MakeHotSetWorkload(
        g, Layer::kUpper, scale_queries / 4, hot, scale_rng);

    double s_save = 0.0;
    uint64_t s_bytes = 0;
    std::string s_phases;
    {
      ServiceOptions persistent = service_options;
      persistent.snapshot_dir = scale_dir.string();
      QueryService service(g, persistent);
      service.Submit(sw1);
      // A checkpoint is a few fsyncs: the median of many keeps one slow
      // fsync from moving the gated number.
      std::vector<double> checkpoints;
      for (size_t r = 0; r < kScaleCheckpoints; ++r) {
        checkpoints.push_back(service.Checkpoint());
      }
      s_save = Summarize(checkpoints).median;
      s_bytes = std::filesystem::file_size(scale_dir / kSnapshotFileName);
      service.Submit(sw2);  // lives only in the WAL
      s_phases = bench::PhasesJson(service.SnapshotMetrics(), "     ");
    }  // kill: no final checkpoint

    double s_warm = 0.0;
    uint64_t s_wal_records = 0;
    for (size_t r = 0; r < repeats; ++r) {
      ServiceOptions persistent = service_options;
      persistent.snapshot_dir = scale_dir.string();
      Timer timer;
      QueryService warm(g, persistent);
      s_warm += timer.Seconds();
      s_wal_records = warm.recovery().wal_replay_records;
    }
    s_warm /= static_cast<double>(repeats);

    double s_cold = 0.0;
    for (size_t r = 0; r < repeats; ++r) {
      Timer timer;
      QueryService cold(g, service_options);
      cold.Submit(sw1);
      cold.Submit(sw2);
      s_cold += timer.Seconds();
    }
    s_cold /= static_cast<double>(repeats);

    bool scale_identical = true;
    {
      ServiceOptions persistent = service_options;
      persistent.snapshot_dir = scale_dir.string();
      QueryService warm(g, persistent);
      QueryService reference(g, service_options);
      reference.Submit(sw1);
      reference.Submit(sw2);
      const ServiceReport got = warm.Submit(sprobe);
      const ServiceReport want = reference.Submit(sprobe);
      scale_identical = SameAnswers(want, got) &&
                        SameLedgers(reference.ledger(), warm.ledger()) &&
                        want.store.releases == got.store.releases;
      if (!scale_identical) {
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: scale %" PRIu64 " restored service "
                     "diverges from the uninterrupted run\n",
                     target);
        identical = false;
      }
    }
    std::filesystem::remove_all(scale_dir);

    std::fprintf(stderr,
                 "scale %" PRIu64 ": checkpoint %.4fs (%" PRIu64
                 " bytes), warm %.4fs, cold %.4fs\n",
                 target, s_save, s_bytes, s_warm, s_cold);

    std::ostringstream entry;
    entry << "{\"shape\": " << bench::GraphShapeJson(dataset)
          << ",\n     \"hot_set\": " << hot
          << ", \"checkpointed_queries\": " << sw1.size()
          << ", \"wal_queries\": " << sw2.size() << ", \"simd_level\": \""
          << SimdLevelName(ActiveSimdLevel())
          << "\",\n     \"checkpoint_seconds\": " << s_save
          << ", \"snapshot_bytes\": " << s_bytes
          << ", \"warm_start_seconds\": " << s_warm
          << ", \"wal_replay_records\": " << s_wal_records
          << ", \"cold_start_seconds\": " << s_cold
          << ",\n     \"cold_over_warm_speedup\": "
          << (s_warm > 0 ? s_cold / s_warm : 0.0)
          << ", \"round_trip_identical\": "
          << (scale_identical ? "true" : "false")
          << ",\n     \"phases\": " << s_phases
          << ",\n     \"scale_metric\": "
          << bench::ScaleMetricJson("checkpoint_seconds", s_save, false)
          << "}";
    scale_entries.push_back(entry.str());
  }

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"ext_snapshot\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"seed\": " << options.seed << ",\n"
       << "  \"graph\": {\"source\": \"" << graph_source
       << "\", \"upper\": " << graph.NumUpper()
       << ", \"lower\": " << graph.NumLower()
       << ", \"edges\": " << graph.NumEdges() << "},\n"
       << "  \"workload\": {\"algorithm\": \"" << ToString(*algorithm)
       << "\", \"epsilon\": " << epsilon
       << ", \"checkpointed_queries\": " << w1.size()
       << ", \"wal_queries\": " << w2.size()
       << ", \"probe_queries\": " << probe.size()
       << ", \"hot_set\": " << hot << "},\n"
       << "  \"checkpoint\": {\"seconds\": " << save_seconds
       << ", \"bytes\": " << snapshot_bytes << "},\n"
       << "  \"warm_start\": {\"seconds\": " << warm_seconds
       << ", \"wal_replay_records\": " << wal_replay_records << "},\n"
       << "  \"cold_start\": {\"seconds\": " << cold_seconds << "},\n"
       << "  \"cold_over_warm_speedup\": "
       << (warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0) << ",\n"
       << "  \"phases\": " << phases_json << ",\n"
       << "  \"scale\": [";
  for (size_t i = 0; i < scale_entries.size(); ++i) {
    if (i) json << ",";
    json << "\n    " << scale_entries[i];
  }
  json << "\n  ],\n"
       << "  \"round_trip_identical\": " << (identical ? "true" : "false")
       << "\n}\n";

  std::cout << json.str();
  const std::string out_path = cl.GetString("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return identical ? 0 : 1;
}

// Overhead guard for the observability layer: submitting a 10⁵-scale
// workload with metrics_level=full must stay within a few percent of the
// same submission with metrics off. The instrumented pipeline records
// per-phase spans, sampled admission latencies, and chunk-sampled
// per-query post-process latencies — this test is the budget those
// choices must fit.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "util/rng.h"
#include "util/timer.h"

namespace cne {
namespace {

// The 10⁵-draw power-law graph the guard runs on: BX-like shape, the
// regime the scale harness benches. Built through the streamed builder
// into a per-process temp cache that the fixture removes.
BipartiteGraph BuildGuardGraph(std::filesystem::path* cache_dir) {
  *cache_dir = std::filesystem::temp_directory_path() /
               ("cne_metrics_overhead_" + std::to_string(::getpid()));
  SyntheticSpec spec;
  spec.num_upper = 4000;
  spec.num_lower = 10000;
  spec.num_edges = 100000;
  spec.exponent_upper = 2.1;
  spec.exponent_lower = 2.1;
  spec.seed = 107;
  return BuildSyntheticGraph(spec, cache_dir->string());
}

ServiceOptions GuardOptions(obs::MetricsLevel level) {
  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 1.0;
  options.num_threads = 1;
  options.seed = 7;
  options.metrics_level = level;
  return options;
}

// Best-of-reps submission seconds for one pre-warmed service. Best-of
// rather than mean: timing noise under CI is one-sided (preemption,
// frequency scaling), and the guard compares two best cases.
double TimedRep(QueryService& service,
                const std::vector<QueryPair>& workload) {
  Timer timer;
  service.Submit(workload);
  return timer.Seconds();
}

TEST(MetricsOverheadTest, FullInstrumentationCostsUnderFivePercent) {
  std::filesystem::path cache_dir;
  const BipartiteGraph graph = BuildGuardGraph(&cache_dir);
  Rng workload_rng(7);
  const std::vector<QueryPair> workload =
      MakeHotSetWorkload(graph, Layer::kLower, 4000, 64, workload_rng);

  // Two pre-warmed services, timed in alternating reps, best-of each:
  // run-to-run noise on a loaded CI core exceeds the overhead budget
  // itself, and rep-level interleaving keeps slow stretches (preemption,
  // frequency drift) from landing entirely on one level. The warm
  // submits mean the timed reps never pay view materialization.
  //
  // A trace sink capturing every submit is installed for the whole
  // measurement: the <5% contract covers the full observability stack —
  // span histograms, exemplar reservoirs, AND the trace event ring.
  obs::TraceSink trace_sink;
  trace_sink.Install();
  QueryService off_service(graph, GuardOptions(obs::MetricsLevel::kOff));
  QueryService full_service(graph, GuardOptions(obs::MetricsLevel::kFull));
  off_service.Submit(workload);
  full_service.Submit(workload);

  // Up to three measurement blocks, keeping the smallest observed
  // overhead. Each block's statistic is the MEDIAN of per-rep paired
  // ratios, not a ratio of block minima: when ctest runs suites in
  // parallel on few cores, a preemption slice that lands on one level's
  // best rep skews a min-based ratio arbitrarily, while a slice spanning
  // a back-to-back off/full pair inflates both sides and leaves that
  // pair's ratio honest — and the median discards the few pairs it cuts
  // through.
  double off_best = 1e100;
  double full_best = 1e100;
  double overhead = 1.0;
  for (int attempt = 0; attempt < 3 && !(overhead < 0.05); ++attempt) {
    std::vector<double> ratios;
    ratios.reserve(24);
    for (int rep = 0; rep < 24; ++rep) {
      const double off_rep = TimedRep(off_service, workload);
      const double full_rep = TimedRep(full_service, workload);
      off_best = std::min(off_best, off_rep);
      full_best = std::min(full_best, full_rep);
      ratios.push_back(full_rep / off_rep);
    }
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    const double block_overhead = ratios[ratios.size() / 2] - 1.0;
    overhead = std::min(overhead, block_overhead);
  }

  ASSERT_LT(off_best, 1e100);
  ASSERT_LT(full_best, 1e100);
  std::cout << "measured overhead: " << overhead * 100 << "% (best rep "
            << off_best * 1e6 << " us off, " << full_best * 1e6
            << " us full per " << workload.size() << "-query submit)\n";
  // <5% is the subsystem's contract (docs/ARCHITECTURE.md Observability).
  EXPECT_LT(overhead, 0.05)
      << "metrics_level=full costs " << overhead * 100 << "% ("
      << off_best * 1e6 << " us off vs " << full_best * 1e6
      << " us full per " << workload.size() << "-query submit)";
  // The sink really captured the full-level submits it was charged for.
  EXPECT_GT(trace_sink.EventsRetained() + trace_sink.EventsDropped(), 0u);
  trace_sink.Uninstall();
  std::filesystem::remove_all(cache_dir);
}

TEST(MetricsOverheadTest, FullLevelCarriesExemplarsAndBurnDown) {
  std::filesystem::path cache_dir;
  const BipartiteGraph graph = BuildGuardGraph(&cache_dir);
  Rng workload_rng(7);
  const std::vector<QueryPair> workload =
      MakeHotSetWorkload(graph, Layer::kLower, 4000, 64, workload_rng);

  QueryService service(graph, GuardOptions(obs::MetricsLevel::kFull));
  service.Submit(workload);
  const obs::MetricsSnapshot metrics = service.SnapshotMetrics();

  // Burn-down: the hot-set workload charges its released vertices.
  ASSERT_TRUE(metrics.budget.present);
  EXPECT_GT(metrics.budget.charged_vertices, 0u);
  EXPECT_GT(metrics.budget.total_spent, 0.0);
  EXPECT_GT(metrics.budget.spent_rr + metrics.budget.spent_laplace, 0.0);
  uint64_t binned = 0;
  for (uint64_t c : metrics.budget.residual_histogram) binned += c;
  EXPECT_EQ(binned, metrics.budget.charged_vertices);

  // Exemplars: the sampled post-process and release-build paths both saw
  // enough work at this scale to retain slowest samples with context.
  bool saw_post_process = false, saw_release_build = false;
  for (const obs::PhaseExemplars& pe : metrics.exemplars) {
    const bool is_post = pe.phase == "post_process";
    const bool is_build = pe.phase == "release_build";
    saw_post_process = saw_post_process || is_post;
    saw_release_build = saw_release_build || is_build;
    for (const obs::Exemplar& e : pe.exemplars) {
      EXPECT_GT(e.seconds, 0.0) << pe.phase;
      EXPECT_GT(e.submit, 0u) << pe.phase;
    }
  }
  EXPECT_TRUE(saw_post_process);
  EXPECT_TRUE(saw_release_build);
  std::filesystem::remove_all(cache_dir);
}

TEST(MetricsOverheadTest, OffLevelReportsNoMetrics) {
  Rng graph_rng(3);
  const BipartiteGraph graph = ErdosRenyiBipartite(100, 200, 2000, graph_rng);
  Rng workload_rng(7);
  const std::vector<QueryPair> workload =
      MakeHotSetWorkload(graph, Layer::kLower, 200, 16, workload_rng);

  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 1.0;
  options.num_threads = 1;
  options.seed = 7;
  options.metrics_level = obs::MetricsLevel::kOff;
  QueryService service(graph, options);
  service.Submit(workload);
  const obs::MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_TRUE(metrics.phases.empty());
  EXPECT_TRUE(metrics.counters.empty());
}

TEST(MetricsOverheadTest, FullLevelReportsEveryPhase) {
  Rng graph_rng(3);
  const BipartiteGraph graph = ErdosRenyiBipartite(100, 200, 2000, graph_rng);
  Rng workload_rng(7);
  const std::vector<QueryPair> workload =
      MakeHotSetWorkload(graph, Layer::kLower, 200, 16, workload_rng);

  ServiceOptions options;
  options.algorithm = ServiceAlgorithm::kOneR;
  options.epsilon = 1.0;
  options.num_threads = 1;
  options.seed = 7;
  QueryService service(graph, options);  // metrics_level defaults to full
  const ServiceReport report = service.Submit(workload);
  const obs::MetricsSnapshot metrics = service.SnapshotMetrics();

  for (const char* phase : {"admission", "wal_fsync", "release", "plan",
                            "execute", "post_process", "checkpoint",
                            "release_build"}) {
    ASSERT_NE(metrics.Phase(phase), nullptr) << phase;
  }
  EXPECT_GT(metrics.Phase("admission")->count, 0u);
  EXPECT_GT(metrics.Phase("execute")->count, 0u);
  EXPECT_EQ(metrics.Phase("checkpoint")->count, 0u);  // none yet
  EXPECT_EQ(metrics.CounterValue("queries_submitted"), workload.size());
  // Answers must be byte-identical across metrics levels — observability
  // never touches the noise or the estimates.
  ServiceOptions off = options;
  off.metrics_level = obs::MetricsLevel::kOff;
  QueryService service_off(graph, off);
  const ServiceReport report_off = service_off.Submit(workload);
  ASSERT_EQ(report.answers.size(), report_off.answers.size());
  for (size_t i = 0; i < report.answers.size(); ++i) {
    EXPECT_EQ(report.answers[i].estimate, report_off.answers[i].estimate);
    EXPECT_EQ(report.answers[i].rejected, report_off.answers[i].rejected);
  }
}

}  // namespace
}  // namespace cne

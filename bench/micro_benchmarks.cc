// Google-benchmark micro-benchmarks of the substrate: the adaptive
// set-intersection kernels (scalar merge, galloping, bitmap AND, probe),
// randomized response, graph generation, and end-to-end
// estimator latency on the rmwiki analog.

#include <benchmark/benchmark.h>

#include "core/central_dp.h"
#include "core/multir_ds.h"
#include "core/multir_ss.h"
#include "core/naive.h"
#include "core/oner.h"
#include "eval/datasets.h"
#include "graph/generators.h"
#include "graph/set_ops.h"
#include "ldp/randomized_response.h"
#include "util/rng.h"

namespace cne {
namespace {

const BipartiteGraph& RmGraph() {
  static const BipartiteGraph* graph =
      new BipartiteGraph(MakeDataset(*FindDataset("RM")));
  return *graph;
}

void BM_SortedIntersection(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<VertexId> a, b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back(static_cast<VertexId>(rng.UniformInt(10 * n)));
    b.push_back(static_cast<VertexId>(rng.UniformInt(10 * n)));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortedIntersectionSize(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SortedIntersection)->Range(1 << 8, 1 << 16);

// Two same-density random sets over a 10n domain; density n/(10n) = 0.1.
void MakeRandomPair(size_t n, std::vector<VertexId>& a,
                    std::vector<VertexId>& b, DenseBitset& ba,
                    DenseBitset& bb) {
  Rng rng(1);
  const VertexId domain = static_cast<VertexId>(10 * n);
  for (size_t i = 0; i < n; ++i) {
    a.push_back(static_cast<VertexId>(rng.UniformInt(domain)));
    b.push_back(static_cast<VertexId>(rng.UniformInt(domain)));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  ba = DenseBitset(domain);
  for (VertexId v : a) ba.Set(v);
  bb = DenseBitset(domain);
  for (VertexId v : b) bb.Set(v);
}

void BM_IntersectBitmapAnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<VertexId> a, b;
  DenseBitset ba, bb;
  MakeRandomPair(n, a, b, ba, bb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectBitmapAnd(ba, bb));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IntersectBitmapAnd)->Range(1 << 8, 1 << 16);

void BM_IntersectProbeBitmap(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<VertexId> a, b;
  DenseBitset ba, bb;
  MakeRandomPair(n, a, b, ba, bb);
  // Probe a 64x smaller sorted set into the dense bitmap.
  a.resize(std::max<size_t>(1, a.size() / 64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectProbeBitmap(a, bb));
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_IntersectProbeBitmap)->Range(1 << 8, 1 << 16);

void BM_IntersectGallopingSkewed(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<VertexId> a, b;
  DenseBitset ba, bb;
  MakeRandomPair(n, a, b, ba, bb);
  a.resize(std::max<size_t>(1, a.size() / 64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectGalloping(a, b));
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_IntersectGallopingSkewed)->Range(1 << 8, 1 << 16);

void BM_RandomizedResponse(benchmark::State& state) {
  const VertexId domain = static_cast<VertexId>(state.range(0));
  Rng gen(2);
  const BipartiteGraph g = ErdosRenyiBipartite(1, domain, domain / 100, gen);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ApplyRandomizedResponse(g, {Layer::kUpper, 0}, 1.0, rng));
  }
  state.SetItemsProcessed(state.iterations() * domain);
}
BENCHMARK(BM_RandomizedResponse)->Range(1 << 10, 1 << 20);

void BM_ChungLuGeneration(benchmark::State& state) {
  const uint64_t edges = static_cast<uint64_t>(state.range(0));
  uint64_t seed = 4;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(
        ChungLuPowerLaw(10000, 10000, edges, 2.1, rng));
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_ChungLuGeneration)->Range(1 << 12, 1 << 17);

void BM_ExactCommonNeighbors(benchmark::State& state) {
  const BipartiteGraph& g = RmGraph();
  Rng rng(5);
  for (auto _ : state) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(g.NumUpper()));
    const VertexId w = static_cast<VertexId>(rng.UniformInt(g.NumUpper()));
    benchmark::DoNotOptimize(
        g.CountCommonNeighbors(Layer::kUpper, u, w));
  }
}
BENCHMARK(BM_ExactCommonNeighbors);

template <typename MakeEstimator>
void EstimatorLatency(benchmark::State& state, MakeEstimator make) {
  const BipartiteGraph& g = RmGraph();
  const auto estimator = make();
  Rng rng(6);
  for (auto _ : state) {
    const VertexId u = static_cast<VertexId>(rng.UniformInt(g.NumUpper()));
    VertexId w = static_cast<VertexId>(rng.UniformInt(g.NumUpper() - 1));
    if (w >= u) ++w;
    benchmark::DoNotOptimize(
        estimator->Estimate(g, {Layer::kUpper, u, w}, 2.0, rng));
  }
}

void BM_EstimatorNaive(benchmark::State& state) {
  EstimatorLatency(state, [] { return std::make_unique<NaiveEstimator>(); });
}
BENCHMARK(BM_EstimatorNaive);

void BM_EstimatorOneR(benchmark::State& state) {
  EstimatorLatency(state, [] { return std::make_unique<OneREstimator>(); });
}
BENCHMARK(BM_EstimatorOneR);

void BM_EstimatorMultiRSS(benchmark::State& state) {
  EstimatorLatency(state,
                   [] { return std::make_unique<MultiRSSEstimator>(); });
}
BENCHMARK(BM_EstimatorMultiRSS);

void BM_EstimatorMultiRDS(benchmark::State& state) {
  EstimatorLatency(state, [] { return MakeMultiRDS(); });
}
BENCHMARK(BM_EstimatorMultiRDS);

void BM_EstimatorCentralDP(benchmark::State& state) {
  EstimatorLatency(state,
                   [] { return std::make_unique<CentralDpEstimator>(); });
}
BENCHMARK(BM_EstimatorCentralDP);

}  // namespace
}  // namespace cne

BENCHMARK_MAIN();

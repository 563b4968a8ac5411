// Google-benchmark micro-benchmarks of the substrate: the adaptive
// set-intersection kernels (scalar merge, galloping, bitmap AND, probe),
// blocked bitmap pair counts against per-pair AND on the hot-set shape,
// randomized response, graph generation, and end-to-end
// estimator latency on the rmwiki analog.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

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

// The perfbench hot_set_read execute shape: 256 views over a
// 1,026,646-id layer (16,042 words, 12.5% dense, about an ε = 2 RR row)
// and 16,384 random pairs among them, grouped under the busier endpoint
// as WorkloadPlanner groups them and cut into chunks of groups / 12, as a
// 3-thread ThreadPool cuts them.
struct HotSetPairs {
  std::vector<DenseBitset> views;
  std::vector<BitmapPair> pairs;  ///< group by group
  std::vector<size_t> chunks;     ///< pair offset of each chunk, then the end
};

const HotSetPairs& HotSet() {
  static const HotSetPairs* shape = [] {
    constexpr size_t kViews = 256;
    constexpr size_t kPairs = 16384;
    constexpr VertexId kDomain = 1'026'646;
    auto* out = new HotSetPairs;
    Rng rng(1);
    for (size_t v = 0; v < kViews; ++v) {
      DenseBitset bits(kDomain);
      std::span<uint64_t> words = bits.MutableWords();
      for (uint64_t& word : words) {
        word = rng.NextU64() & rng.NextU64() & rng.NextU64();
      }
      words.back() &= (uint64_t{1} << (kDomain % 64)) - 1;
      out->views.push_back(std::move(bits));
    }
    std::vector<std::pair<size_t, size_t>> queries;
    std::vector<size_t> frequency(kViews, 0);
    for (size_t i = 0; i < kPairs; ++i) {
      const size_t a = rng.UniformInt(kViews);
      size_t b = rng.UniformInt(kViews - 1);
      if (b >= a) ++b;
      queries.emplace_back(a, b);
      ++frequency[a];
      ++frequency[b];
    }
    std::vector<std::vector<size_t>> partners(kViews);
    for (const auto& [a, b] : queries) {
      if (frequency[a] >= frequency[b]) {
        partners[a].push_back(b);
      } else {
        partners[b].push_back(a);
      }
    }
    std::vector<size_t> sources;
    for (size_t v = 0; v < kViews; ++v) {
      if (!partners[v].empty()) sources.push_back(v);
    }
    std::stable_sort(sources.begin(), sources.end(), [&](size_t x, size_t y) {
      return partners[x].size() > partners[y].size();
    });
    const size_t groups_per_chunk = std::max<size_t>(1, sources.size() / 12);
    for (size_t g = 0; g < sources.size(); ++g) {
      if (g % groups_per_chunk == 0) out->chunks.push_back(out->pairs.size());
      for (size_t w : partners[sources[g]]) {
        out->pairs.push_back({&out->views[sources[g]], &out->views[w]});
      }
    }
    out->chunks.push_back(out->pairs.size());
    return out;
  }();
  return *shape;
}

// Arg 0: one IntersectBitmapAnd per pair; arg 1: one BitmapAndCounts pass
// per chunk. With N threads, thread k takes chunks k, k + N, ...
void BM_HotSetPairCounts(benchmark::State& state) {
  const HotSetPairs& shape = HotSet();
  const bool blocked = state.range(0) != 0;
  const std::span<const BitmapPair> pairs = shape.pairs;
  std::vector<uint64_t> counts(pairs.size());
  const size_t threads = static_cast<size_t>(state.threads());
  const size_t self = static_cast<size_t>(state.thread_index());
  size_t done = 0;
  for (auto _ : state) {
    for (size_t c = self; c + 1 < shape.chunks.size(); c += threads) {
      const size_t begin = shape.chunks[c];
      const size_t size = shape.chunks[c + 1] - begin;
      if (blocked) {
        BitmapAndCounts(pairs.subspan(begin, size),
                        std::span<uint64_t>(counts).subspan(begin, size));
      } else {
        for (size_t i = begin; i < begin + size; ++i) {
          counts[i] = IntersectBitmapAnd(*pairs[i].source, *pairs[i].partner);
        }
      }
      done += size;
    }
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(done));
}
BENCHMARK(BM_HotSetPairCounts)
    ->ArgName("blocked")
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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

// Ablation: the sorted (Geometric-skip) and bitmap (word-parallel mask)
// randomized-response samplers vs the textbook dense (bit-by-bit)
// implementation. docs/ARCHITECTURE.md claims both are distributionally
// identical to it; this harness measures the speedups and the
// distributional agreement (noisy-degree mean over repeated runs).

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "graph/generators.h"
#include "ldp/randomized_response.h"
#include "util/statistics.h"
#include "util/table.h"
#include "util/timer.h"

using namespace cne;

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  bench::PrintHeader("Ablation", "sparse vs dense randomized response",
                     options);

  TextTable table({"domain n", "deg d", "eps", "sparse us/run",
                   "bitmap us/run", "dense us/run", "speedup",
                   "mean|noisy| sparse", "mean|noisy| dense",
                   "E[noisy] theory"});
  Rng gen(1);
  for (VertexId domain : {1000u, 10000u, 100000u}) {
    const VertexId degree = domain / 100;
    Rng graph_rng(gen.NextU64());
    const BipartiteGraph g =
        ErdosRenyiBipartite(1, domain, degree, graph_rng);
    for (double eps : {1.0, 2.0}) {
      // Dense runs are capped so the 100k domain stays fast. The sorted
      // and bitmap samplers are pinned explicitly: at these eps kAuto
      // would pick the bitmap, and this ablation is about each sampler.
      const int sparse_runs = 2000;
      const int dense_runs = domain > 50000 ? 50 : 400;
      Rng rng_s(11), rng_b(11), rng_d(12);
      RunningStats size_s, size_d;
      Timer t1;
      for (int i = 0; i < sparse_runs; ++i) {
        size_s.Add(static_cast<double>(
            ApplyRandomizedResponse(g, {Layer::kUpper, 0}, eps, rng_s,
                                    RrStorage::kSorted)
                .Size()));
      }
      const double sparse_us = t1.Seconds() * 1e6 / sparse_runs;
      Timer tb;
      for (int i = 0; i < sparse_runs; ++i) {
        (void)ApplyRandomizedResponse(g, {Layer::kUpper, 0}, eps, rng_b,
                                      RrStorage::kBitmap);
      }
      const double bitmap_us = tb.Seconds() * 1e6 / sparse_runs;
      Timer t2;
      for (int i = 0; i < dense_runs; ++i) {
        size_d.Add(static_cast<double>(
            ApplyRandomizedResponseDense(g, {Layer::kUpper, 0}, eps, rng_d)
                .Size()));
      }
      const double dense_us = t2.Seconds() * 1e6 / dense_runs;
      table.NewRow()
          .AddInt(domain)
          .AddInt(degree)
          .AddDouble(eps, 1)
          .AddDouble(sparse_us, 1)
          .AddDouble(bitmap_us, 1)
          .AddDouble(dense_us, 1)
          .AddDouble(dense_us / sparse_us, 1)
          .AddDouble(size_s.Mean(), 1)
          .AddDouble(size_d.Mean(), 1)
          .AddDouble(ExpectedNoisyDegree(degree, domain, eps), 1);
    }
  }
  options.csv ? table.PrintCsv(std::cout) : table.Print(std::cout);
  std::printf(
      "\nExpected: matching noisy-degree means (same distribution).\n"
      "Runtime: both samplers beat the dense bit-by-bit scan. The bitmap\n"
      "sampler builds its flip mask 64 lanes per ~7 random words, so at\n"
      "these dense eps it is the fastest generator too (~10-20x the\n"
      "sorted sampler's Geometric skips), on top of the packed\n"
      "representation's 20-70x faster intersections (see ext_intersect).\n");
  return 0;
}

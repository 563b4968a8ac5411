#include "bench_common.h"

#include <cstdio>
#include <map>

#include "util/timer.h"

namespace cne {
namespace bench {

BenchOptions ParseOptions(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  BenchOptions options;
  options.datasets = cl.GetList("datasets");
  options.pairs = static_cast<size_t>(cl.GetInt("pairs", 100));
  options.epsilon = cl.GetDouble("epsilon", 2.0);
  options.trials = static_cast<size_t>(cl.GetInt("trials", 1));
  options.seed = static_cast<uint64_t>(cl.GetInt("seed", 7));
  options.csv = cl.GetBool("csv");
  return options;
}

void PrintHeader(const std::string& artifact, const std::string& summary,
                 const BenchOptions& options) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), summary.c_str());
  std::printf("paper: Common Neighborhood Estimation over Bipartite Graphs\n");
  std::printf("       under Local Differential Privacy (SIGMOD 2024)\n");
  std::printf("datasets: synthetic Chung-Lu analogs of the KONECT graphs\n");
  std::printf("          (Table 2 sizes; >2M-edge graphs scaled, see "
              "docs/BENCHMARKS.md)\n");
  std::printf("pairs=%zu trials=%zu seed=%llu\n", options.pairs,
              options.trials,
              static_cast<unsigned long long>(options.seed));
  std::printf("==============================================================\n");
}

const BipartiteGraph& CachedDataset(const DatasetSpec& spec) {
  static std::map<std::string, BipartiteGraph>* cache =
      new std::map<std::string, BipartiteGraph>();
  auto it = cache->find(spec.code);
  if (it == cache->end()) {
    Timer timer;
    std::fprintf(stderr, "[bench] generating %s (%s: |U|=%llu |L|=%llu "
                 "m=%llu) ...\n",
                 spec.code.c_str(), spec.name.c_str(),
                 static_cast<unsigned long long>(spec.gen_upper),
                 static_cast<unsigned long long>(spec.gen_lower),
                 static_cast<unsigned long long>(spec.gen_edges));
    it = cache->emplace(spec.code, MakeDataset(spec)).first;
    std::fprintf(stderr, "[bench]   done in %.1fs\n", timer.Seconds());
  }
  return it->second;
}

}  // namespace bench
}  // namespace cne

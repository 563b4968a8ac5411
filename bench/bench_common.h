// Shared plumbing for the figure/table benchmark harnesses: standard
// flags, dataset caching, and uniform headers so every binary regenerates
// its paper artifact in the same format.

#ifndef CNE_BENCH_BENCH_COMMON_H_
#define CNE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "eval/datasets.h"
#include "graph/bipartite_graph.h"
#include "util/cli.h"

namespace cne {
namespace bench {

/// Flags shared by all harnesses:
///   --datasets=RM,AC   subset of dataset codes (default: per-bench)
///   --pairs=N          query pairs per dataset (default 100, as in paper)
///   --epsilon=X        privacy budget (default 2.0)
///   --trials=N         protocol runs per pair (default 1)
///   --seed=N           master seed (default 7)
///   --csv              emit CSV instead of aligned tables
struct BenchOptions {
  std::vector<std::string> datasets;
  size_t pairs = 100;
  double epsilon = 2.0;
  size_t trials = 1;
  uint64_t seed = 7;
  bool csv = false;
};

/// Parses the standard flags.
BenchOptions ParseOptions(int argc, char** argv);

/// Prints the uniform harness banner (figure id, paper reference, and the
/// substitution note for generated datasets).
void PrintHeader(const std::string& artifact, const std::string& summary,
                 const BenchOptions& options);

/// Returns the graph for `spec`, generating it on first use and caching it
/// in-process (several harness phases reuse the same dataset).
const BipartiteGraph& CachedDataset(const DatasetSpec& spec);

}  // namespace bench
}  // namespace cne

#endif  // CNE_BENCH_BENCH_COMMON_H_

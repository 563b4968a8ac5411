// Regenerates data/sample_userpage.txt, the bundled sample dataset that
// tests/eval/sample_data_test.cc ingests. The file is committed, so this
// tool only needs rerunning if the Chung–Lu generator or the text writer
// changes; in that case update the expectations in sample_data_test.cc to
// the printed shape.
//
//   ./gen_sample_data [--out=data/sample_userpage.txt] [--seed=1]

#include <cstdio>
#include <stdexcept>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace cne;

int main(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  const std::string out = cl.GetString("out", "data/sample_userpage.txt");
  uint64_t seed = 1;
  try {
    seed = static_cast<uint64_t>(cl.GetInt("seed", 1));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  Rng rng(seed);

  // 120 users x 300 pages, power-law degrees; with seed 1 the dedup'd
  // graph has exactly 1400 edges (the shape sample_data_test.cc expects).
  const BipartiteGraph g = ChungLuPowerLaw(120, 300, 1400, 2.1, rng);
  WriteEdgeListFile(g, out);

  const BipartiteGraph back = ReadEdgeListFile(out);
  std::printf("wrote %s: |U|=%u |L|=%u m=%llu\n", out.c_str(),
              static_cast<unsigned>(back.NumUpper()),
              static_cast<unsigned>(back.NumLower()),
              static_cast<unsigned long long>(back.NumEdges()));
  return 0;
}

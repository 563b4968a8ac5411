// cne — command-line driver for the library.
//
// Subcommands:
//   cne gen       --out=g.txt [--upper=N --lower=N --edges=M --model=chunglu|er
//                 --exponent=2.1 --seed=S] | [--dataset=RM]
//   cne stats     --graph=g.txt
//   cne estimate  --graph=g.txt --layer=upper|lower --u=ID --w=ID
//                 [--epsilon=2.0 --algorithm=MultiR-DS --runs=1 --seed=S]
//   cne experiment --graph=g.txt|--dataset=RM [--pairs=100 --epsilon=2.0
//                 --trials=1 --seed=S]
//
// Graph files are KONECT-style edge lists (or .bin for the binary format).

#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/central_dp.h"
#include "core/estimator.h"
#include "core/multir_ds.h"
#include "core/multir_ss.h"
#include "core/naive.h"
#include "core/oner.h"
#include "eval/datasets.h"
#include "eval/experiment.h"
#include "eval/query_sampler.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "tool_common.h"
#include "util/cli.h"
#include "util/statistics.h"
#include "util/table.h"

using namespace cne;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cne_cli <gen|stats|estimate|experiment> [--flags]\n"
               "see the header of tools/cne_cli.cc for the full flag list\n");
  return 2;
}

std::unique_ptr<CommonNeighborEstimator> MakeEstimator(
    const std::string& name) {
  if (name == "Naive") return std::make_unique<NaiveEstimator>();
  if (name == "OneR") return std::make_unique<OneREstimator>();
  if (name == "MultiR-SS") return std::make_unique<MultiRSSEstimator>();
  if (name == "MultiR-SS-Opt")
    return std::make_unique<MultiRSSOptEstimator>();
  if (name == "MultiR-DS") return MakeMultiRDS();
  if (name == "MultiR-DS-Basic") return MakeMultiRDSBasic();
  if (name == "MultiR-DS*") return MakeMultiRDSStar();
  if (name == "CentralDP") return std::make_unique<CentralDpEstimator>();
  throw std::runtime_error("unknown algorithm " + name);
}

int CmdGen(const CommandLine& cl) {
  const std::string out = cl.GetString("out");
  if (out.empty()) throw std::runtime_error("gen: need --out");
  BipartiteGraph graph;
  const std::string dataset = cl.GetString("dataset");
  if (!dataset.empty()) {
    auto spec = FindDataset(dataset);
    if (!spec) throw std::runtime_error("unknown dataset " + dataset);
    graph = MakeDataset(*spec);
  } else {
    const VertexId upper = static_cast<VertexId>(cl.GetInt("upper", 1000));
    const VertexId lower = static_cast<VertexId>(cl.GetInt("lower", 1000));
    const uint64_t edges = static_cast<uint64_t>(cl.GetInt("edges", 10000));
    Rng rng(static_cast<uint64_t>(cl.GetInt("seed", 1)));
    const std::string model = cl.GetString("model", "chunglu");
    if (model == "er") {
      graph = ErdosRenyiBipartite(upper, lower, edges, rng);
    } else if (model == "chunglu") {
      graph = ChungLuPowerLaw(upper, lower, edges,
                              cl.GetDouble("exponent", 2.1), rng);
    } else {
      throw std::runtime_error("unknown model " + model);
    }
  }
  if (out.ends_with(".bin")) {
    WriteBinaryFile(graph, out);
  } else {
    WriteEdgeListFile(graph, out);
  }
  std::printf("wrote %s: %s\n", out.c_str(), graph.ToString().c_str());
  return 0;
}

int CmdStats(const CommandLine& cl) {
  const BipartiteGraph graph = tools::LoadGraph(cl);
  std::printf("%s\n", ToString(ComputeGraphStats(graph)).c_str());
  return 0;
}

int CmdEstimate(const CommandLine& cl) {
  const BipartiteGraph graph = tools::LoadGraph(cl);
  QueryPair query;
  query.layer = tools::ParseLayerFlag(cl, "upper");
  query.u = static_cast<VertexId>(cl.GetInt("u", 0));
  query.w = static_cast<VertexId>(cl.GetInt("w", 1));
  const double epsilon = cl.GetDouble("epsilon", 2.0);
  const int runs = static_cast<int>(cl.GetInt("runs", 1));
  const auto estimator =
      MakeEstimator(cl.GetString("algorithm", "MultiR-DS"));
  Rng rng(static_cast<uint64_t>(cl.GetInt("seed", 1)));

  const uint64_t truth =
      graph.CountCommonNeighbors(query.layer, query.u, query.w);
  RunningStats stats;
  for (int t = 0; t < runs; ++t) {
    stats.Add(estimator->Estimate(graph, query, epsilon, rng).estimate);
  }
  std::printf("exact C2(%u, %u) = %llu\n", query.u, query.w,
              static_cast<unsigned long long>(truth));
  std::printf("%s estimate (eps=%.2f, %d run%s): mean=%.3f stddev=%.3f\n",
              estimator->Name().c_str(), epsilon, runs, runs == 1 ? "" : "s",
              stats.Mean(), stats.StdDev());
  return 0;
}

int CmdExperiment(const CommandLine& cl) {
  const BipartiteGraph graph = tools::LoadGraph(cl);
  const Layer layer = tools::ParseLayerFlag(cl, "upper");
  ExperimentConfig config;
  config.epsilon = cl.GetDouble("epsilon", 2.0);
  config.trials_per_pair = static_cast<size_t>(cl.GetInt("trials", 1));
  Rng rng(static_cast<uint64_t>(cl.GetInt("seed", 7)));
  const auto pairs = SampleUniformPairs(
      graph, layer, static_cast<size_t>(cl.GetInt("pairs", 100)), rng);
  const auto roster = MakeAllEstimators();
  const auto metrics = RunAllEstimators(graph, roster, pairs, config, rng);

  TextTable table({"algorithm", "MAE", "MRE", "L2", "time(s)", "comm"});
  for (const EstimatorMetrics& m : metrics) {
    table.NewRow()
        .Add(m.estimator)
        .AddDouble(m.mean_absolute_error, 3)
        .AddDouble(m.mean_relative_error, 3)
        .AddSci(m.mean_squared_error, 2)
        .AddDouble(m.total_seconds, 3)
        .Add(FormatBytes(m.mean_comm_bytes));
  }
  if (cl.GetBool("csv")) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const CommandLine cl(argc - 1, argv + 1);
  try {
    if (command == "gen") return CmdGen(cl);
    if (command == "stats") return CmdStats(cl);
    if (command == "estimate") return CmdEstimate(cl);
    if (command == "experiment") return CmdExperiment(cl);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}

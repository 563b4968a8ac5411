// cne_serve — batch-serving front end over the concurrent query service.
//
// Reads a workload of query pairs, executes it against a graph under one
// service-lifetime privacy budget, and prints the answers plus a
// throughput / privacy-accounting report.
//
// Usage:
//   cne_serve --graph=g.txt|--dataset=RM
//             [--workload=w.txt | --pairs=10000 --hot=64 --layer=lower]
//             [--algorithm=OneR --epsilon=2.0 --budget=0 --threads=4
//              --seed=7 --out=answers.txt --json]
//             [--snapshot-dir=DIR --checkpoint-every=N]
//             [--metrics-level=off|counters|full --metrics-json=PATH]
//             [--trace-out=PATH --trace-sample=N --trace-buffer=N]
//             [--failpoints=SPEC --failpoints-seed=S]
//
// Workload files hold one `<upper|lower> <u> <w>` query per line
// (src/service/workload.h). Without --workload, a hot-set workload of
// --pairs queries over the --hot lowest-id vertices of --layer is
// generated. --budget sets the per-vertex lifetime budget (default: one
// full ε per vertex). --out writes one `estimate` or `REJECTED` line per
// query, in input order. --json switches the report to machine-readable
// JSON.
//
// Persistence: --snapshot-dir makes the service crash-safe (store/). On
// start it recovers any existing snapshot + budget WAL in DIR — a killed
// server restarts byte-identical: same answers, same residual budgets,
// zero re-released views. With --checkpoint-every=N the workload is
// submitted in batches of N queries with a checkpoint after each batch
// (and a final checkpoint at the end); N=0 (default) checkpoints once,
// after the whole workload. Inspect DIR with `cne_snapshot --dir=DIR`.
//
// Observability: the report always carries the service's cumulative
// per-phase latency quantiles (admission, wal_fsync, release, plan,
// execute, post_process, checkpoint — obs/metrics.h) as a table (text
// mode) or a "metrics" object (--json). --metrics-json=PATH additionally
// writes the metrics object alone to PATH (diff two with `cne_metrics`);
// --metrics-level=off|counters|full (default full) is the runtime kill
// switch.
//
// Tracing: --trace-out=PATH captures per-span trace events during the run
// and writes them as Chrome-trace-event JSON (open in Perfetto or
// chrome://tracing, or inspect with `cne_trace`). Requires
// --metrics-level=full. --trace-sample=N keeps every Nth submission's
// span tree (default 1: all); --trace-buffer=N sets the per-thread event
// ring capacity (default 4096; oldest events are overwritten when full).
//
// Fault drills: --failpoints=SPEC arms deterministic fault injection
// (grammar in src/util/failpoint.h, e.g. "wal.fsync=err:EIO@3"), seeded
// by --failpoints-seed for the probabilistic triggers. In a binary built
// with -DCNE_FAILPOINTS=OFF the flag is refused loudly rather than
// silently ignored. Faults exercise the service's degradation path (docs/
// ARCHITECTURE.md, "Failure model & degradation"); the run keeps serving
// read-only when the journal fails instead of dying.
//
// Exit codes: 0 success; 1 runtime error; 2 usage error (including a
// numeric flag that does not parse, such as --epsilon=0,5); 3 finished but
// the service degraded to read-only; 4 the service failed mid-execution;
// 5 finished healthy but a checkpoint could not be written.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace_export.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "tool_common.h"
#include "util/cli.h"
#include "util/failpoint.h"

using namespace cne;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cne_serve --graph=g.txt|--dataset=RM "
               "[--workload=w.txt | --pairs=N --hot=K --layer=lower]\n"
               "                 [--algorithm=OneR --epsilon=2.0 --budget=0 "
               "--threads=4 --seed=7 --out=answers.txt --json]\n"
               "                 [--snapshot-dir=DIR --checkpoint-every=N]\n"
               "                 [--metrics-level=off|counters|full "
               "--metrics-json=PATH]\n"
               "                 [--trace-out=PATH --trace-sample=N "
               "--trace-buffer=N]\n"
               "                 [--failpoints=SPEC --failpoints-seed=S]\n"
               "see the header of tools/cne_serve.cc for details\n");
  return 2;
}

void PrintReport(const ServiceReport& report, const ServiceOptions& options,
                 bool json) {
  const double hit_rate = report.store.CacheHitRate();
  if (json) {
    std::printf(
        "{\"algorithm\": \"%s\", \"epsilon\": %g, \"lifetime_budget\": %g,\n"
        " \"threads\": %d, \"queries\": %zu, \"answered\": %llu, "
        "\"rejected\": %llu,\n"
        " \"rejected_budget\": %llu, \"rejected_unavailable\": %llu,\n"
        " \"health\": \"%s\", \"sealed\": %s,\n"
        " \"seconds\": %.6f, \"qps\": %.1f,\n"
        " \"vertices_released\": %llu, \"cache_hit_rate\": %.4f, "
        "\"uploaded_bytes\": %.0f,\n"
        " \"budget_vertices_charged\": %llu, \"budget_total_spent\": %.3f, "
        "\"budget_min_remaining\": %.6f,\n"
        " \"snapshot_load_seconds\": %.6f, \"wal_replay_records\": %llu, "
        "\"checkpoint_seconds\": %.6f,\n \"metrics\": ",
        ToString(options.algorithm), options.epsilon,
        options.lifetime_budget > 0.0 ? options.lifetime_budget
                                      : options.epsilon,
        options.num_threads, report.answers.size(),
        static_cast<unsigned long long>(report.answered),
        static_cast<unsigned long long>(report.rejected),
        static_cast<unsigned long long>(report.rejected_budget),
        static_cast<unsigned long long>(report.rejected_unavailable),
        ServiceHealthName(report.health), report.sealed ? "true" : "false",
        report.seconds, report.QueriesPerSecond(),
        static_cast<unsigned long long>(report.store.releases), hit_rate,
        report.store.UploadedBytes(),
        static_cast<unsigned long long>(report.budget_vertices_charged),
        report.budget_total_spent, report.budget_min_remaining,
        report.snapshot_load_seconds,
        static_cast<unsigned long long>(report.wal_replay_records),
        report.checkpoint_seconds);
    std::printf("%s}\n", report.metrics.ToJson(1).c_str());
    return;
  }
  std::printf("algorithm          %s (epsilon=%g, lifetime budget=%g)\n",
              ToString(options.algorithm), options.epsilon,
              options.lifetime_budget > 0.0 ? options.lifetime_budget
                                            : options.epsilon);
  std::printf("queries            %zu (%llu answered, %llu rejected: "
              "%llu budget, %llu unavailable)\n",
              report.answers.size(),
              static_cast<unsigned long long>(report.answered),
              static_cast<unsigned long long>(report.rejected),
              static_cast<unsigned long long>(report.rejected_budget),
              static_cast<unsigned long long>(report.rejected_unavailable));
  std::printf("health             %s%s\n", ServiceHealthName(report.health),
              report.sealed ? "" : " (some batches were not journaled)");
  std::printf("throughput         %.1f queries/s (%.3fs on %d thread%s)\n",
              report.QueriesPerSecond(), report.seconds,
              options.num_threads, options.num_threads == 1 ? "" : "s");
  std::printf("noisy-view store   %llu releases, %.1f%% cache hits, "
              "%.0f bytes uploaded\n",
              static_cast<unsigned long long>(report.store.releases),
              100.0 * hit_rate, report.store.UploadedBytes());
  std::printf("budget ledger      %llu vertices charged, %.3f eps total, "
              "min residual %.6f\n",
              static_cast<unsigned long long>(report.budget_vertices_charged),
              report.budget_total_spent, report.budget_min_remaining);
  if (!options.snapshot_dir.empty()) {
    std::printf("persistence        %s: load %.3fs, %llu WAL records "
                "replayed, last checkpoint %.3fs\n",
                options.snapshot_dir.c_str(), report.snapshot_load_seconds,
                static_cast<unsigned long long>(report.wal_replay_records),
                report.checkpoint_seconds);
  }
  if (!report.metrics.phases.empty() || !report.metrics.counters.empty()) {
    std::printf("\n%s", report.metrics.ToTable().c_str());
  }
}

// Folds one batch's report into the whole-run report: answers append,
// per-submission counters add, lifetime accounting takes the latest.
void FoldReport(ServiceReport&& batch, ServiceReport& total) {
  total.answered += batch.answered;
  total.rejected += batch.rejected;
  total.rejected_budget += batch.rejected_budget;
  total.rejected_unavailable += batch.rejected_unavailable;
  total.health = batch.health;  // the latest batch knows the final state
  total.sealed = total.sealed && batch.sealed;
  total.seconds += batch.seconds;
  total.groups_formed += batch.groups_formed;
  total.planner_seconds += batch.planner_seconds;
  total.store = batch.store;
  total.budget_vertices_charged = batch.budget_vertices_charged;
  total.budget_total_spent = batch.budget_total_spent;
  total.budget_min_remaining = batch.budget_min_remaining;
  total.snapshot_load_seconds = batch.snapshot_load_seconds;
  total.wal_replay_records = batch.wal_replay_records;
  total.checkpoint_seconds = batch.checkpoint_seconds;
  // total.metrics is filled once at the end from SnapshotMetrics() —
  // Submit no longer snapshots the registry, and the cumulative snapshot
  // covers every batch anyway.
  std::move(batch.answers.begin(), batch.answers.end(),
            std::back_inserter(total.answers));
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  try {
    if (!cl.Has("graph") && !cl.Has("dataset")) return Usage();
    const BipartiteGraph graph = tools::LoadGraph(cl);

    std::vector<QueryPair> workload;
    const std::string workload_path = cl.GetString("workload");
    if (!workload_path.empty()) {
      workload = ReadWorkloadFile(workload_path);
    } else {
      const Layer layer = tools::ParseLayerFlag(cl, "lower");
      Rng rng(static_cast<uint64_t>(cl.GetInt("seed", 7)));
      workload = MakeHotSetWorkload(
          graph, layer, static_cast<size_t>(cl.GetInt("pairs", 10000)),
          static_cast<VertexId>(cl.GetInt("hot", 64)), rng);
    }
    if (workload.empty()) {
      std::fprintf(stderr, "error: empty workload\n");
      return 1;
    }
    for (size_t i = 0; i < workload.size(); ++i) {
      const QueryPair& q = workload[i];
      const VertexId layer_size = graph.NumVertices(q.layer);
      if (q.u >= layer_size || q.w >= layer_size) {
        std::fprintf(stderr,
                     "error: workload query %zu (%s %u %u) is out of range "
                     "for the graph (%u %s vertices)\n",
                     i + 1, LayerName(q.layer), q.u, q.w, layer_size,
                     LayerName(q.layer));
        return 1;
      }
    }

    ServiceOptions options;
    const std::string algorithm_name = cl.GetString("algorithm", "OneR");
    const auto algorithm = ParseServiceAlgorithm(algorithm_name);
    if (!algorithm) {
      std::fprintf(stderr, "error: unknown algorithm %s\n",
                   algorithm_name.c_str());
      return 1;
    }
    options.algorithm = *algorithm;
    options.epsilon = cl.GetDouble("epsilon", 2.0);
    options.lifetime_budget = cl.GetDouble("budget", 0.0);
    options.num_threads = static_cast<int>(cl.GetInt("threads", 4));
    options.seed = static_cast<uint64_t>(cl.GetInt("seed", 7));
    options.snapshot_dir = cl.GetString("snapshot-dir");
    options.metrics_level =
        obs::ParseMetricsLevel(cl.GetString("metrics-level", "full"));
    const size_t checkpoint_every = static_cast<size_t>(
        std::max<long long>(0, cl.GetInt("checkpoint-every", 0)));
    if (checkpoint_every > 0 && options.snapshot_dir.empty()) {
      std::fprintf(stderr,
                   "error: --checkpoint-every needs --snapshot-dir\n");
      return 1;
    }

    const std::string trace_path = cl.GetString("trace-out");
    std::unique_ptr<obs::TraceSink> trace_sink;
    if (!trace_path.empty()) {
      if (options.metrics_level != obs::MetricsLevel::kFull) {
        std::fprintf(stderr,
                     "error: --trace-out needs --metrics-level=full "
                     "(tracing rides on the full-level span stack)\n");
        return 2;
      }
      obs::TraceSinkOptions trace_options;
      trace_options.ring_capacity = static_cast<size_t>(
          std::max<long long>(1, cl.GetInt("trace-buffer", 4096)));
      trace_options.sample_period = static_cast<uint64_t>(
          std::max<long long>(1, cl.GetInt("trace-sample", 1)));
      trace_sink = std::make_unique<obs::TraceSink>(trace_options);
      trace_sink->Install();
    }

    const std::string failpoints = cl.GetString("failpoints");
    if (!failpoints.empty()) {
      try {
        fail::Configure(failpoints,
                        static_cast<uint64_t>(cl.GetInt("failpoints-seed", 0)));
        std::fprintf(stderr, "failpoints armed: %s\n",
                     fail::Describe().c_str());
      } catch (const std::exception& e) {
        // Covers both a malformed spec and a binary compiled with
        // -DCNE_FAILPOINTS=OFF — a fault drill must never run faultless
        // silently.
        std::fprintf(stderr, "error: --failpoints: %s\n", e.what());
        return 2;
      }
    }

    QueryService service(graph, options);
    if (service.persistent() && service.recovery().snapshot_loaded) {
      std::fprintf(stderr,
                   "recovered snapshot + %llu WAL records from %s "
                   "in %.3fs%s\n",
                   static_cast<unsigned long long>(
                       service.recovery().wal_replay_records),
                   options.snapshot_dir.c_str(),
                   service.recovery().snapshot_load_seconds,
                   service.recovery().wal_torn_tail
                       ? " (torn WAL tail dropped)"
                       : "");
    }

    // Submit in checkpoint-sized batches (one batch when N = 0), with a
    // final checkpoint so a clean shutdown restarts from snapshot alone.
    // A failed checkpoint is reported, not fatal: the WAL keeps the run
    // durable (or the service degrades to read-only and says so in the
    // exit code).
    ServiceReport report;
    bool checkpoint_failed = false;
    const auto try_checkpoint = [&]() {
      try {
        report.checkpoint_seconds = service.Checkpoint();
      } catch (const std::exception& e) {
        checkpoint_failed = true;
        std::fprintf(stderr, "warning: checkpoint failed: %s\n", e.what());
      }
    };
    const size_t batch_size =
        checkpoint_every > 0 ? checkpoint_every : workload.size();
    try {
      for (size_t begin = 0; begin < workload.size(); begin += batch_size) {
        const size_t end = std::min(workload.size(), begin + batch_size);
        FoldReport(service.Submit({workload.begin() + begin,
                                   workload.begin() + end}),
                   report);
        if (service.persistent() && checkpoint_every > 0 &&
            end < workload.size()) {
          try_checkpoint();
        }
      }
    } catch (const std::exception& e) {
      // A mid-execution failure latches ServiceHealth::kFailed and
      // rethrows; durable state is intact on disk, this process is done.
      if (service.health() == ServiceHealth::kFailed) {
        std::fprintf(stderr, "error: service failed mid-execution: %s\n",
                     e.what());
        return 4;
      }
      throw;
    }
    if (service.persistent() &&
        service.health() != ServiceHealth::kFailed) {
      try_checkpoint();
    }
    if (options.metrics_level != obs::MetricsLevel::kOff) {
      // Re-snapshot after the final checkpoint so its span is included.
      report.metrics = service.SnapshotMetrics();
    }
    PrintReport(report, options, cl.GetBool("json"));

    const std::string metrics_path = cl.GetString("metrics-json");
    if (!metrics_path.empty()) {
      std::ofstream metrics_out(metrics_path);
      if (!metrics_out) {
        throw std::runtime_error("cannot write " + metrics_path);
      }
      metrics_out << report.metrics.ToJson() << '\n';
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
    }

    if (trace_sink != nullptr) {
      trace_sink->Uninstall();
      std::ofstream trace_out(trace_path);
      if (!trace_out) throw std::runtime_error("cannot write " + trace_path);
      trace_out << trace_sink->ToChromeJson();
      std::fprintf(stderr,
                   "wrote %llu trace events (%llu dropped) to %s\n",
                   static_cast<unsigned long long>(
                       trace_sink->EventsRetained()),
                   static_cast<unsigned long long>(
                       trace_sink->EventsDropped()),
                   trace_path.c_str());
    }

    const std::string out_path = cl.GetString("out");
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) throw std::runtime_error("cannot write " + out_path);
      for (const ServiceAnswer& answer : report.answers) {
        if (answer.rejected) {
          out << "REJECTED\n";
        } else {
          out << answer.estimate << '\n';
        }
      }
      std::fprintf(stderr, "wrote %zu answers to %s\n",
                   report.answers.size(), out_path.c_str());
    }
    switch (service.health()) {
      case ServiceHealth::kFailed:
        std::fprintf(stderr, "error: service failed mid-execution\n");
        return 4;
      case ServiceHealth::kDegradedReadOnly:
        std::fprintf(stderr,
                     "warning: service finished degraded (read-only)\n");
        return 3;
      case ServiceHealth::kHealthy:
        break;
    }
    return checkpoint_failed ? 5 : 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

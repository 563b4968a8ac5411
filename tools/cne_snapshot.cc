// cne_snapshot — snapshot and WAL inspector for the persistence
// subsystem (store/).
//
// Dumps a snapshot's header, section sizes, service configuration (graph
// shape included), view counts, and residual-budget
// histogram; with --dir, also summarizes the companion write-ahead log.
// The file is validated the way recovery reads it (magic, version,
// section CRCs, record framing), so a nonzero exit code means recovery
// would refuse it; recovery additionally regenerates every view over the
// graph and checks it against its record, which needs the graph and is
// not done here.
//
// Usage:
//   cne_snapshot --snapshot=path/to/snapshot.cne [--json] [--bins=8]
//   cne_snapshot --dir=snapshot-dir              [--json] [--bins=8]
//
// --dir expects the service's snapshot directory (snapshot.cne +
// budget.wal as written by `cne_serve --snapshot-dir`). --bins sets the
// residual-budget histogram resolution.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/protocol_pipeline.h"
#include "store/budget_wal.h"
#include "store/snapshot_format.h"
#include "util/cli.h"

using namespace cne;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cne_snapshot --snapshot=snapshot.cne | --dir=DIR "
               "[--json] [--bins=8]\n"
               "see the header of tools/cne_snapshot.cc for details\n");
  return 2;
}

struct ViewsSummary {
  uint64_t entries = 0;
  uint64_t pending = 0;
  uint64_t materialized = 0;
  uint64_t noisy_edges = 0;  ///< sum of view sizes
  double epsilon = 0.0;
};

ViewsSummary SummarizeViews(const ViewsSection& views) {
  ViewsSummary s;
  s.epsilon = views.epsilon;
  s.entries = views.entries.size();
  for (const ViewRecord& entry : views.entries) {
    if (entry.state == ViewRecord::kStateAuthorizedPending) {
      ++s.pending;
      continue;
    }
    ++s.materialized;
    s.noisy_edges += entry.size;
  }
  return s;
}

// The ledger section layout is owned by BudgetLedger::Serialize
// (ldp/budget_ledger.cc): lifetime budget f64, row count u64, then
// (packed vertex u64, spent f64) rows sorted by (layer, id).
struct LedgerSummary {
  double lifetime_budget = 0.0;
  uint64_t entries = 0;
  uint64_t exhausted = 0;  ///< residual <= 1e-9 (BudgetLedger's tolerance)
  double total_spent = 0.0;
  double min_remaining = 0.0;
  double sum_remaining = 0.0;  ///< unspent budget across charged vertices
  std::vector<uint64_t> histogram;  ///< residual-budget counts
};

LedgerSummary SummarizeLedger(ByteReader in, size_t bins) {
  LedgerSummary s;
  s.lifetime_budget = in.F64();
  s.entries = in.U64();
  s.min_remaining = s.lifetime_budget;
  s.histogram.assign(bins, 0);
  for (uint64_t i = 0; i < s.entries; ++i) {
    in.U64();  // packed vertex
    const double spent = in.F64();
    const double remaining = s.lifetime_budget - spent;
    s.total_spent += spent;
    s.sum_remaining += remaining;
    if (remaining <= 1e-9) ++s.exhausted;
    if (remaining < s.min_remaining) s.min_remaining = remaining;
    size_t bin = s.lifetime_budget > 0.0
                     ? static_cast<size_t>(remaining / s.lifetime_budget *
                                           static_cast<double>(bins))
                     : 0;
    if (bin >= bins) bin = bins - 1;
    ++s.histogram[bin];
  }
  return s;
}

const char* WalTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kCharge:
      return "charge";
    case WalRecordType::kViewAuthorized:
      return "view_authorized";
    case WalRecordType::kRaiseBudget:
      return "raise_budget";
    case WalRecordType::kSubmitSealed:
      return "submit_sealed";
  }
  return "unknown";
}

void PrintHistogram(const LedgerSummary& ledger, bool json) {
  const size_t bins = ledger.histogram.size();
  for (size_t b = 0; b < bins; ++b) {
    const double lo =
        ledger.lifetime_budget * static_cast<double>(b) / bins;
    const double hi =
        ledger.lifetime_budget * static_cast<double>(b + 1) / bins;
    if (json) {
      std::printf("%s{\"residual_min\": %g, \"residual_max\": %g, "
                  "\"vertices\": %" PRIu64 "}",
                  b == 0 ? "" : ", ", lo, hi, ledger.histogram[b]);
    } else {
      std::printf("    residual [%6.3f, %6.3f)  %" PRIu64 " vertices\n", lo,
                  hi, ledger.histogram[b]);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cl(argc, argv);
  try {
    std::string snapshot_path = cl.GetString("snapshot");
    std::string wal_path;
    const std::string dir = cl.GetString("dir");
    if (!dir.empty()) {
      snapshot_path = dir + "/" + kSnapshotFileName;
      wal_path = dir + "/" + kWalFileName;
    }
    if (snapshot_path.empty()) return Usage();
    const bool json = cl.GetBool("json");
    const size_t bins =
        static_cast<size_t>(std::max<long long>(1, cl.GetInt("bins", 8)));

    const SnapshotReader reader(snapshot_path);
    ByteReader config_section = reader.Section(SectionId::kConfig);
    const SnapshotConfig config = ReadConfigSection(config_section);
    ByteReader views_section = reader.Section(SectionId::kViews);
    const ViewsSummary views = SummarizeViews(ReadViewsSection(views_section));
    const LedgerSummary ledger =
        SummarizeLedger(reader.Section(SectionId::kLedger), bins);
    const char* algorithm =
        ToString(static_cast<ProtocolKind>(config.protocol_kind));

    if (json) {
      std::printf(
          "{\"file\": \"%s\", \"bytes\": %" PRIu64 ", \"version\": %u, "
          "\"epoch\": %" PRIu64 ",\n \"sections\": [",
          snapshot_path.c_str(), reader.file_bytes(), reader.version(),
          reader.epoch());
      for (size_t i = 0; i < reader.sections().size(); ++i) {
        const SectionInfo& info = reader.sections()[i];
        std::printf("%s{\"name\": \"%s\", \"bytes\": %" PRIu64 "}",
                    i == 0 ? "" : ", ", SectionName(info.id), info.size);
      }
      std::printf(
          "],\n \"config\": {\"algorithm\": \"%s\", \"epsilon\": %g, "
          "\"epsilon1_fraction\": %g, \"seed\": %" PRIu64
          ", \"initial_lifetime_budget\": %g, "
          "\"current_lifetime_budget\": %g, \"next_noise_stream\": %" PRIu64
          ", \"rr_sampler_version\": %u, \"rr_threshold\": %" PRIu64
          "},\n",
          algorithm, config.epsilon, config.epsilon1_fraction, config.seed,
          config.initial_lifetime_budget, config.current_lifetime_budget,
          config.next_noise_stream, config.rr_sampler_version,
          config.rr_threshold);
      std::printf(
          " \"graph\": {\"upper\": %u, \"lower\": %u, \"edges\": %" PRIu64
          "},\n",
          config.num_upper, config.num_lower, config.num_edges);
      std::printf(
          " \"views\": {\"epsilon\": %g, \"entries\": %" PRIu64
          ", \"pending\": %" PRIu64 ", \"materialized\": %" PRIu64
          ", \"noisy_edges\": %" PRIu64 "},\n",
          views.epsilon, views.entries, views.pending, views.materialized,
          views.noisy_edges);
      std::printf(
          " \"ledger\": {\"lifetime_budget\": %g, \"vertices\": %" PRIu64
          ", \"exhausted\": %" PRIu64
          ", \"total_spent\": %g, \"min_remaining\": %g, "
          "\"sum_remaining\": %g,\n"
          "  \"residual_histogram\": [",
          ledger.lifetime_budget, ledger.entries, ledger.exhausted,
          ledger.total_spent, ledger.min_remaining, ledger.sum_remaining);
      PrintHistogram(ledger, true);
      std::printf("]}");
    } else {
      std::printf("snapshot   %s (%" PRIu64 " bytes, version %u, epoch %"
                  PRIu64 ")\n",
                  snapshot_path.c_str(), reader.file_bytes(),
                  reader.version(), reader.epoch());
      std::printf("sections  ");
      for (const SectionInfo& info : reader.sections()) {
        std::printf(" %s=%" PRIu64 "B", SectionName(info.id), info.size);
      }
      std::printf("\nconfig     %s eps=%g (eps1 frac %g) seed=%" PRIu64
                  " budget %g->%g noise-streams=%" PRIu64
                  " rr-sampler=v%u rr-threshold=%" PRIu64 "\n",
                  algorithm, config.epsilon, config.epsilon1_fraction,
                  config.seed, config.initial_lifetime_budget,
                  config.current_lifetime_budget, config.next_noise_stream,
                  config.rr_sampler_version, config.rr_threshold);
      std::printf("graph      |U|=%u |L|=%u m=%" PRIu64 "\n",
                  config.num_upper, config.num_lower, config.num_edges);
      std::printf("views      eps=%g, %" PRIu64 " entries (%" PRIu64
                  " materialized, %" PRIu64 " pending), %" PRIu64
                  " noisy edges\n",
                  views.epsilon, views.entries, views.materialized,
                  views.pending, views.noisy_edges);
      std::printf("ledger     budget %g, %" PRIu64
                  " vertices charged (%" PRIu64
                  " exhausted), %.3f eps total, min residual %.6f, "
                  "%.3f eps unspent\n",
                  ledger.lifetime_budget, ledger.entries, ledger.exhausted,
                  ledger.total_spent, ledger.min_remaining,
                  ledger.sum_remaining);
      PrintHistogram(ledger, false);
    }

    if (!wal_path.empty() && FileExists(wal_path)) {
      const WalReplay replay = BudgetWal::Read(wal_path);
      uint64_t by_type[5] = {0, 0, 0, 0, 0};
      for (const WalRecord& record : replay.records) {
        ++by_type[static_cast<size_t>(record.type)];
      }
      if (json) {
        std::printf(
            ",\n \"wal\": {\"epoch\": %" PRIu64 ", \"records\": %zu, "
            "\"committed\": %zu, \"torn_tail\": %s, \"dropped_bytes\": %"
            PRIu64 ",\n  \"by_type\": {",
            replay.epoch, replay.records.size(), replay.committed,
            replay.torn_tail ? "true" : "false", replay.dropped_bytes);
        for (int t = 1; t <= 4; ++t) {
          std::printf("%s\"%s\": %" PRIu64, t == 1 ? "" : ", ",
                      WalTypeName(static_cast<WalRecordType>(t)),
                      by_type[t]);
        }
        std::printf("}}");
      } else {
        std::printf("wal        epoch %" PRIu64 ", %zu records (%zu "
                    "committed%s)",
                    replay.epoch, replay.records.size(), replay.committed,
                    replay.torn_tail ? ", TORN TAIL" : "");
        for (int t = 1; t <= 4; ++t) {
          if (by_type[t] > 0) {
            std::printf("  %s=%" PRIu64,
                        WalTypeName(static_cast<WalRecordType>(t)),
                        by_type[t]);
          }
        }
        std::printf("\n");
      }
    }
    if (json) std::printf("}\n");
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

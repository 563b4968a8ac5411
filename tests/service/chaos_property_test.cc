// Fault-hardened serving under deterministic fault injection
// (util/failpoint.h): every injected WAL, snapshot, or execution failure
// must leave the service in a state indistinguishable from one that never
// attempted the failed operation — zero budget charged, zero noise drawn,
// answers either correct or explicitly rejected with a typed reason.
//
// Two layers of coverage:
//   * targeted unit tests, one per fault site, pinning the exact health
//     transition, rollback, heal, and restart behavior; and
//   * a chaos property test driving hundreds of randomized fault
//     schedules against an uninterrupted oracle service.
//
// Everything here needs the failpoint framework compiled in; under
// -DCNE_FAILPOINTS=OFF the whole file reduces to one skip marker.

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "store/snapshot_format.h"
#include "util/binary_io.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace cne {
namespace {

#if CNE_FAILPOINTS_ENABLED

BipartiteGraph TestGraph() { return PlantedCommonNeighbors(3, 5, 2, 40, 8); }

std::string FreshDir(const std::string& name) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("chaos_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

ServiceOptions MakeOptions(ServiceAlgorithm algorithm,
                           const std::string& snapshot_dir = "") {
  ServiceOptions options;
  options.algorithm = algorithm;
  options.epsilon = 2.0;
  options.lifetime_budget = 6.0;
  options.num_threads = 2;
  options.seed = 99;
  options.snapshot_dir = snapshot_dir;
  options.checkpoint_backoff_ms = 0.0;  // injected faults need no wall clock
  return options;
}

std::vector<QueryPair> Workload(const BipartiteGraph& g, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  return MakeHotSetWorkload(g, Layer::kLower, count, 8, rng);
}

void ExpectSameAnswers(const ServiceReport& a, const ServiceReport& b,
                       const std::string& label) {
  ASSERT_EQ(a.answers.size(), b.answers.size()) << label;
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].rejected, b.answers[i].rejected)
        << label << " query " << i;
    // Bitwise equality: shared noise substreams, not statistical likeness.
    EXPECT_EQ(a.answers[i].estimate, b.answers[i].estimate)
        << label << " query " << i;
  }
}

void ExpectSameLedgers(const BudgetLedger& a, const BudgetLedger& b,
                       const std::string& label) {
  EXPECT_EQ(a.lifetime_budget(), b.lifetime_budget()) << label;
  const auto sa = a.Snapshot();
  const auto sb = b.Snapshot();
  ASSERT_EQ(sa.size(), sb.size()) << label;
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].vertex, sb[i].vertex) << label << " row " << i;
    EXPECT_EQ(sa[i].spent, sb[i].spent) << label << " row " << i;
  }
}

void ExpectSameViews(const BipartiteGraph& g, const NoisyViewStore& a,
                     const NoisyViewStore& b, const std::string& label) {
  uint64_t compared = 0;
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    for (VertexId id = 0; id < g.NumVertices(layer); ++id) {
      const LayeredVertex v{layer, id};
      if (!a.Contains(v) || !b.Contains(v)) continue;
      EXPECT_EQ(a.View(v).SortedMembers(), b.View(v).SortedMembers())
          << label << " " << LayerName(layer) << " vertex " << id;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u) << label;
}

void ExpectAllRejectedWith(const ServiceReport& report, RejectReason reason,
                           const std::string& label) {
  for (size_t i = 0; i < report.answers.size(); ++i) {
    EXPECT_TRUE(report.answers[i].rejected) << label << " query " << i;
    EXPECT_EQ(report.answers[i].reason, reason) << label << " query " << i;
    EXPECT_EQ(report.answers[i].estimate, 0.0) << label << " query " << i;
  }
}

constexpr ServiceAlgorithm kAllAlgorithms[] = {
    ServiceAlgorithm::kNaive, ServiceAlgorithm::kOneR,
    ServiceAlgorithm::kMultiRSS, ServiceAlgorithm::kMultiRDS};

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Clear(); }
};

// --- One test per fault site: the exact contract at each failure.

TEST_F(ChaosTest, WalAppendFailureRejectsBatchExactly) {
  // An append that fails before any byte reaches the file is the clean
  // case: disk and memory both roll back to the pre-batch state, so a
  // restart and an in-process retry agree exactly.
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 60, 1);
  const auto w2 = Workload(g, 50, 2);

  for (ServiceAlgorithm algorithm : kAllAlgorithms) {
    const std::string label = ToString(algorithm);
    const std::string dir = FreshDir("append_" + label);
    QueryService reference(g, MakeOptions(algorithm));
    reference.Submit(w1);

    {
      QueryService service(g, MakeOptions(algorithm, dir));
      service.Submit(w1);
      const uint64_t streams_before = service.next_noise_stream();

      fail::Configure("wal.append=err:ENOSPC@1");
      const ServiceReport rejected = service.Submit(w2);
      fail::Clear();

      EXPECT_FALSE(rejected.sealed) << label;
      EXPECT_EQ(rejected.health, ServiceHealth::kDegradedReadOnly) << label;
      EXPECT_EQ(service.health(), ServiceHealth::kDegradedReadOnly) << label;
      ExpectAllRejectedWith(rejected, RejectReason::kDurability, label);
      // The rollback is exact: no charge kept, no substream consumed.
      EXPECT_EQ(service.next_noise_stream(), streams_before) << label;
      ExpectSameLedgers(reference.ledger(), service.ledger(), label);
      const obs::MetricsSnapshot counters = service.SnapshotMetrics();
      EXPECT_EQ(counters.CounterValue("wal_failures"), 1u) << label;
      EXPECT_EQ(counters.CounterValue("submit_rollbacks"), 1u) << label;
      EXPECT_EQ(counters.CounterValue("queries_rejected_unavailable"),
                w2.size())
          << label;
    }  // kill the degraded service without healing it

    // Nothing of w2 ever reached the journal, so recovery lands on w1's
    // state and the client's resubmission matches the uninterrupted run.
    QueryService restored(g, MakeOptions(algorithm, dir));
    EXPECT_EQ(restored.health(), ServiceHealth::kHealthy) << label;
    ExpectSameLedgers(reference.ledger(), restored.ledger(), label);
    ExpectSameAnswers(reference.Submit(w2), restored.Submit(w2), label);
    ExpectSameLedgers(reference.ledger(), restored.ledger(),
                      label + " after w2");
    ExpectSameViews(g, reference.store(), restored.store(), label);
  }
}

TEST_F(ChaosTest, WalFsyncFailureRollsBackAndHeals) {
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 60, 3);
  const auto w2 = Workload(g, 50, 4);
  const std::string dir = FreshDir("fsync_heal");

  QueryService reference(g, MakeOptions(ServiceAlgorithm::kMultiRDS));
  reference.Submit(w1);

  QueryService service(g, MakeOptions(ServiceAlgorithm::kMultiRDS, dir));
  service.Submit(w1);
  const uint64_t streams_before = service.next_noise_stream();

  fail::Configure("wal.fsync=err:EIO");
  const ServiceReport rejected = service.Submit(w2);
  fail::Clear();

  ExpectAllRejectedWith(rejected, RejectReason::kDurability, "fsync");
  EXPECT_EQ(service.health(), ServiceHealth::kDegradedReadOnly);
  EXPECT_EQ(service.next_noise_stream(), streams_before);
  ExpectSameLedgers(reference.ledger(), service.ledger(), "fsync rollback");

  // A successful checkpoint re-establishes durability — and, crucially,
  // starts a fresh WAL epoch that discards whatever bytes the failed
  // fsync may or may not have left behind (an fsync error leaves the
  // file contents ambiguous; the new epoch makes the question moot).
  service.Checkpoint();
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);

  const ServiceReport healed = service.Submit(w2);
  EXPECT_TRUE(healed.sealed);
  ExpectSameAnswers(reference.Submit(w2), healed, "healed w2");
  ExpectSameLedgers(reference.ledger(), service.ledger(), "healed");
  EXPECT_EQ(service.SnapshotMetrics().CounterValue("health_transitions"), 2u);
}

TEST_F(ChaosTest, ReadOnlyModeAnswersCachedViewsAndRefusesNewCharges) {
  // Degraded mode is not an outage: answers over already-released views
  // are post-processing of public data — no new charge, no new noise —
  // and keep flowing. Only queries needing a fresh release are refused.
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 80, 5);
  const std::string dir = FreshDir("readonly");

  QueryService reference(g, MakeOptions(ServiceAlgorithm::kOneR));
  reference.Submit(w1);

  QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  service.Submit(w1);

  fail::Configure("wal.fsync=err");
  service.Submit(Workload(g, 10, 6));  // rejected wholesale; degrades
  fail::Clear();
  ASSERT_EQ(service.health(), ServiceHealth::kDegradedReadOnly);

  // Repeating the released workload answers identically to the healthy
  // reference repeating it — same views, zero new releases.
  const ServiceReport degraded = service.Submit(w1);
  const ServiceReport ref_repeat = reference.Submit(w1);
  EXPECT_FALSE(degraded.sealed);
  EXPECT_EQ(degraded.health, ServiceHealth::kDegradedReadOnly);
  EXPECT_EQ(degraded.rejected, 0u);
  ExpectSameAnswers(ref_repeat, degraded, "degraded repeat");

  // A pair of never-released vertices needs two fresh charges: refused
  // with the read-only reason, and nothing is charged for the attempt.
  const VertexId last = g.NumVertices(Layer::kLower) - 1;
  const std::vector<QueryPair> cold = {{Layer::kLower, last, last - 1}};
  const ServiceReport refused = service.Submit(cold);
  ExpectAllRejectedWith(refused, RejectReason::kReadOnly, "cold query");
  EXPECT_EQ(refused.rejected_unavailable, 1u);
  ExpectSameLedgers(reference.ledger(), service.ledger(), "readonly");
}

TEST_F(ChaosTest, CheckpointRetriesQuarantinesAndKeepsLastGoodSnapshot) {
  const BipartiteGraph g = TestGraph();
  const std::string dir = FreshDir("ckpt_retry");
  ServiceOptions options = MakeOptions(ServiceAlgorithm::kMultiRSS, dir);
  options.checkpoint_attempts = 3;
  QueryService service(g, options);
  service.Submit(Workload(g, 60, 7));

  // Transient disk-full on the first attempt: the retry succeeds, the
  // service never leaves healthy, and the failed attempt's temp file is
  // quarantined for inspection instead of silently unlinked.
  fail::Configure("snapshot.write=err:ENOSPC@1");
  service.Checkpoint();
  fail::Clear();
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);
  const std::string snapshot_path =
      (std::filesystem::path(dir) / kSnapshotFileName).string();
  EXPECT_TRUE(FileExists(snapshot_path));
  EXPECT_TRUE(FileExists(snapshot_path + ".tmp.quarantine"));
  obs::MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.CounterValue("checkpoint_failures"), 1u);
  EXPECT_EQ(metrics.CounterValue("checkpoint_retries"), 1u);

  // A persistent failure exhausts the attempts and rethrows — but the
  // last good snapshot is untouched (atomic rename-on-commit), health
  // stands, and journaling continues over the existing WAL epoch.
  const auto good_snapshot = ReadFileBytes(snapshot_path);
  fail::Configure("snapshot.fsync=err:EIO");
  EXPECT_THROW(service.Checkpoint(), std::runtime_error);
  fail::Clear();
  EXPECT_EQ(service.health(), ServiceHealth::kHealthy);
  EXPECT_EQ(ReadFileBytes(snapshot_path), good_snapshot);
  metrics = service.SnapshotMetrics();
  EXPECT_EQ(metrics.CounterValue("checkpoint_failures"), 4u);
  EXPECT_EQ(metrics.CounterValue("checkpoint_retries"), 3u);

  const ServiceReport after = service.Submit(Workload(g, 40, 8));
  EXPECT_TRUE(after.sealed);
  EXPECT_EQ(after.health, ServiceHealth::kHealthy);
}

TEST_F(ChaosTest, WalResetFailureAfterCheckpointDegrades) {
  // The nastiest ordering: the snapshot committed, then the fresh-epoch
  // WAL could not be created. Appending to the old-epoch journal would
  // write records recovery discards as stale — silent budget loss — so
  // the service must degrade instead.
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 60, 9);
  const auto w2 = Workload(g, 50, 10);
  const std::string dir = FreshDir("walreset");

  QueryService reference(g, MakeOptions(ServiceAlgorithm::kOneR));
  reference.Submit(w1);

  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    service.Submit(w1);
    fail::Configure("walreset.write=err:EIO");
    EXPECT_THROW(service.Checkpoint(), std::runtime_error);
    fail::Clear();
    EXPECT_EQ(service.health(), ServiceHealth::kDegradedReadOnly);
    EXPECT_TRUE(FileExists(
        (std::filesystem::path(dir) / kSnapshotFileName).string()));

    // Cached answers keep flowing (unsealed), and a later successful
    // checkpoint heals in place.
    const ServiceReport degraded = service.Submit(w1);
    EXPECT_FALSE(degraded.sealed);
    EXPECT_EQ(degraded.rejected, 0u);
    service.Checkpoint();
    EXPECT_EQ(service.health(), ServiceHealth::kHealthy);
    ExpectSameAnswers(reference.Submit(w2), service.Submit(w2), "healed w2");
  }

  // The snapshot that committed just before the failure (plus the healed
  // epoch's journal) restores the exact state.
  QueryService restored(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  ExpectSameLedgers(reference.ledger(), restored.ledger(), "walreset");
}

TEST_F(ChaosTest, FailedServiceRefusesEverythingUntilRestart) {
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 60, 11);
  const auto w2 = Workload(g, 50, 12);
  const auto w3 = Workload(g, 70, 13);
  const std::string dir = FreshDir("failed");

  QueryService reference(g, MakeOptions(ServiceAlgorithm::kMultiRSS));
  reference.Submit(w1);
  reference.Submit(w2);

  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kMultiRSS, dir));
    service.Submit(w1);
    fail::Configure("service.execute=err");
    EXPECT_THROW(service.Submit(w2), std::runtime_error);
    fail::Clear();
    ASSERT_EQ(service.health(), ServiceHealth::kFailed);

    // Everything is refused without throwing again: submits answer with
    // the typed reason, maintenance operations fail loudly.
    const ServiceReport refused = service.Submit(w3);
    ExpectAllRejectedWith(refused, RejectReason::kServiceFailed, "failed");
    EXPECT_FALSE(refused.sealed);
    EXPECT_THROW(service.Checkpoint(), std::runtime_error);
    EXPECT_THROW(service.RaiseLifetimeBudget(12.0), std::runtime_error);
  }  // restart is the only exit from kFailed

  // The fault fired *after* the seal, so w2's admissions are durable:
  // recovery must replay them, exactly as the reference ran them.
  QueryService restored(g, MakeOptions(ServiceAlgorithm::kMultiRSS, dir));
  EXPECT_EQ(restored.health(), ServiceHealth::kHealthy);
  ExpectSameLedgers(reference.ledger(), restored.ledger(), "restored");
  ExpectSameAnswers(reference.Submit(w3), restored.Submit(w3), "w3");
  ExpectSameViews(g, reference.store(), restored.store(), "restored");
}

TEST_F(ChaosTest, RaiseBudgetFailureDegradesWithoutApplying) {
  const BipartiteGraph g = TestGraph();
  const std::string dir = FreshDir("raise");
  ServiceOptions options = MakeOptions(ServiceAlgorithm::kMultiRSS, dir);
  options.lifetime_budget = 2.0;
  QueryService service(g, options);
  const std::vector<QueryPair> exhausting = {{Layer::kLower, 0, 1},
                                             {Layer::kLower, 0, 2},
                                             {Layer::kLower, 0, 3}};
  ASSERT_TRUE(service.Submit(exhausting).answers[2].rejected);

  // The raise journals ahead of applying; if the journal write fails the
  // ledger must still hold the old bound (a raise the journal never saw
  // would silently un-raise itself at the next recovery).
  fail::Configure("wal.fsync=err");
  EXPECT_THROW(service.RaiseLifetimeBudget(5.0), std::runtime_error);
  fail::Clear();
  EXPECT_EQ(service.health(), ServiceHealth::kDegradedReadOnly);
  EXPECT_EQ(service.ledger().lifetime_budget(), 2.0);
  EXPECT_THROW(service.RaiseLifetimeBudget(5.0), std::runtime_error);

  service.Checkpoint();  // heal, then the raise goes through
  service.RaiseLifetimeBudget(5.0);
  EXPECT_EQ(service.ledger().lifetime_budget(), 5.0);
  const ServiceReport retry = service.Submit({{Layer::kLower, 0, 3}});
  EXPECT_EQ(retry.rejected, 0u);
}

// --- The chaos property: randomized fault schedules vs an uninterrupted
// --- oracle. Invariant: after clearing faults (healing or restarting as
// --- the health state demands), the service's answers, ledger, views,
// --- and noise-substream position all match a service that never saw a
// --- fault — i.e. every failure path either committed exactly or rolled
// --- back exactly, with nothing in between.

TEST_F(ChaosTest, RandomFaultSchedulesNeverDesyncServiceFromOracle) {
  const BipartiteGraph g = TestGraph();
  constexpr uint64_t kTrials = 200;

  // Faults armed before each Submit. Entries that cannot fire during a
  // submit (snapshot.*) are still schedule noise worth keeping: arming a
  // site that never evaluates must be harmless.
  const char* kSubmitFaults[] = {
      "",
      "",  // twice: fault-free batches keep both services advancing
      "wal.fsync=err:EIO",
      "wal.fsync=err:EIO@50%",
      "wal.append=err:ENOSPC@1",
      "wal.append=short:5",  // short writes retry: must still seal
      "service.execute=err",
      "snapshot.write=err:ENOSPC",
  };
  // Faults armed before an interleaved Checkpoint. With three attempts,
  // @1 snapshot faults heal themselves via retry; the walreset fault
  // degrades and is healed by a follow-up clean checkpoint.
  const char* kCheckpointFaults[] = {
      "",
      "snapshot.write=err:ENOSPC@1",
      "snapshot.fsync=err:EIO@1",
      "walreset.write=err:EIO@1",
  };

  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    const ServiceAlgorithm algorithm =
        kAllAlgorithms[trial % std::size(kAllAlgorithms)];
    const std::string label = std::string(ToString(algorithm)) + " trial " +
                              std::to_string(trial);
    const std::string dir = FreshDir("prop_" + std::to_string(trial));
    Rng schedule(7000 + trial);

    QueryService oracle(g, MakeOptions(algorithm));
    ServiceOptions options = MakeOptions(algorithm, dir);
    options.checkpoint_attempts = 3;
    auto service = std::make_unique<QueryService>(g, options);

    for (uint64_t b = 0; b < 3; ++b) {
      const auto batch = Workload(g, 24 + 8 * b, 1000 * trial + b);
      const char* spec =
          kSubmitFaults[schedule.UniformInt(std::size(kSubmitFaults))];
      fail::Configure(spec, /*seed=*/trial);
      bool threw = false;
      ServiceReport report;
      try {
        report = service->Submit(batch);
      } catch (const std::runtime_error&) {
        threw = true;  // service.execute: post-seal, so the batch stands
      }
      fail::Clear();

      if (threw) {
        // The seal preceded the fault: the batch is durable and the
        // oracle must run it. In-memory state is untrusted — restart.
        EXPECT_EQ(service->health(), ServiceHealth::kFailed) << label;
        oracle.Submit(batch);
        service.reset();
        service = std::make_unique<QueryService>(g, options);
        EXPECT_EQ(service->health(), ServiceHealth::kHealthy) << label;
      } else if (report.sealed || !service->persistent()) {
        oracle.Submit(batch);
      } else {
        // Rolled back wholesale: the oracle never sees the batch, and
        // both sides must agree that it left no trace.
        ExpectAllRejectedWith(report, RejectReason::kDurability, label);
      }
      if (service->health() == ServiceHealth::kDegradedReadOnly) {
        service->Checkpoint();  // faults are cleared: the heal must land
        EXPECT_EQ(service->health(), ServiceHealth::kHealthy) << label;
      }

      if (schedule.Bernoulli(0.5)) {
        const char* cp = kCheckpointFaults[schedule.UniformInt(
            std::size(kCheckpointFaults))];
        fail::Configure(cp, /*seed=*/trial);
        try {
          service->Checkpoint();
        } catch (const std::runtime_error&) {
          // Retries exhausted or the WAL reset failed; handled below.
        }
        fail::Clear();
        if (service->health() == ServiceHealth::kDegradedReadOnly) {
          service->Checkpoint();
          EXPECT_EQ(service->health(), ServiceHealth::kHealthy) << label;
        }
      }

      EXPECT_EQ(service->next_noise_stream(), oracle.next_noise_stream())
          << label << " batch " << b;
    }

    // Final verdict: a probe workload must answer bit-identically, and
    // ledger + views + substream position must match the oracle.
    const auto probe = Workload(g, 40, 9000 + trial);
    ExpectSameAnswers(oracle.Submit(probe), service->Submit(probe), label);
    ExpectSameLedgers(oracle.ledger(), service->ledger(), label);
    ExpectSameViews(g, oracle.store(), service->store(), label);
    EXPECT_EQ(service->next_noise_stream(), oracle.next_noise_stream())
        << label;

    // And the on-disk state agrees too: reopen and compare the ledger.
    service.reset();
    QueryService restored(g, options);
    ExpectSameLedgers(oracle.ledger(), restored.ledger(), label + " restart");
    EXPECT_EQ(restored.next_noise_stream(), oracle.next_noise_stream())
        << label << " restart";
  }
}

#else  // !CNE_FAILPOINTS_ENABLED

TEST(ChaosTest, SkippedWithoutFailpoints) {
  GTEST_SKIP() << "built with -DCNE_FAILPOINTS=OFF; fault-injection "
                  "coverage runs in the default configuration";
}

#endif  // CNE_FAILPOINTS_ENABLED

}  // namespace
}  // namespace cne

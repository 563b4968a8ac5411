// Budget safety across restarts — the acceptance property of the
// persistence subsystem: a QueryService checkpointed mid-workload,
// destroyed, and restored from snapshot + WAL produces byte-identical
// answers and residual budgets to an uninterrupted run, for all four
// protocols, with zero views re-randomized and no budget charge applied
// twice. Includes the simulated torn-final-WAL-record crash, which must
// be detected and dropped, never half-applied.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/synthetic.h"
#include "service/query_service.h"
#include "service/workload.h"
#include "store/budget_wal.h"
#include "store/snapshot_format.h"
#include "util/binary_io.h"

namespace cne {
namespace {

BipartiteGraph TestGraph() { return PlantedCommonNeighbors(3, 5, 2, 40, 8); }

// A fresh directory per call so tests never see each other's state.
std::string FreshDir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) /
                   ("persistence_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

ServiceOptions MakeOptions(ServiceAlgorithm algorithm,
                           const std::string& snapshot_dir = "") {
  ServiceOptions options;
  options.algorithm = algorithm;
  options.epsilon = 2.0;
  options.lifetime_budget = 6.0;  // room for several MultiR sourcings
  options.num_threads = 2;
  options.seed = 99;
  options.snapshot_dir = snapshot_dir;
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
    // Bitwise equality: restored noise substreams and views are shared,
    // not merely statistically alike.
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
    // Exact doubles: a restored ledger that is only approximately equal
    // would eventually admit a query the uninterrupted service rejects.
    EXPECT_EQ(sa[i].spent, sb[i].spent) << label << " row " << i;
  }
}

// Every view present in both stores must hold identical bytes — a
// re-randomized view would be a second release of the same neighbor list.
void ExpectSameViews(const BipartiteGraph& g, const NoisyViewStore& a,
                     const NoisyViewStore& b, const std::string& label) {
  uint64_t compared = 0;
  for (Layer layer : {Layer::kUpper, Layer::kLower}) {
    for (VertexId id = 0; id < g.NumVertices(layer); ++id) {
      const LayeredVertex v{layer, id};
      if (!a.Contains(v) || !b.Contains(v)) continue;
      const NoisyNeighborSet& va = a.View(v);
      const NoisyNeighborSet& vb = b.View(v);
      EXPECT_EQ(va.SortedMembers(), vb.SortedMembers())
          << label << " " << LayerName(layer) << " vertex " << id;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u) << label;
}

constexpr ServiceAlgorithm kAllAlgorithms[] = {
    ServiceAlgorithm::kNaive, ServiceAlgorithm::kOneR,
    ServiceAlgorithm::kMultiRSS, ServiceAlgorithm::kMultiRDS};

// --- The acceptance criterion: checkpoint mid-workload, kill, restore,
// --- and the service is indistinguishable from one that never died.

TEST(PersistenceTest, KillRestoreRoundTripIsByteIdenticalForAllProtocols) {
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 100, 1);
  const auto w3 = Workload(g, 120, 3);
  Rng upper_rng(2);
  // The second input sends the post-checkpoint batch to the other layer,
  // so every release it makes is fresh and lives only in the WAL, and
  // checkpoints twice in a row.
  const struct {
    std::vector<QueryPair> w2;
    int checkpoints;
    const char* name;
  } inputs[] = {
      {Workload(g, 80, 2), 1, "same_layer"},
      {MakeHotSetWorkload(g, Layer::kUpper, 80, 8, upper_rng), 2,
       "other_layer"}};

  for (const auto& [w2, checkpoints, name] : inputs) {
    for (ServiceAlgorithm algorithm : kAllAlgorithms) {
      const std::string label = std::string(ToString(algorithm)) + " " + name;
      const std::string dir =
          FreshDir("roundtrip_" + std::string(ToString(algorithm)) + name);

      // The uninterrupted reference run.
      QueryService reference(g, MakeOptions(algorithm));
      reference.Submit(w1);
      reference.Submit(w2);

      {
        QueryService service(g, MakeOptions(algorithm, dir));
        service.Submit(w1);
        for (int c = 0; c < checkpoints; ++c) {
          service.Checkpoint();       // snapshot holds w1's state
        }
        service.Submit(w2);           // w2 lives only in the WAL
      }                               // kill: no final checkpoint

      QueryService restored(g, MakeOptions(algorithm, dir));
      EXPECT_TRUE(restored.recovery().snapshot_loaded) << label;
      EXPECT_GT(restored.recovery().wal_replay_records, 0u) << label;
      EXPECT_FALSE(restored.recovery().wal_torn_tail) << label;
      ExpectSameLedgers(reference.ledger(), restored.ledger(), label);

      const ServiceReport ref3 = reference.Submit(w3);
      const ServiceReport got3 = restored.Submit(w3);
      ExpectSameAnswers(ref3, got3, label);
      ExpectSameLedgers(reference.ledger(), restored.ledger(),
                        label + " after w3");
      // Zero re-randomized views: every view both services hold is
      // bit-for-bit the view released before the crash.
      ExpectSameViews(g, reference.store(), restored.store(), label);
      EXPECT_EQ(ref3.store.releases, got3.store.releases) << label;
    }
  }
}

TEST(PersistenceTest, RestartWithoutCheckpointReplaysTheWholeWal) {
  // No checkpoint at all: recovery rebuilds everything from the journal
  // of a fresh-epoch WAL (first-run crash coverage).
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 60, 4);
  const auto w2 = Workload(g, 60, 5);
  const std::string dir = FreshDir("wal_only");

  QueryService reference(g, MakeOptions(ServiceAlgorithm::kMultiRDS));
  reference.Submit(w1);

  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kMultiRDS, dir));
    service.Submit(w1);
  }
  QueryService restored(g, MakeOptions(ServiceAlgorithm::kMultiRDS, dir));
  EXPECT_FALSE(restored.recovery().snapshot_loaded);
  EXPECT_GT(restored.recovery().wal_replay_records, 0u);
  ExpectSameLedgers(reference.ledger(), restored.ledger(), "wal-only");
  ExpectSameAnswers(reference.Submit(w2), restored.Submit(w2), "wal-only");
}

// --- Crash-mid-submit: the torn final record is detected and dropped,
// --- and the state rolls back to the last sealed batch.

TEST(PersistenceTest, TornFinalWalRecordIsDetectedAndDropped) {
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 70, 6);
  const auto w2 = Workload(g, 50, 7);
  const std::string dir = FreshDir("torn");

  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kMultiRSS, dir));
    service.Submit(w1);
    service.Checkpoint();
    service.Submit(w2);
  }
  // Simulate a crash that tears w2's seal record mid-fsync: shave bytes
  // off the end of the journal.
  const std::string wal_path =
      (std::filesystem::path(dir) / kWalFileName).string();
  const auto size = std::filesystem::file_size(wal_path);
  std::filesystem::resize_file(wal_path, size - 3);

  {
    QueryService restored(g, MakeOptions(ServiceAlgorithm::kMultiRSS, dir));
    EXPECT_TRUE(restored.recovery().wal_torn_tail);
    EXPECT_GT(restored.recovery().wal_dropped_bytes, 0u);
    // The seal never committed, so the *whole* w2 batch rolls back: the
    // restored service is the service as of the checkpoint.
    EXPECT_EQ(restored.recovery().wal_replay_records, 0u);
    QueryService reference(g, MakeOptions(ServiceAlgorithm::kMultiRSS));
    reference.Submit(w1);
    ExpectSameLedgers(reference.ledger(), restored.ledger(), "torn");

    // Re-running w2 — the resubmission a client whose submit never
    // returned would issue — matches the uninterrupted run exactly.
    ExpectSameAnswers(reference.Submit(w2), restored.Submit(w2), "torn w2");
    ExpectSameLedgers(reference.ledger(), restored.ledger(),
                      "torn after w2");
  }  // release the directory lock before reopening

  // And the once-torn WAL was compacted: a second restart is clean.
  QueryService again(g, MakeOptions(ServiceAlgorithm::kMultiRSS, dir));
  EXPECT_FALSE(again.recovery().wal_torn_tail);
}

// --- Property test: across random kill points, no charge is applied
// --- twice and no view is re-randomized.

TEST(PersistenceTest, NoDoubleChargeNoReleaseAcrossRandomKillPoints) {
  const BipartiteGraph g = TestGraph();
  for (uint64_t trial = 0; trial < 8; ++trial) {
    const ServiceAlgorithm algorithm =
        kAllAlgorithms[trial % std::size(kAllAlgorithms)];
    const std::string label =
        std::string(ToString(algorithm)) + " trial " + std::to_string(trial);
    const std::string dir = FreshDir("prop_" + std::to_string(trial));
    std::vector<std::vector<QueryPair>> batches;
    for (uint64_t b = 0; b < 3; ++b) {
      batches.push_back(Workload(g, 40 + 10 * b, 100 * trial + b));
    }
    const size_t checkpoint_after = trial % (batches.size() + 1);

    QueryService reference(g, MakeOptions(algorithm));
    {
      QueryService service(g, MakeOptions(algorithm, dir));
      if (checkpoint_after == 0) service.Checkpoint();
      for (size_t b = 0; b < batches.size(); ++b) {
        ExpectSameAnswers(reference.Submit(batches[b]),
                          service.Submit(batches[b]), label);
        if (checkpoint_after == b + 1) service.Checkpoint();
      }
    }  // kill

    QueryService restored(g, MakeOptions(algorithm, dir));
    ExpectSameLedgers(reference.ledger(), restored.ledger(), label);
    // The lifetime bound itself: nothing ever exceeds the budget.
    for (const VertexBudget& row : restored.ledger().Snapshot()) {
      EXPECT_LE(row.spent, restored.ledger().lifetime_budget() + 1e-9)
          << label;
    }
    const auto probe = Workload(g, 50, 999 + trial);
    const ServiceReport ref = reference.Submit(probe);
    const ServiceReport got = restored.Submit(probe);
    ExpectSameAnswers(ref, got, label);
    EXPECT_EQ(ref.store.releases, got.store.releases) << label;
    ExpectSameViews(g, reference.store(), restored.store(), label);
  }
}

// --- Operational paths.

TEST(PersistenceTest, RaiseLifetimeBudgetSurvivesTheCrash) {
  const BipartiteGraph g = TestGraph();
  ServiceOptions options = MakeOptions(ServiceAlgorithm::kMultiRSS);
  options.lifetime_budget = 2.0;  // tight: vertex 0 exhausts fast
  const std::string dir = FreshDir("raise");

  const std::vector<QueryPair> exhausting = {{Layer::kLower, 0, 1},
                                             {Layer::kLower, 0, 2},
                                             {Layer::kLower, 0, 3}};
  QueryService reference(g, options);
  ASSERT_TRUE(reference.Submit(exhausting).answers[2].rejected);
  reference.RaiseLifetimeBudget(5.0);

  {
    options.snapshot_dir = dir;
    QueryService service(g, options);
    service.Submit(exhausting);
    service.RaiseLifetimeBudget(5.0);
  }  // kill right after the raise — it must already be durable

  QueryService restored(g, options);
  EXPECT_EQ(restored.ledger().lifetime_budget(), 5.0);
  const std::vector<QueryPair> retry = {{Layer::kLower, 0, 3}};
  ExpectSameAnswers(reference.Submit(retry), restored.Submit(retry),
                    "post-raise retry");
}

TEST(PersistenceTest, CheckpointRightAfterRecoveryRecordsReplayedViews) {
  // Views authorized only in the WAL are regenerated at open; an operator
  // checkpointing immediately after recovery, before any submit, must
  // record them so the next open regenerates and verifies them again.
  const BipartiteGraph g = TestGraph();
  const auto w1 = Workload(g, 60, 8);
  const auto w2 = Workload(g, 60, 9);
  const std::string dir = FreshDir("pending");

  QueryService reference(g, MakeOptions(ServiceAlgorithm::kOneR));
  reference.Submit(w1);

  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    service.Submit(w1);
  }
  {
    QueryService restored(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    restored.Checkpoint();  // views from WAL replay, no submit
  }
  QueryService final_service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  EXPECT_TRUE(final_service.recovery().snapshot_loaded);
  EXPECT_EQ(final_service.recovery().wal_replay_records, 0u);
  ExpectSameAnswers(reference.Submit(w2), final_service.Submit(w2),
                    "replayed");
  ExpectSameViews(g, reference.store(), final_service.store(), "replayed");
}

TEST(PersistenceTest, FreshDirectoryBehavesLikeAnEphemeralService) {
  const BipartiteGraph g = TestGraph();
  const auto w = Workload(g, 80, 10);
  const std::string dir = FreshDir("fresh");

  QueryService persistent(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  EXPECT_FALSE(persistent.recovery().snapshot_loaded);
  EXPECT_EQ(persistent.recovery().wal_replay_records, 0u);
  QueryService ephemeral(g, MakeOptions(ServiceAlgorithm::kOneR));
  ExpectSameAnswers(ephemeral.Submit(w), persistent.Submit(w), "fresh");
  EXPECT_TRUE(FileExists(
      (std::filesystem::path(dir) / kWalFileName).string()));
}

TEST(PersistenceTest, MismatchedOptionsOrGraphAreRefused) {
  const BipartiteGraph g = TestGraph();
  const std::string dir = FreshDir("mismatch");
  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    service.Submit(Workload(g, 40, 11));
    service.Checkpoint();
  }

  ServiceOptions wrong_seed = MakeOptions(ServiceAlgorithm::kOneR, dir);
  wrong_seed.seed = 100;  // different seed ⇒ different view randomness
  EXPECT_THROW(QueryService(g, wrong_seed), std::runtime_error);

  ServiceOptions wrong_epsilon = MakeOptions(ServiceAlgorithm::kOneR, dir);
  wrong_epsilon.epsilon = 1.0;
  EXPECT_THROW(QueryService(g, wrong_epsilon), std::runtime_error);

  ServiceOptions wrong_algorithm =
      MakeOptions(ServiceAlgorithm::kMultiRDS, dir);
  EXPECT_THROW(QueryService(g, wrong_algorithm), std::runtime_error);

  const BipartiteGraph other = PlantedCommonNeighbors(4, 4, 4, 10, 8);
  EXPECT_THROW(
      QueryService(other, MakeOptions(ServiceAlgorithm::kOneR, dir)),
      std::runtime_error);

  // The matching configuration still restores fine.
  QueryService ok(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  EXPECT_TRUE(ok.recovery().snapshot_loaded);
}

TEST(PersistenceTest, SecondServiceOnTheSameDirectoryIsRefused) {
  // Two services interleaving one journal would sum their charges on
  // replay; the directory flock turns the operator error into a loud
  // failure at open.
  const BipartiteGraph g = TestGraph();
  const std::string dir = FreshDir("lock");
  QueryService first(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  EXPECT_THROW(QueryService(g, MakeOptions(ServiceAlgorithm::kOneR, dir)),
               std::runtime_error);
}

TEST(PersistenceTest, MissingWalNextToSnapshotIsRefused) {
  // Losing the journal loses every committed post-checkpoint charge and
  // rolls the noise-stream counter back onto already-released draws;
  // recovery must refuse rather than silently start a clean epoch.
  const BipartiteGraph g = TestGraph();
  const std::string dir = FreshDir("missing_wal");
  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    service.Submit(Workload(g, 40, 12));
    service.Checkpoint();
  }
  std::filesystem::remove(std::filesystem::path(dir) / kWalFileName);
  EXPECT_THROW(QueryService(g, MakeOptions(ServiceAlgorithm::kOneR, dir)),
               std::runtime_error);
}

// --- Sampler stamps: recovery regenerates views from their RNG
// --- substream, so state released by another sampler version, or under
// --- another RR threshold (another libm's rounding of std::exp), is
// --- refused.

// The version before the current one, and this binary's threshold at
// OneR's ε = 2: the stamps the tests re-write into otherwise valid state.
constexpr uint32_t kOtherSampler = kRrSamplerVersion - 1;
const uint64_t kThreshold = BernoulliThreshold(FlipProbability(2.0));

const std::vector<std::string> kSamplerRefusal = {
    "RR sampler version " + std::to_string(kOtherSampler) + ",",
    "samples with version " + std::to_string(kRrSamplerVersion)};
const std::vector<std::string> kThresholdRefusal = {
    "RR threshold " + std::to_string(kThreshold + 1) + ",",
    "computes threshold " + std::to_string(kThreshold)};

// Opening `dir` must throw a message naming every one of `needles`.
void ExpectRefusal(const BipartiteGraph& g, const std::string& dir,
                   const std::vector<std::string>& needles) {
  try {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    FAIL() << "opened " << dir;
  } catch (const std::runtime_error& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

// OneR state in the fresh directory `name`: checkpointed, or WAL-only.
std::string OneRState(const BipartiteGraph& g, const std::string& name,
                      bool checkpoint) {
  const std::string dir = FreshDir(name);
  QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  service.Submit(Workload(g, 40, 13));
  if (checkpoint) service.Checkpoint();
  return dir;
}

// Re-commits the snapshot in `dir` with its config and views sections
// passed through the given edits (empty: unchanged), every other byte
// as it was.
void EditSnapshot(const std::string& dir,
                  const std::function<void(SnapshotConfig&)>& edit_config,
                  const std::function<void(ViewsSection&)>& edit_views = {}) {
  const std::string path =
      (std::filesystem::path(dir) / kSnapshotFileName).string();
  const SnapshotReader reader(path);
  SnapshotWriter writer(reader.epoch());
  for (const SectionInfo& info : reader.sections()) {
    ByteReader in = reader.Section(info.id);
    ByteWriter& out = writer.BeginSection(info.id);
    if (info.id == SectionId::kConfig && edit_config) {
      SnapshotConfig config = ReadConfigSection(in);
      edit_config(config);
      WriteConfigSection(config, out);
    } else if (info.id == SectionId::kViews && edit_views) {
      ViewsSection views = ReadViewsSection(in);
      edit_views(views);
      WriteViewsSection(views, out);
    } else {
      const auto bytes = in.Borrow(in.remaining());
      out.Bytes(bytes.data(), bytes.size());
    }
    writer.EndSection();
  }
  writer.Commit(path);
}

// Re-stamps the WAL header in `dir`, every record unchanged: the sampler
// version sits at byte 20 (after magic, format version and epoch), the
// threshold right after it.
void RestampWal(const std::string& dir, uint32_t sampler_version,
                uint64_t rr_threshold) {
  const std::string path =
      (std::filesystem::path(dir) / kWalFileName).string();
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  ByteWriter stamp;
  stamp.U32(sampler_version);
  stamp.U64(rr_threshold);
  std::copy(stamp.data().begin(), stamp.data().end(), bytes.begin() + 20);
  WriteFileAtomic(path, bytes);
}

TEST(PersistenceTest, SnapshotStampedByAnotherSamplerIsRefused) {
  const BipartiteGraph g = TestGraph();
  const std::string version_dir = OneRState(g, "sampler_snapshot", true);
  EditSnapshot(version_dir, [](SnapshotConfig& config) {
    ASSERT_EQ(config.rr_sampler_version, kRrSamplerVersion);
    config.rr_sampler_version = kOtherSampler;
  });
  ExpectRefusal(g, version_dir, kSamplerRefusal);

  const std::string threshold_dir = OneRState(g, "threshold_snapshot", true);
  EditSnapshot(threshold_dir, [](SnapshotConfig& config) {
    ASSERT_EQ(config.rr_threshold, kThreshold);
    config.rr_threshold = kThreshold + 1;
  });
  ExpectRefusal(g, threshold_dir, kThresholdRefusal);
}

TEST(PersistenceTest, WalStampedByAnotherSamplerIsRefused) {
  // No checkpoint yet: every authorized view lives only in the WAL and
  // has no digest, so the header stamps are all that guard its
  // regeneration.
  const BipartiteGraph g = TestGraph();
  const std::string version_dir = OneRState(g, "sampler_wal", false);
  RestampWal(version_dir, kOtherSampler, kThreshold);
  ExpectRefusal(g, version_dir, kSamplerRefusal);

  const std::string threshold_dir = OneRState(g, "threshold_wal", false);
  RestampWal(threshold_dir, kRrSamplerVersion, kThreshold + 1);
  ExpectRefusal(g, threshold_dir, kThresholdRefusal);
}

// --- Recovery regenerates every view and proves each checkpointed one is
// --- the release it replaces.

TEST(PersistenceTest, SameShapeGraphWithAMovedEdgeIsRefused) {
  // Moving one edge of a released vertex flips exactly two bits of its
  // regenerated release.
  const BipartiteGraph g = PlantedCommonNeighbors(3, 5, 2, 100, 8);
  const std::string dir = FreshDir("swapped_graph");
  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
    service.Submit({{Layer::kLower, 0, 1}});
    service.Checkpoint();
  }
  // Lower vertex 0 trades its first neighbor for an upper vertex it was
  // not adjacent to: same |U|, |L| and edge count.
  const VertexId from = g.Neighbors(Layer::kLower, 0).front();
  VertexId to = 0;
  while (g.HasEdge(to, 0)) ++to;
  std::vector<Edge> edges = g.EdgeList();
  std::erase(edges, Edge{from, 0});
  edges.push_back({to, 0});
  std::sort(edges.begin(), edges.end());
  const BipartiteGraph moved(g.NumUpper(), g.NumLower(), edges);
  ASSERT_EQ(moved.NumEdges(), g.NumEdges());

  ExpectRefusal(moved, dir, {"regenerated view of lower vertex 0 differs"});
  // The refusal changed nothing on disk: the true graph still restores.
  QueryService ok(g, MakeOptions(ServiceAlgorithm::kOneR, dir));
  EXPECT_TRUE(ok.recovery().snapshot_loaded);
}

TEST(PersistenceTest, HostileRecordsThrowAtOpen) {
  // Every case passes its file's CRCs (the file is re-committed) and must
  // be refused at open with an exception — never an abort, never a
  // served view.
  const BipartiteGraph g = TestGraph();
  const std::string base = FreshDir("hostile_base");
  {
    QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR, base));
    service.Submit({{Layer::kLower, 0, 1}});
    service.Checkpoint();                     // lower 0 and 1 checkpointed
    service.Submit({{Layer::kLower, 2, 3}});  // lower 2 and 3 WAL-only
  }
  // Each case runs on its own copy of `base`, edited by `edit`.
  const auto expect_refused = [&](const char* name,
                                  const std::function<void(
                                      const std::string&)>& edit) {
    const std::string dir = FreshDir("hostile_case");
    std::filesystem::copy(base, dir);
    edit(dir);
    EXPECT_THROW(QueryService(g, MakeOptions(ServiceAlgorithm::kOneR, dir)),
                 std::runtime_error)
        << name;
  };
  const uint64_t past_layer =
      PackLayeredVertex({Layer::kLower, g.NumLower()});
  const uint64_t no_layer = (uint64_t{2} << 32) | 1;

  // The snapshot's records are lower 0 then lower 1, both materialized.
  const struct {
    const char* name;
    std::function<void(ViewsSection&)> edit;
  } record_cases[] = {
      {"vertex past the layer size",
       [&](ViewsSection& v) { v.entries[0].packed_vertex = past_layer; }},
      {"vertex in no layer",
       [&](ViewsSection& v) { v.entries[0].packed_vertex = no_layer; }},
      {"duplicate vertex",
       [](ViewsSection& v) { v.entries.push_back(v.entries[0]); }},
      {"unknown state byte", [](ViewsSection& v) { v.entries[0].state = 3; }},
      {"released size off by one",
       [](ViewsSection& v) { ++v.entries[0].size; }},
      {"digest off by one bit",
       [](ViewsSection& v) { v.entries[0].digest ^= 1; }},
      {"other release budget", [](ViewsSection& v) { v.epsilon = 3.0; }},
  };
  for (const auto& c : record_cases) {
    expect_refused(c.name, [&](const std::string& dir) {
      EditSnapshot(dir, {}, c.edit);
    });
  }

  // A view authorization appended to the WAL behind a seal.
  const struct {
    const char* name;
    uint64_t vertex;
  } wal_cases[] = {
      {"WAL vertex past the layer size", past_layer},
      {"WAL vertex in no layer", no_layer},
      {"WAL vertex already in the snapshot",
       PackLayeredVertex({Layer::kLower, 0})},
      {"WAL vertex authorized twice", PackLayeredVertex({Layer::kLower, 2})},
  };
  for (const auto& c : wal_cases) {
    expect_refused(c.name, [&](const std::string& dir) {
      const std::string path =
          (std::filesystem::path(dir) / kWalFileName).string();
      WalReplay replay = BudgetWal::Read(path);
      WalRecord authorized;
      authorized.type = WalRecordType::kViewAuthorized;
      authorized.vertex = c.vertex;
      const WalRecord seal = replay.records.back();
      replay.records.insert(replay.records.end(), {authorized, seal});
      BudgetWal::Rewrite(path, replay.epoch, replay.records,
                         replay.rr_threshold);
    });
  }
}

// --- Scale: kill-restore on a generated 10⁵-edge power-law graph at a
// --- release budget far above the paper's range.

TEST(PersistenceTest, KillRestoreOnGeneratedScaleGraph) {
  SyntheticSpec spec;
  spec.num_upper = 5000;
  spec.num_lower = 20000;
  spec.num_edges = 120000;  // ~9.5e4 distinct edges
  spec.seed = 21;
  const std::string cache_dir = FreshDir("scale_cache");
  const BipartiteGraph g = BuildSyntheticGraph(spec, cache_dir);
  ASSERT_GT(g.NumEdges(), uint64_t{90'000});

  // ε1 = 6 puts the RR flip probability at ~0.0025, so typical power-law
  // vertices (average degree ~6 on a 5000-id domain) release nearly
  // empty bitmaps next to the hubs' dense ones.
  ServiceOptions options = MakeOptions(ServiceAlgorithm::kMultiRSS);
  options.epsilon = 12.0;
  options.lifetime_budget = 24.0;
  // A wide hot set reaches past the hubs: the generator assigns weights
  // by id, so low ids are hubs and the hot set stretches to low-degree
  // ranks.
  Rng workload_rng(31);
  const auto w1 =
      MakeHotSetWorkload(g, Layer::kLower, 120, 1024, workload_rng);
  const auto w2 =
      MakeHotSetWorkload(g, Layer::kLower, 100, 1024, workload_rng);
  const auto w3 =
      MakeHotSetWorkload(g, Layer::kLower, 120, 1024, workload_rng);

  QueryService reference(g, options);
  reference.Submit(w1);
  reference.Submit(w2);

  const std::string dir = FreshDir("scale_roundtrip");
  {
    ServiceOptions persistent = options;
    persistent.snapshot_dir = dir;
    QueryService service(g, persistent);
    service.Submit(w1);
    service.Checkpoint();
    service.Submit(w2);  // w2 lives only in the WAL
  }  // kill

  // The checkpoint holds neither the graph nor any view byte: records of
  // a few dozen bytes per released view plus the ledger.
  const SnapshotReader snapshot(
      (std::filesystem::path(dir) / kSnapshotFileName).string());
  EXPECT_FALSE(snapshot.Has(SectionId::kGraph));
  EXPECT_LT(snapshot.file_bytes(), uint64_t{64} << 10);

  ServiceOptions restored_options = options;
  restored_options.snapshot_dir = dir;
  QueryService restored(g, restored_options);
  EXPECT_TRUE(restored.recovery().snapshot_loaded);
  EXPECT_GT(restored.recovery().wal_replay_records, 0u);
  ExpectSameLedgers(reference.ledger(), restored.ledger(), "scale");

  ExpectSameAnswers(reference.Submit(w3), restored.Submit(w3), "scale w3");
  ExpectSameViews(g, reference.store(), restored.store(), "scale");
}

TEST(PersistenceDeathTest, CheckpointWithoutSnapshotDirIsFatal) {
  const BipartiteGraph g = TestGraph();
  QueryService service(g, MakeOptions(ServiceAlgorithm::kOneR));
  EXPECT_DEATH(service.Checkpoint(), "snapshot_dir");
}

}  // namespace
}  // namespace cne

// Concurrent common-neighborhood query service.
//
// The per-pair estimators (core/) simulate one protocol execution per
// query; real deployments issue huge same-graph workloads where the same
// vertices recur constantly. The service turns the roster into a
// high-throughput engine built on three parts:
//
//   * a NoisyViewStore releasing each vertex's noisy neighbor list at
//     most once per service lifetime (shared post-processing),
//   * a BudgetLedger enforcing per-vertex edge-LDP composition across
//     every release the service ever makes, and
//   * a ThreadPool + Rng::Fork substreams making execution byte-identical
//     to sequential for any thread count.
//
// Algorithms and their per-query budget charges (lifetime budget B,
// default B = ε):
//
//   kNaive / kOneR   one ε-RR release per distinct vertex, then pure
//                    post-processing — unlimited queries per vertex.
//   kMultiRSS        w's ε1-RR release is shared; each query additionally
//                    releases f_u through Laplace, charging ε2 to u.
//   kMultiRDS        both ε1-RR releases shared; each query charges ε2 to
//                    u and to w for the two Laplace releases (the
//                    basic α = 1/2 combination — the per-query degree
//                    round would cost every vertex ε0 per query, which a
//                    lifetime ledger immediately exposes as unaffordable).
//
// A query whose charges do not fit in every participant's residual budget
// is rejected (deterministically: admission runs in submission order)
// and reported as such — never silently answered over budget.

#ifndef CNE_SERVICE_QUERY_SERVICE_H_
#define CNE_SERVICE_QUERY_SERVICE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/protocol_pipeline.h"
#include "ldp/budget_ledger.h"
#include "obs/metrics.h"
#include "service/noisy_view_store.h"
#include "service/workload_planner.h"
#include "store/snapshot_format.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cne {

/// The estimators the service can run over the shared store — the four
/// protocols of the shared pipeline (core/protocol_pipeline.h).
using ServiceAlgorithm = ProtocolKind;

/// Parses a display name ("Naive", "OneR", "MultiR-SS", "MultiR-DS").
inline std::optional<ServiceAlgorithm> ParseServiceAlgorithm(
    const std::string& name) {
  return ParseProtocolKind(name);
}

/// The service's durability health (see docs/ARCHITECTURE.md, "Failure
/// model & degradation"). Transitions are one-way within a process except
/// kDegradedReadOnly -> kHealthy via a successful Checkpoint(), which
/// re-establishes a journal; a restart always recovers to kHealthy from
/// the last durable state.
enum class ServiceHealth : uint8_t {
  /// Journaling (when persistent) and serving normally.
  kHealthy = 0,
  /// The WAL failed (append/fsync, or restart after a checkpoint).
  /// In-memory state is intact — every failed batch was rolled back — but
  /// new charges cannot be made durable, so anything needing one is
  /// refused. Queries over already-released views still answer: they are
  /// pure post-processing of public data, no new budget, no new noise.
  kDegradedReadOnly = 1,
  /// An unexpected failure mid-release/execute left in-memory state
  /// untrusted; the service refuses everything. Restart to recover.
  kFailed = 2,
};

const char* ServiceHealthName(ServiceHealth health);

/// Why a query was rejected (ServiceAnswer::reason).
enum class RejectReason : uint8_t {
  kNone = 0,        ///< not rejected
  kBudget = 1,      ///< the ledger could not afford the query's releases
  kReadOnly = 2,    ///< degraded mode refused a query needing a new charge
  /// The batch's WAL seal failed: every charge was rolled back, no noise
  /// was drawn, and the whole submission reports this reason.
  kDurability = 3,
  kServiceFailed = 4,  ///< the service is in ServiceHealth::kFailed
};

const char* RejectReasonName(RejectReason reason);

/// Service configuration, fixed for the service lifetime.
struct ServiceOptions {
  ServiceAlgorithm algorithm = ServiceAlgorithm::kOneR;

  /// Per-query protocol budget ε (split ε1/ε2 for the MultiR family).
  double epsilon = 2.0;

  /// Lifetime ε each vertex may spend across every release the service
  /// makes; 0 means "equal to epsilon". Raising it above epsilon lets a
  /// vertex source multiple MultiR releases at a correspondingly weaker
  /// whole-lifetime guarantee.
  double lifetime_budget = 0.0;

  /// Share of ε spent on randomized response by kMultiRSS/kMultiRDS.
  double epsilon1_fraction = 0.5;

  /// Threads executing each Submit (<= 0: hardware concurrency).
  int num_threads = 1;

  /// Master seed; with everything else equal, answers are byte-identical
  /// across runs and thread counts.
  uint64_t seed = 7;

  /// Directory for crash-safe persistence (snapshot + budget write-ahead
  /// log, store/). Empty disables persistence. When set, the service
  /// recovers any existing state at construction (snapshot load + WAL
  /// replay — throws std::runtime_error if the on-disk state was produced
  /// under different options or a different graph, or when a view it
  /// regenerates differs from the recorded release), journals every budget
  /// charge and view authorization ahead of acting on it, and records the
  /// released-view set and the ledger on Checkpoint(). A killed service
  /// reconstructed over the same directory restarts byte-identical: same
  /// answers, same residual budgets, zero re-randomized views.
  std::string snapshot_dir;

  /// Snapshot-commit attempts per Checkpoint() (>= 1). A transient IO
  /// failure is retried with exponential backoff; the last good snapshot
  /// stays in place throughout (atomic rename-on-commit) and each failed
  /// attempt's temp file is quarantined for inspection.
  int checkpoint_attempts = 3;

  /// Base of the exponential backoff between checkpoint attempts
  /// (attempt k sleeps base * 2^k milliseconds). 0 disables sleeping —
  /// tests inject deterministic faults and need no wall-clock delay.
  double checkpoint_backoff_ms = 10.0;

  /// Observability level (obs/metrics.h). kFull records per-phase latency
  /// histograms (admission, wal_fsync, release, plan, execute,
  /// post_process, checkpoint) plus counters; kCounters keeps only the
  /// counters; kOff registers nothing and reduces every recording site to
  /// a null-pointer branch. Never affects answers.
  obs::MetricsLevel metrics_level = obs::MetricsLevel::kFull;
};

/// What recovery found when a persistent service opened its directory.
struct RecoveryStats {
  bool snapshot_loaded = false;
  double snapshot_load_seconds = 0.0;  ///< read, WAL replay, regeneration
  uint64_t wal_replay_records = 0;     ///< committed records re-applied
  /// Complete records after the last commit barrier — an admission batch
  /// whose fsync never finished; the service never acted on them.
  uint64_t wal_discarded_records = 0;
  bool wal_torn_tail = false;          ///< file ended in a torn record
  uint64_t wal_dropped_bytes = 0;      ///< torn bytes discarded
};

/// One answered (or rejected) query.
struct ServiceAnswer {
  QueryPair query;
  double estimate = 0.0;
  /// True when the query was not answered; `estimate` is meaningless then
  /// and `reason` says why (budget, degraded mode, a failed seal, ...).
  bool rejected = false;
  RejectReason reason = RejectReason::kNone;
};

/// Outcome of one Submit: answers plus service-lifetime accounting.
struct ServiceReport {
  std::vector<ServiceAnswer> answers;

  // This submission.
  uint64_t answered = 0;
  uint64_t rejected = 0;
  uint64_t rejected_budget = 0;       ///< RejectReason::kBudget
  uint64_t rejected_unavailable = 0;  ///< kReadOnly/kDurability/kServiceFailed
  double seconds = 0.0;

  /// Service health after this submission.
  ServiceHealth health = ServiceHealth::kHealthy;

  /// True when this submission's admissions are durable (or persistence
  /// is off). False when the WAL seal failed — the batch was rolled back
  /// and every answer carries RejectReason::kDurability — or when a
  /// degraded service answered read-only queries with no journal at all.
  bool sealed = true;

  // Planner accounting for this submission (zero when nothing was
  // admitted).
  uint64_t groups_formed = 0;
  double avg_group_size = 0.0;
  double planner_seconds = 0.0;  ///< plan construction only, not execution

  // Cumulative over the service lifetime.
  NoisyViewStore::Stats store;
  uint64_t budget_vertices_charged = 0;
  double budget_total_spent = 0.0;
  double budget_min_remaining = 0.0;

  // Persistence accounting (all zero when persistence is disabled).
  double snapshot_load_seconds = 0.0;  ///< recovery cost at service open
  uint64_t wal_replay_records = 0;     ///< WAL records replayed at open
  double checkpoint_seconds = 0.0;     ///< duration of the last Checkpoint()

  /// Service-lifetime metrics (counters + per-phase latency quantiles,
  /// obs/metrics.h). Submit leaves this EMPTY — a registry snapshot is
  /// too expensive for the per-batch hot path — so callers that want it
  /// fill it from QueryService::SnapshotMetrics() at their own cadence.
  /// Cumulative, so the latest snapshot supersedes earlier ones.
  obs::MetricsSnapshot metrics;

  /// Answered queries per second. Rejections are excluded — they take
  /// only the admission fast path, so counting them would inflate
  /// throughput for budget-constrained workloads.
  double QueriesPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(answered) / seconds : 0.0;
  }
};

/// A long-lived query engine over one graph. Submit may be called
/// repeatedly — privacy accounting accumulates across calls — but from
/// one caller at a time: the service parallelizes internally rather than
/// supporting reentrant Submits.
class QueryService {
 public:
  /// The graph must outlive the service. With options.snapshot_dir set,
  /// opens (and if state exists, recovers) the persistent service there;
  /// throws std::runtime_error when the on-disk state does not match the
  /// options or the graph.
  QueryService(const BipartiteGraph& graph, ServiceOptions options);

  ~QueryService();

  /// Answers `queries` (any mix of layers) and returns answers in input
  /// order. Deterministic: depends only on the graph, options, and the
  /// submission history — never on num_threads or scheduling.
  ServiceReport Submit(const std::vector<QueryPair>& queries);

  /// Raises the lifetime budget every vertex may spend (see
  /// BudgetLedger::RaiseLifetimeBudget): queries rejected earlier may be
  /// resubmitted and admitted against the new bound. Must not race with a
  /// concurrent Submit.
  void RaiseLifetimeBudget(double new_budget);

  /// Writes a crash-consistent snapshot of the service state that cannot
  /// be recomputed (config and substream counter, one size-and-digest
  /// record per released view, the ledger) to the snapshot directory with
  /// atomic rename-on-commit, then starts a fresh WAL epoch. Requires
  /// persistence; must not race with a concurrent Submit. Returns the
  /// checkpoint duration in seconds.
  double Checkpoint();

  /// True when the service journals to a snapshot directory.
  bool persistent() const { return persist_ != nullptr; }

  /// Current durability health (see ServiceHealth). A WAL failure flips a
  /// persistent service to kDegradedReadOnly; a successful Checkpoint()
  /// heals it back to kHealthy.
  ServiceHealth health() const { return health_; }

  /// The Laplace substream counter after the last sealed submission — in
  /// effect, the number of queries whose admission is durable. Exposed for
  /// recovery harnesses that need to know how much of a workload a killed
  /// service had committed.
  uint64_t next_noise_stream() const { return next_noise_stream_; }

  /// Recovery accounting from construction (all zero when persistence is
  /// disabled or the directory was empty).
  const RecoveryStats& recovery() const { return recovery_; }

  const ServiceOptions& options() const { return options_; }
  const BudgetLedger& ledger() const { return ledger_; }
  const NoisyViewStore& store() const { return store_; }

  /// Current cumulative metrics without submitting anything (the same
  /// snapshot every ServiceReport carries): counters, gauges, per-phase
  /// quantiles, tail exemplars, and the ledger's budget burn-down
  /// (BudgetBurnDown). Empty at kOff.
  obs::MetricsSnapshot SnapshotMetrics() const;

 private:
  struct Persistence;  // snapshot paths + WAL handle (query_service.cc)
  struct PlannedQuery {
    QueryPair query;
    bool admitted = false;
    RejectReason reason = RejectReason::kNone;
    uint64_t noise_stream = 0;  ///< Laplace substream (MultiR family)
  };

  /// Sequential, deterministic admission of one query: checks that every
  /// charge fits, then commits them all (or none). Committed charges and
  /// view authorizations are journaled ahead of the release phase when
  /// persistence is on, and recorded in the rollback scratch so a failed
  /// seal can revoke them. kNone means admitted.
  RejectReason Admit(const QueryPair& query);

  /// Seal-failure recovery: restores the ledger rows, revokes the store
  /// authorizations, and rewinds the substream counter recorded during
  /// this submission's admission pass, then marks every answer rejected
  /// with RejectReason::kDurability. After it returns, in-memory state is
  /// exactly what it was before Submit.
  void RollbackUnsealedSubmit(uint64_t noise_stream_mark,
                              const std::vector<PlannedQuery>& plan,
                              ServiceReport& report);

  /// Flips health to kDegradedReadOnly (from kHealthy) and records the
  /// transition (counter, gauge, warning log).
  void EnterDegraded(const std::string& why);

  /// Fills the per-submission tallies, lifetime accounting, and metrics
  /// snapshot of `report` — the common tail of every Submit outcome.
  void FinalizeReport(ServiceReport& report, double seconds);

  /// Opens the snapshot directory: recovers snapshot + WAL state when
  /// present, regenerates and verifies every released view, then leaves a
  /// WAL handle ready for appending.
  void OpenPersistent();

  /// The service configuration as a snapshot config section.
  SnapshotConfig CurrentConfig() const;

  /// Post-processing phase for one admitted MultiR-SS/DS query — the
  /// per-query driver over the shared pipeline's PostProcess.
  double Answer(const PlannedQuery& planned) const;

  /// Phase 3: fills every answer slot. Rejections are copied from `plan`;
  /// admitted queries are ordered by shared endpoint (WorkloadPlanner) and
  /// answered one group range per worker chunk: Naive/OneR through one
  /// BitmapAndCounts pass and ViewPairFromCounts, the MultiR family by
  /// Answer().
  void Execute(const std::vector<QueryPair>& queries,
               const std::vector<PlannedQuery>& plan, ServiceReport& report);

  /// Offers a clocked post-process sample to the exemplar reservoir with
  /// the query's kernel and operand context (built only when the sample
  /// would be kept).
  void OfferPostProcessExemplar(const QueryPair& query, uint64_t nanos) const;

  /// Registers metric handles per options_.metrics_level (constructor
  /// helper). Null handles keep every recording site a branch.
  void InitMetrics();

  const BipartiteGraph& graph_;
  const ServiceOptions options_;
  const ProtocolPlan plan_;        ///< the protocol's release structure
  const DebiasConstants debias_;   ///< φ constants of an ε1 release
  BudgetLedger ledger_;
  const Rng root_;
  NoisyViewStore store_;
  Rng noise_root_;  ///< parent of the per-query Laplace substreams
  ThreadPool pool_;
  WorkloadPlanner planner_;
  uint64_t next_noise_stream_ = 0;

  std::unique_ptr<Persistence> persist_;  ///< null without snapshot_dir
  RecoveryStats recovery_;
  ServiceHealth health_ = ServiceHealth::kHealthy;

  // Observability (obs/). The registry owns the metrics; the raw pointers
  // are the hot-path handles, null whenever the metrics level (or the
  // compile-time switch) disables them.
  obs::MetricsRegistry metrics_;
  obs::Counter* c_queries_ = nullptr;     ///< queries submitted
  obs::Counter* c_answered_ = nullptr;    ///< queries answered
  obs::Counter* c_rejected_ = nullptr;    ///< queries rejected at admission
  obs::Counter* c_submits_ = nullptr;     ///< Submit calls
  obs::Counter* c_checkpoints_ = nullptr; ///< Checkpoint calls
  // Fault / degradation accounting (all zero in a healthy lifetime).
  obs::Counter* c_rejected_budget_ = nullptr;       ///< kBudget rejections
  obs::Counter* c_rejected_unavailable_ = nullptr;  ///< degraded rejections
  obs::Counter* c_wal_failures_ = nullptr;          ///< failed seals/raises
  obs::Counter* c_submit_rollbacks_ = nullptr;      ///< unsealed rollbacks
  obs::Counter* c_checkpoint_failures_ = nullptr;   ///< failed commit tries
  obs::Counter* c_checkpoint_retries_ = nullptr;    ///< commit re-attempts
  obs::Counter* c_health_transitions_ = nullptr;    ///< state changes
  obs::Gauge* g_health_ = nullptr;                  ///< ServiceHealth value
  obs::LatencyHistogram* h_admission_ = nullptr;     ///< per query
  obs::LatencyHistogram* h_wal_fsync_ = nullptr;     ///< per submit seal
  obs::LatencyHistogram* h_release_ = nullptr;       ///< per submit barrier
  obs::LatencyHistogram* h_plan_ = nullptr;          ///< per submit
  obs::LatencyHistogram* h_execute_ = nullptr;       ///< per worker chunk
  obs::LatencyHistogram* h_post_process_ = nullptr;  ///< per query, sampled
  obs::LatencyHistogram* h_checkpoint_ = nullptr;    ///< per checkpoint
  // Budget burn-down telemetry (≥ kCounters): per-protocol ε spend in
  // integer micro-ε (counters are u64) and the exhausted-vertex gauge.
  obs::Counter* c_spend_rr_ = nullptr;       ///< RR ε spent, micro-ε
  obs::Counter* c_spend_laplace_ = nullptr;  ///< Laplace ε spent, micro-ε
  obs::Gauge* g_budget_exhausted_ = nullptr; ///< ledger NumExhausted
  // Tail exemplar reservoirs (kFull): slowest clocked samples per phase,
  // with kernel/operand context (obs/exemplar.h).
  obs::ExemplarReservoir* ex_admission_ = nullptr;
  obs::ExemplarReservoir* ex_post_process_ = nullptr;
  obs::ExemplarReservoir* ex_release_build_ = nullptr;

  // Submit-level scratch, reused across submissions (Submit is not
  // reentrant by contract).
  std::vector<uint32_t> admitted_;  ///< slots of the admitted queries
  uint64_t cache_hit_lookups_ = 0;  ///< flushed to the store per Submit
  uint64_t submit_seq_ = 0;         ///< 1-based id of the current Submit
  // Per-mechanism ε spent by the current submission, flushed to the
  // micro-ε counters only once the batch seals — a rolled-back batch must
  // leave the burn-down counters exactly as found.
  double submit_spend_rr_ = 0.0;
  double submit_spend_laplace_ = 0.0;

  // Rollback scratch for the current submission (persistent + healthy
  // only): each ledger mutation's prior spend, recorded *before* the
  // charge, and each vertex authorized. A failed seal replays charges in
  // reverse — exact doubles, no refund arithmetic — and revokes the
  // authorizations.
  std::vector<std::pair<LayeredVertex, double>> rollback_charges_;
  std::vector<LayeredVertex> rollback_authorized_;
};

}  // namespace cne

#endif  // CNE_SERVICE_QUERY_SERVICE_H_

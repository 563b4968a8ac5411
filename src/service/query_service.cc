#include "service/query_service.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "graph/set_ops.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "service/workload_planner.h"
#include "store/budget_wal.h"
#include "util/cpu_features.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cne {

namespace {

// Mirrors BudgetLedger's float-drift tolerance so a check-then-commit
// admission never commits a charge the ledger would refuse.
constexpr double kBudgetTolerance = 1e-9;

// Post-process latency is clocked one query in this many: finishing a
// query (Answer(), or ViewPairFromCounts after the chunk's counts pass)
// runs ns to µs, so the stride amortizes a ~40 ns clock pair to a
// fraction of a ns per query.
constexpr size_t kPostProcessSampleStride = 512;

// Admission is clocked one query in this many (a single Admit runs in
// ~100 ns, so clocking every query would cost more than it measures).
constexpr size_t kAdmissionSampleStride = 1024;

WalRecord MakeCharge(LayeredVertex vertex, double epsilon) {
  WalRecord record;
  record.type = WalRecordType::kCharge;
  record.vertex = PackLayeredVertex(vertex);
  record.value = epsilon;
  return record;
}

WalRecord MakeAuthorized(LayeredVertex vertex) {
  WalRecord record;
  record.type = WalRecordType::kViewAuthorized;
  record.vertex = PackLayeredVertex(vertex);
  return record;
}

// Recovery regenerates views from their RNG substream. Under another
// sampler, or another rounding of the bitmap path's threshold (it comes
// from std::exp, which another libm may round differently), that would
// publish a second, different release of vertices whose answers already
// went out.
void RequireSameSampler(const std::string& path, uint32_t version,
                        uint64_t threshold, uint64_t expected_threshold) {
  std::string stamp;
  if (version != kRrSamplerVersion) {
    stamp = "by RR sampler version " + std::to_string(version) +
            ", but this binary samples with version " +
            std::to_string(kRrSamplerVersion);
  } else if (threshold != expected_threshold) {
    stamp = "with RR threshold " + std::to_string(threshold) +
            ", but this binary computes threshold " +
            std::to_string(expected_threshold);
  } else {
    return;
  }
  throw std::runtime_error(
      path + ": state was released " + stamp +
      "; regenerating its authorized views would release them again");
}

}  // namespace

const char* ServiceHealthName(ServiceHealth health) {
  switch (health) {
    case ServiceHealth::kHealthy:
      return "healthy";
    case ServiceHealth::kDegradedReadOnly:
      return "degraded-read-only";
    case ServiceHealth::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kBudget:
      return "budget";
    case RejectReason::kReadOnly:
      return "read-only";
    case RejectReason::kDurability:
      return "durability";
    case RejectReason::kServiceFailed:
      return "service-failed";
  }
  return "unknown";
}

/// Snapshot-directory paths plus the open WAL append handle and the
/// directory's exclusive lock (held for the service lifetime).
struct QueryService::Persistence {
  std::string snapshot_path;
  std::string wal_path;
  uint64_t epoch = 0;  ///< of the snapshot the current WAL extends
  int lock_fd = -1;    ///< flock on <dir>/lock; -1 until acquired
  std::unique_ptr<BudgetWal> wal;
  double last_checkpoint_seconds = 0.0;
  /// BernoulliThreshold(FlipProbability(ε1)) as this binary computes it:
  /// the stamp every snapshot config and WAL header carries.
  uint64_t rr_threshold = 0;
  /// ViewDigest of every materialized view (NoisyViewStore::set_digests).
  NoisyViewStore::Digests digests;

  ~Persistence() {
    if (lock_fd >= 0) ::close(lock_fd);  // releases the flock
  }
};

QueryService::QueryService(const BipartiteGraph& graph,
                           ServiceOptions options)
    : graph_(graph),
      options_(options),
      plan_(MakeProtocolPlan(options.algorithm, options.epsilon,
                             options.epsilon1_fraction)),
      debias_(MakeDebiasConstantsForEpsilon(plan_.epsilon1)),
      ledger_(options.lifetime_budget > 0.0 ? options.lifetime_budget
                                            : options.epsilon),
      root_(options.seed),
      store_(graph, plan_.epsilon1, root_.Fork(0), ledger_),
      noise_root_(root_.Fork(1)),
      pool_(options.num_threads),
      planner_(graph) {
  CNE_CHECK(options.epsilon > 0.0) << "epsilon must be positive";
  CNE_CHECK(options.epsilon1_fraction > 0.0 &&
            options.epsilon1_fraction < 1.0)
      << "epsilon1 fraction must lie in (0, 1)";
  InitMetrics();
  if (!options_.snapshot_dir.empty()) OpenPersistent();
}

void QueryService::InitMetrics() {
#if CNE_OBS_ENABLED
  if (options_.metrics_level == obs::MetricsLevel::kOff) return;
  c_queries_ = metrics_.GetCounter("queries_submitted");
  c_answered_ = metrics_.GetCounter("queries_answered");
  c_rejected_ = metrics_.GetCounter("queries_rejected");
  c_submits_ = metrics_.GetCounter("submits");
  c_checkpoints_ = metrics_.GetCounter("checkpoints");
  c_rejected_budget_ = metrics_.GetCounter("queries_rejected_budget");
  c_rejected_unavailable_ = metrics_.GetCounter("queries_rejected_unavailable");
  c_wal_failures_ = metrics_.GetCounter("wal_failures");
  c_submit_rollbacks_ = metrics_.GetCounter("submit_rollbacks");
  c_checkpoint_failures_ = metrics_.GetCounter("checkpoint_failures");
  c_checkpoint_retries_ = metrics_.GetCounter("checkpoint_retries");
  c_health_transitions_ = metrics_.GetCounter("health_transitions");
  g_health_ = metrics_.GetGauge("health");
  g_health_->Set(static_cast<int64_t>(health_));
  metrics_.GetGauge("threads")->Set(pool_.NumThreads());
  // Budget burn-down: per-mechanism spend counters in integer micro-ε
  // (u64 counters cannot carry doubles; 1 µε resolution is far below any
  // meaningful privacy increment) and the exhausted-vertex gauge.
  c_spend_rr_ = metrics_.GetCounter("budget_spent_rr_microeps");
  c_spend_laplace_ = metrics_.GetCounter("budget_spent_laplace_microeps");
  g_budget_exhausted_ = metrics_.GetGauge("budget_exhausted_vertices");
  if (options_.metrics_level != obs::MetricsLevel::kFull) return;
  // Register the full phase taxonomy up front so every snapshot carries
  // every phase row, zero-count phases included — schema over sparsity.
  h_admission_ = metrics_.GetHistogram("admission");
  h_wal_fsync_ = metrics_.GetHistogram("wal_fsync");
  h_release_ = metrics_.GetHistogram("release");
  h_plan_ = metrics_.GetHistogram("plan");
  h_execute_ = metrics_.GetHistogram("execute");
  h_post_process_ = metrics_.GetHistogram("post_process");
  h_checkpoint_ = metrics_.GetHistogram("checkpoint");
  store_.set_build_histogram(metrics_.GetHistogram("release_build"));
  // Tail exemplars ride the phases that already clock individual samples
  // (1-in-N admission/post-process strides, per-view builds), so the only
  // per-sample cost is one relaxed load against the reservoir floor.
  ex_admission_ = metrics_.GetExemplars("admission");
  ex_post_process_ = metrics_.GetExemplars("post_process");
  ex_release_build_ = metrics_.GetExemplars("release_build");
  store_.set_build_exemplars(ex_release_build_);
#endif
}

QueryService::~QueryService() = default;

SnapshotConfig QueryService::CurrentConfig() const {
  SnapshotConfig config;
  config.protocol_kind = static_cast<uint32_t>(options_.algorithm);
  config.epsilon = options_.epsilon;
  config.epsilon1_fraction = options_.epsilon1_fraction;
  config.alpha = plan_.alpha;
  config.seed = options_.seed;
  config.initial_lifetime_budget = options_.lifetime_budget > 0.0
                                       ? options_.lifetime_budget
                                       : options_.epsilon;
  config.current_lifetime_budget = ledger_.lifetime_budget();
  config.next_noise_stream = next_noise_stream_;
  config.num_upper = graph_.NumUpper();
  config.num_lower = graph_.NumLower();
  config.num_edges = graph_.NumEdges();
  config.rr_threshold = persist_->rr_threshold;
  return config;
}

void QueryService::OpenPersistent() {
  persist_ = std::make_unique<Persistence>();
  persist_->rr_threshold = BernoulliThreshold(FlipProbability(plan_.epsilon1));
  store_.set_digests(&persist_->digests);
  std::filesystem::create_directories(options_.snapshot_dir);
  const std::filesystem::path dir(options_.snapshot_dir);
  persist_->snapshot_path = (dir / kSnapshotFileName).string();
  persist_->wal_path = (dir / kWalFileName).string();

  // One service per snapshot directory, enforced with an flock on a
  // dedicated lock file (not on the WAL itself — checkpoints replace the
  // WAL inode, which would silently invalidate a lock held on it). Two
  // services interleaving one journal would sum their charges on replay:
  // exactly the accounting corruption this subsystem exists to prevent.
  const std::string lock_path = (dir / "lock").string();
  persist_->lock_fd = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (persist_->lock_fd < 0) {
    throw std::runtime_error("cannot open " + lock_path);
  }
  if (::flock(persist_->lock_fd, LOCK_EX | LOCK_NB) != 0) {
    throw std::runtime_error(options_.snapshot_dir +
                             ": another service holds this snapshot "
                             "directory");
  }

  Timer timer;
  std::vector<ViewRecord> checkpointed_views;
  if (FileExists(persist_->snapshot_path)) {
    const SnapshotReader reader(persist_->snapshot_path);
    ByteReader config_section = reader.Section(SectionId::kConfig);
    const SnapshotConfig saved = ReadConfigSection(config_section);
    RequireSameSampler(persist_->snapshot_path, saved.rr_sampler_version,
                       saved.rr_threshold, persist_->rr_threshold);
    const SnapshotConfig expected = CurrentConfig();
    // Restoring under different options would silently re-randomize
    // every view (different seed / ε) or mis-account budget; refuse.
    if (saved.protocol_kind != expected.protocol_kind ||
        saved.epsilon != expected.epsilon ||
        saved.epsilon1_fraction != expected.epsilon1_fraction ||
        saved.alpha != expected.alpha || saved.seed != expected.seed ||
        saved.initial_lifetime_budget != expected.initial_lifetime_budget) {
      throw std::runtime_error(persist_->snapshot_path +
                               ": snapshot was produced under different "
                               "service options");
    }
    if (saved.num_upper != expected.num_upper ||
        saved.num_lower != expected.num_lower ||
        saved.num_edges != expected.num_edges) {
      throw std::runtime_error(persist_->snapshot_path +
                               ": snapshot was produced over a different "
                               "graph");
    }
    ByteReader views_section = reader.Section(SectionId::kViews);
    checkpointed_views = store_.Restore(views_section);
    ByteReader ledger_section = reader.Section(SectionId::kLedger);
    ledger_.Deserialize(ledger_section);
    next_noise_stream_ = saved.next_noise_stream;
    persist_->epoch = reader.epoch();
    recovery_.snapshot_loaded = true;
  }

  if (FileExists(persist_->wal_path)) {
    const WalReplay replay = BudgetWal::Read(persist_->wal_path);
    if (replay.epoch == persist_->epoch) {
      RequireSameSampler(persist_->wal_path, replay.rr_sampler_version,
                         replay.rr_threshold, persist_->rr_threshold);
      for (size_t i = 0; i < replay.committed; ++i) {
        const WalRecord& record = replay.records[i];
        switch (record.type) {
          case WalRecordType::kCharge:
            ledger_.Replay(UnpackLayeredVertex(record.vertex),
                           record.value);
            break;
          case WalRecordType::kViewAuthorized:
            store_.RestoreAuthorized(record.vertex);
            break;
          case WalRecordType::kRaiseBudget:
            ledger_.RaiseLifetimeBudget(record.value);
            break;
          case WalRecordType::kSubmitSealed:
            next_noise_stream_ = record.counter;
            break;
        }
      }
      recovery_.wal_replay_records = replay.committed;
      recovery_.wal_discarded_records =
          replay.records.size() - replay.committed;
      recovery_.wal_torn_tail = replay.torn_tail;
      recovery_.wal_dropped_bytes = replay.dropped_bytes;
      // Compact: drop the torn tail and uncommitted records for good, so
      // appends continue after a clean prefix.
      if (replay.torn_tail || recovery_.wal_discarded_records > 0) {
        BudgetWal::Rewrite(
            persist_->wal_path, persist_->epoch,
            std::span<const WalRecord>(replay.records.data(),
                                       replay.committed),
            persist_->rr_threshold);
      }
    } else if (replay.epoch < persist_->epoch) {
      // A crash between snapshot rename and WAL reset: everything in this
      // log is already inside the snapshot. Start the new epoch cleanly.
      BudgetWal::Reset(persist_->wal_path, persist_->epoch,
                       persist_->rr_threshold);
    } else {
      throw std::runtime_error(persist_->wal_path +
                               ": WAL epoch is ahead of the snapshot — "
                               "the snapshot file was lost or replaced");
    }
  } else if (recovery_.snapshot_loaded) {
    // A snapshot without its journal means the WAL was lost externally:
    // every committed post-checkpoint charge would be forgotten and the
    // noise-stream counter would roll back onto already-released Laplace
    // draws. Refuse, like the symmetric snapshot-lost case.
    throw std::runtime_error(persist_->wal_path +
                             ": WAL is missing next to the snapshot — "
                             "post-checkpoint budget charges were lost");
  } else {
    BudgetWal::Reset(persist_->wal_path, persist_->epoch,
                     persist_->rr_threshold);
  }
  // One recovery path: every recorded and every WAL-authorized view is
  // regenerated from its own substream, then each checkpointed one must
  // match the release its record describes before anything is served.
  store_.MaterializeAuthorized(pool_);
  store_.VerifyRestored(checkpointed_views);
  recovery_.snapshot_load_seconds = timer.Seconds();
  persist_->wal = std::make_unique<BudgetWal>(persist_->wal_path);
}

double QueryService::Checkpoint() {
  CNE_CHECK(persistent())
      << "Checkpoint() requires ServiceOptions::snapshot_dir";
  if (health_ == ServiceHealth::kFailed) {
    throw std::runtime_error(
        "a failed service cannot checkpoint: in-memory state is not "
        "trustworthy; restart and recover from the last durable state");
  }
  const obs::TraceSpan span(h_checkpoint_, "checkpoint");
  if (c_checkpoints_ != nullptr) c_checkpoints_->Add();
  Timer timer;
  const uint64_t next_epoch = persist_->epoch + 1;

  // Snapshot commit, with bounded retries: a transient IO failure (disk
  // briefly full, a hiccuping volume) should not take the service down.
  // Commit is atomic rename-on-success, so the last good snapshot stays
  // readable across every failed attempt, and each attempt's temp file is
  // quarantined rather than silently deleted (AtomicWriteOptions in
  // snapshot_format.cc). If every attempt fails we rethrow — the current
  // health stands, because the WAL (when healthy) still journals.
  const int attempts = std::max(1, options_.checkpoint_attempts);
  for (int attempt = 0;; ++attempt) {
    try {
      SnapshotWriter writer(next_epoch);
      WriteConfigSection(CurrentConfig(),
                         writer.BeginSection(SectionId::kConfig));
      writer.EndSection();
      store_.Save(writer.BeginSection(SectionId::kViews));
      writer.EndSection();
      ledger_.Serialize(writer.BeginSection(SectionId::kLedger));
      writer.EndSection();
      writer.Commit(persist_->snapshot_path);
      break;
    } catch (const std::exception& e) {
      if (c_checkpoint_failures_ != nullptr) c_checkpoint_failures_->Add();
      if (attempt + 1 >= attempts) throw;
      if (c_checkpoint_retries_ != nullptr) c_checkpoint_retries_->Add();
      CNE_LOG(kWarning) << "checkpoint attempt " << attempt + 1 << " of "
                        << attempts << " failed (" << e.what()
                        << "); retrying";
      if (options_.checkpoint_backoff_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            options_.checkpoint_backoff_ms * static_cast<double>(1 << attempt)));
      }
    }
  }

  // The committed snapshot owns everything the old-epoch WAL recorded;
  // reset the log under the new epoch. A crash between the two steps
  // leaves a stale-epoch WAL that recovery recognizes and discards.
  try {
    BudgetWal::Reset(persist_->wal_path, next_epoch, persist_->rr_threshold);
    persist_->wal = std::make_unique<BudgetWal>(persist_->wal_path);
  } catch (const std::exception& e) {
    // The snapshot committed but the journal could not restart. Keeping
    // the old handle would append records recovery discards as stale
    // (silent budget loss), so drop it and degrade: reads keep serving,
    // new charges are refused until a later Checkpoint() re-establishes a
    // journal or the operator restarts.
    persist_->wal.reset();
    if (c_wal_failures_ != nullptr) c_wal_failures_->Add();
    EnterDegraded(std::string("WAL reset after checkpoint failed: ") +
                  e.what());
    throw;
  }
  persist_->epoch = next_epoch;

  // A fresh epoch with an empty journal makes every in-memory fact
  // durable again, and in-memory state is trustworthy in degraded mode
  // (every unsealed batch was rolled back exactly) — so a successful
  // checkpoint heals a degraded service.
  if (health_ == ServiceHealth::kDegradedReadOnly) {
    health_ = ServiceHealth::kHealthy;
    if (c_health_transitions_ != nullptr) c_health_transitions_->Add();
    if (g_health_ != nullptr) g_health_->Set(static_cast<int64_t>(health_));
    CNE_LOG(kWarning) << "service healed: checkpoint epoch " << next_epoch
                      << " re-established durability";
  }
  persist_->last_checkpoint_seconds = timer.Seconds();
  return persist_->last_checkpoint_seconds;
}

void QueryService::RaiseLifetimeBudget(double new_budget) {
  if (health_ != ServiceHealth::kHealthy) {
    throw std::runtime_error(
        std::string("a ") + ServiceHealthName(health_) +
        " service cannot raise the lifetime budget; checkpoint or restart "
        "to restore durability first");
  }
  if (persist_) {
    CNE_CHECK(persist_->wal != nullptr)
        << "healthy persistent service has no WAL handle";
    // Durable before applied: the raise is a commit barrier, and recovery
    // replays it in journal order relative to the charges around it. If
    // the sync fails the ledger is untouched (nothing to roll back) and
    // the service degrades — the record may or may not have reached disk,
    // which is the usual ambiguity of any failed commit.
    WalRecord record;
    record.type = WalRecordType::kRaiseBudget;
    record.value = new_budget;
    try {
      persist_->wal->Append(record);
      persist_->wal->Sync();
    } catch (const std::exception& e) {
      if (c_wal_failures_ != nullptr) c_wal_failures_->Add();
      EnterDegraded(std::string("WAL raise-budget barrier failed: ") +
                    e.what());
      throw;
    }
  }
  ledger_.RaiseLifetimeBudget(new_budget);
}

ServiceReport QueryService::Submit(const std::vector<QueryPair>& queries) {
  Timer timer;
  ++submit_seq_;
  ServiceReport report;
  report.answers.resize(queries.size());

  // A failed service refuses everything — its in-memory state cannot be
  // trusted, so even "free" read-only answers are off the table.
  if (health_ == ServiceHealth::kFailed) {
    for (size_t i = 0; i < queries.size(); ++i) {
      report.answers[i].query = queries[i];
      report.answers[i].rejected = true;
      report.answers[i].reason = RejectReason::kServiceFailed;
    }
    report.sealed = false;
    if (c_submits_ != nullptr) {
      c_submits_->Add();
      c_queries_->Add(queries.size());
    }
    FinalizeReport(report, timer.Seconds());
    return report;
  }

  // Trace capture scope: the installed TraceSink (if any) samples whole
  // submits; inside a sampled scope the named spans below publish trace
  // events. The scope and the submit root span are declared in this order
  // so the root span's destructor — which emits the event — runs while
  // capture is still armed. Both deflate to no-ops without a sink.
  const obs::SubmitTraceScope trace_scope(
      options_.metrics_level == obs::MetricsLevel::kFull, submit_seq_);
  const obs::TraceSpan submit_span(nullptr, "submit");

  // A batch journals only while healthy: degraded mode admits nothing
  // that needs a charge, so there is nothing to make durable.
  const bool journaling =
      persist_ != nullptr && health_ == ServiceHealth::kHealthy;
  if (journaling) {
    CNE_CHECK(persist_->wal != nullptr)
        << "healthy persistent service has no WAL handle";
  }

  std::vector<PlannedQuery> plan(queries.size());

  // Phase 1 — sequential admission in submission order. Cheap (no noise
  // is drawn) and the only phase whose outcome depends on earlier
  // queries, so running it sequentially makes accept/reject decisions —
  // and hence everything downstream — independent of thread count.
  cache_hit_lookups_ = 0;
  submit_spend_rr_ = 0.0;
  submit_spend_laplace_ = 0.0;
  if (ex_release_build_ != nullptr) store_.set_build_submit(submit_seq_);
  rollback_charges_.clear();
  rollback_authorized_.clear();
  const uint64_t noise_stream_mark = next_noise_stream_;
  const auto admit_one = [&](size_t i) {
    const QueryPair& query = queries[i];
    CNE_CHECK(query.u < graph_.NumVertices(query.layer) &&
              query.w < graph_.NumVertices(query.layer))
        << "query vertex out of range";
    plan[i].query = query;
    plan[i].reason = Admit(query);
    plan[i].admitted = plan[i].reason == RejectReason::kNone;
    // Degraded mode leaves the substream counter untouched: nothing it
    // answers draws Laplace noise, and no seal will record an advance.
    if (health_ == ServiceHealth::kHealthy) {
      plan[i].noise_stream = next_noise_stream_++;
    }
  };
  {
    const obs::TraceSpan admission_span(nullptr, "admission");
    obs::ForEachSampled(
        queries.size(), kAdmissionSampleStride, h_admission_, admit_one,
        [&](size_t i, uint64_t dt) {
          // Exemplar offer only on an already-clocked sample, and only
          // when it would displace a kept exemplar.
          if (ex_admission_ == nullptr || !ex_admission_->WouldAccept(dt)) {
            return;
          }
          obs::Exemplar e;
          e.seconds = static_cast<double>(dt) * 1e-9;
          e.submit = submit_seq_;
          e.has_query = true;
          e.layer = static_cast<uint8_t>(queries[i].layer);
          e.u = queries[i].u;
          e.w = queries[i].w;
          ex_admission_->Offer(dt, e);
        });
  }
  if (c_submits_ != nullptr) {
    c_submits_->Add();
    c_queries_->Add(queries.size());
  }

  // Write-ahead barrier: seal the admission batch and fsync ONCE before
  // any noise is sampled or any answer computed. After this line a crash
  // replays to exactly this state; before it, recovery drops the whole
  // unsealed batch — which the outside world never saw answers from. A
  // seal that fails in-process gets the same treatment as a crash: the
  // batch is rolled back exactly (no charge kept, no noise ever drawn —
  // noise only flows after this barrier) and the service degrades to
  // read-only instead of answering over a journal that never happened.
  if (journaling) {
    try {
      const obs::TraceSpan wal_span(h_wal_fsync_, "wal_fsync");
      WalRecord seal;
      seal.type = WalRecordType::kSubmitSealed;
      seal.counter = next_noise_stream_;
      persist_->wal->Append(seal);
      persist_->wal->Sync();
    } catch (const std::exception& e) {
      if (c_wal_failures_ != nullptr) c_wal_failures_->Add();
      RollbackUnsealedSubmit(noise_stream_mark, plan, report);
      EnterDegraded(std::string("WAL seal failed: ") + e.what());
      report.sealed = false;
      FinalizeReport(report, timer.Seconds());
      return report;
    }
  } else if (persist_ != nullptr) {
    // Degraded persistent service: read-only answers with no journal
    // entry — recovery neither needs nor sees this batch.
    report.sealed = false;
  }
  // Cache-hit stats flush only after the batch is known to stand, so a
  // rolled-back submission leaves the store's counters exactly as found.
  // Same for the per-mechanism spend counters: the failed-seal path
  // returned above, leaving the burn-down exactly as before the batch.
  store_.RecordCacheHits(cache_hit_lookups_);
  if (c_spend_rr_ != nullptr) {
    if (submit_spend_rr_ > 0.0) {
      c_spend_rr_->Add(
          static_cast<uint64_t>(std::llround(submit_spend_rr_ * 1e6)));
    }
    if (submit_spend_laplace_ > 0.0) {
      c_spend_laplace_->Add(
          static_cast<uint64_t>(std::llround(submit_spend_laplace_ * 1e6)));
    }
  }

  try {
    // Deterministic mid-execution fault hook: fires after the seal, so a
    // harness that catches this knows the batch is durable (and may
    // mirror it) but in-memory execution state is suspect.
    if (const fail::Injected fault = fail::Hit("service", ".execute")) {
      (void)fault;
      throw std::runtime_error("injected service.execute fault");
    }

    // Phase 2 — materialize the newly authorized noisy views in
    // parallel; each view comes from its vertex's own substream. The
    // release span is the submit-level barrier wall time; per-view build
    // latency lands in the store's release_build histogram.
    {
      const obs::TraceSpan release_span(h_release_, "release");
      store_.MaterializeAuthorized(pool_);
    }

    // Phase 3 — answer every admitted query.
    Execute(queries, plan, report);
  } catch (const std::exception& e) {
    // Past the seal there is no rollback: views may be half
    // materialized, answers half computed. The durable state is fine —
    // a restart recovers it — but this process must stop serving.
    if (health_ != ServiceHealth::kFailed) {
      health_ = ServiceHealth::kFailed;
      if (c_health_transitions_ != nullptr) c_health_transitions_->Add();
      if (g_health_ != nullptr) g_health_->Set(static_cast<int64_t>(health_));
      CNE_LOG(kWarning) << "service failed mid-execution: " << e.what()
                        << "; restart to recover from durable state";
    }
    throw;
  }

  FinalizeReport(report, timer.Seconds());
  return report;
}

void QueryService::RollbackUnsealedSubmit(
    uint64_t noise_stream_mark, const std::vector<PlannedQuery>& plan,
    ServiceReport& report) {
  // Reverse order, exact values: a vertex charged twice in this batch
  // (ε1 then ε2) steps back through its intermediate spend to the
  // original, and restored doubles are the recorded priors — no refund
  // subtraction that could drift.
  for (size_t i = rollback_authorized_.size(); i-- > 0;) {
    store_.RevokeAuthorized(rollback_authorized_[i]);
  }
  for (size_t i = rollback_charges_.size(); i-- > 0;) {
    ledger_.RestoreSpent(rollback_charges_[i].first,
                         rollback_charges_[i].second);
  }
  next_noise_stream_ = noise_stream_mark;
  if (c_submit_rollbacks_ != nullptr) c_submit_rollbacks_->Add();
  for (size_t i = 0; i < plan.size(); ++i) {
    ServiceAnswer& answer = report.answers[i];
    answer.query = plan[i].query;
    answer.estimate = 0.0;
    answer.rejected = true;
    answer.reason = RejectReason::kDurability;
  }
}

void QueryService::EnterDegraded(const std::string& why) {
  if (health_ != ServiceHealth::kHealthy) return;
  health_ = ServiceHealth::kDegradedReadOnly;
  if (c_health_transitions_ != nullptr) c_health_transitions_->Add();
  if (g_health_ != nullptr) g_health_->Set(static_cast<int64_t>(health_));
  CNE_LOG(kWarning) << "service degraded to read-only: " << why;
}

void QueryService::FinalizeReport(ServiceReport& report, double seconds) {
  for (const ServiceAnswer& answer : report.answers) {
    if (answer.rejected) {
      ++report.rejected;
      if (answer.reason == RejectReason::kBudget) {
        ++report.rejected_budget;
      } else {
        ++report.rejected_unavailable;
      }
    } else {
      ++report.answered;
    }
  }
  if (c_answered_ != nullptr) {
    c_answered_->Add(report.answered);
    c_rejected_->Add(report.rejected);
  }
  if (c_rejected_budget_ != nullptr) {
    c_rejected_budget_->Add(report.rejected_budget);
    c_rejected_unavailable_->Add(report.rejected_unavailable);
  }
  report.seconds = seconds;
  report.health = health_;
  report.store = store_.stats();
  report.budget_vertices_charged = ledger_.NumChargedVertices();
  report.budget_total_spent = ledger_.TotalSpent();
  report.budget_min_remaining = ledger_.MinRemaining();
  if (g_budget_exhausted_ != nullptr) {
    g_budget_exhausted_->Set(static_cast<int64_t>(ledger_.NumExhausted()));
  }
  report.snapshot_load_seconds = recovery_.snapshot_load_seconds;
  report.wal_replay_records = recovery_.wal_replay_records;
  if (persist_) {
    report.checkpoint_seconds = persist_->last_checkpoint_seconds;
  }
  // report.metrics is deliberately NOT filled here: a registry snapshot
  // is O(buckets + names) of allocation and scanning, and at post-SIMD
  // submit speeds (~60 ns/query) paying it per batch busts the < 5%
  // observability budget on its own. Callers that want the cumulative
  // snapshot pull it with SnapshotMetrics() at their own cadence.
}

obs::MetricsSnapshot QueryService::SnapshotMetrics() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
#if CNE_OBS_ENABLED
  if (options_.metrics_level == obs::MetricsLevel::kOff) return snapshot;
  // Budget burn-down: one sharded ledger walk plus the per-mechanism
  // counters. This runs at snapshot cadence, never per submit.
  const BudgetLedgerTelemetry t = ledger_.GetTelemetry();
  obs::BudgetBurnDown& budget = snapshot.budget;
  budget.present = true;
  budget.lifetime_budget = t.lifetime_budget;
  budget.charged_vertices = t.charged_vertices;
  budget.exhausted_vertices = t.exhausted_vertices;
  budget.total_spent = t.total_spent;
  budget.min_remaining = t.min_remaining;
  budget.sum_remaining = t.sum_remaining;
  budget.residual_histogram = t.residual_histogram;
  if (c_spend_rr_ != nullptr) {
    budget.spent_rr = static_cast<double>(c_spend_rr_->Value()) * 1e-6;
    budget.spent_laplace =
        static_cast<double>(c_spend_laplace_->Value()) * 1e-6;
  }
  // Projection: at the observed mean ε burn per submit, how many more
  // submits until the charged population's remaining budget is gone. A
  // cache-dominated steady state burns ~0 per submit, so the projection
  // legitimately grows without bound; -1 means no spend observed at all.
  const uint64_t submits = snapshot.CounterValue("submits");
  if (submits > 0 && t.total_spent > 0.0) {
    const double per_submit = t.total_spent / static_cast<double>(submits);
    budget.projected_submits_to_exhaustion = t.sum_remaining / per_submit;
  }
#endif
  return snapshot;
}

void QueryService::Execute(const std::vector<QueryPair>& queries,
                           const std::vector<PlannedQuery>& plan,
                           ServiceReport& report) {
  Timer plan_timer;
  const WorkloadPlan* planned = nullptr;
  {
    const obs::TraceSpan plan_span(h_plan_, "plan");
    admitted_.clear();
    for (size_t i = 0; i < plan.size(); ++i) {
      ServiceAnswer& answer = report.answers[i];
      answer.query = plan[i].query;
      if (plan[i].admitted) {
        admitted_.push_back(static_cast<uint32_t>(i));
        continue;
      }
      answer.rejected = true;
      answer.reason = plan[i].reason;
    }
    planned = &planner_.Plan(queries, admitted_);
  }
  const WorkloadPlan& workload = *planned;
  report.planner_seconds = plan_timer.Seconds();
  report.groups_formed = workload.groups.size();
  report.avg_group_size = workload.AvgGroupSize();

  // Workers claim whole groups; every slot is written by exactly one
  // query, so the chunks run freely in parallel. Groups are laid out
  // contiguously in `order`, so a chunk of groups is one range of slots.
  // Naive/OneR answer from one count per query: a chunk counts all its
  // view × view intersections in one blocked pass (BitmapAndCounts — word
  // slices that stay in L2, four partners per load of a group's source)
  // and then finishes each query from its count. The MultiR family
  // intersects true lists with views and answers query by query.
  // One execute span per worker chunk, not per group: a group runs in a
  // few µs, so per-group spans would spend a measurable share of the
  // execute phase measuring it. The histogram's quantiles describe chunk
  // latencies; per-query tail latency lives in post_process.
  // The main-thread wrapper spans the whole fan-out for the trace (its
  // duration is the execute phase's wall time); worker chunks emit their
  // own "execute_chunk" events on their own threads, which the trace
  // renders as separate tid tracks.
  const obs::TraceSpan execute_wrapper(nullptr, "execute");
  const bool view_pairs = plan_.NumLaplaceReleases() == 0;  // Naive, OneR
  pool_.ParallelFor(
      workload.groups.size(), [&](size_t begin, size_t end) {
        const obs::TraceSpan execute_span(h_execute_, "execute_chunk");
        const uint32_t first = workload.groups[begin].begin;
        const std::span<const uint32_t> slots =
            std::span<const uint32_t>(workload.order)
                .subspan(first, workload.groups[end - 1].end - first);
        const auto offer = [&](size_t i, uint64_t dt) {
          OfferPostProcessExemplar(plan[slots[i]].query, dt);
        };
        if (!view_pairs) {
          obs::ForEachSampled(
              slots.size(), kPostProcessSampleStride, h_post_process_,
              [&](size_t i) {
                report.answers[slots[i]].estimate = Answer(plan[slots[i]]);
              },
              offer);
          return;
        }
        // Each query pairs its group's source view with its other
        // endpoint's (the source itself for u = w).
        std::vector<BitmapPair> pairs(slots.size());
        std::vector<uint64_t> counts(slots.size());
        for (size_t g = begin; g < end; ++g) {
          const QueryGroup& group = workload.groups[g];
          const DenseBitset* source =
              &store_.View(group.source).View().bitmap();
          for (uint32_t k = group.begin; k < group.end; ++k) {
            const QueryPair& query = plan[workload.order[k]].query;
            const VertexId partner =
                query.u == group.source.id ? query.w : query.u;
            pairs[k - first] = {
                source, &store_.View({query.layer, partner}).View().bitmap()};
          }
        }
        BitmapAndCounts(pairs, counts);
        obs::ForEachSampled(
            slots.size(), kPostProcessSampleStride, h_post_process_,
            [&](size_t i) {
              const QueryPair& query = plan[slots[i]].query;
              report.answers[slots[i]].estimate = ViewPairFromCounts(
                  plan_, debias_, counts[i],
                  store_.View({query.layer, query.u}).Size(),
                  store_.View({query.layer, query.w}).Size(),
                  graph_.NumVertices(Opposite(query.layer)));
            },
            offer);
      });
}

void QueryService::OfferPostProcessExemplar(const QueryPair& query,
                                            uint64_t nanos) const {
  if (ex_post_process_ == nullptr || !ex_post_process_->WouldAccept(nanos)) {
    return;
  }
  // The operands of the query's first intersection (core/
  // protocol_pipeline.h): w's view against u's view for Naive/OneR, and
  // against u's true neighbor list for the MultiR family.
  const LayeredVertex u{query.layer, query.u};
  const LayeredVertex w{query.layer, query.w};
  const SetView a = plan_.LaplaceFromU()
                        ? SetView::Sorted(graph_.Neighbors(u))
                        : store_.View(u).View();
  const SetView b = store_.View(w).View();
  obs::Exemplar e;
  e.seconds = static_cast<double>(nanos) * 1e-9;
  e.submit = submit_seq_;
  e.has_query = true;
  e.layer = static_cast<uint8_t>(query.layer);
  e.u = query.u;
  e.w = query.w;
  e.kernel = DispatchedKernelName(a, b);
  e.repr_u = a.IsBitmap() ? "bitmap" : "sorted";
  e.size_u = a.Size();
  e.repr_w = b.IsBitmap() ? "bitmap" : "sorted";
  e.size_w = b.Size();
  e.simd = SimdLevelName(ActiveSimdLevel());
  ex_post_process_->Offer(nanos, e);
}

RejectReason QueryService::Admit(const QueryPair& query) {
  const LayeredVertex u{query.layer, query.u};
  const LayeredVertex w{query.layer, query.w};
  const bool same = query.u == query.w;

  // Which mechanisms does this query run? RR releases are needed only
  // for vertices without a stored view; Laplace releases recur per query.
  const bool rr_u = plan_.UsesNoisyViewU();
  const bool rr_w = plan_.UsesNoisyViewW();
  const bool lap_u = plan_.LaplaceFromU();
  const bool lap_w = plan_.LaplaceFromW();

  const bool rr_u_needed = rr_u && !store_.Contains(u);
  const bool rr_w_needed =
      rr_w && !(same && rr_u) && !store_.Contains(w);

  // Merge the query's charges per distinct vertex, then test them against
  // the residual budgets before committing anything: either the whole
  // query is affordable or nothing is charged.
  std::array<std::pair<LayeredVertex, double>, 2> needs;
  size_t num_needs = 0;
  const auto add = [&](LayeredVertex v, double epsilon) {
    for (size_t i = 0; i < num_needs; ++i) {
      if (needs[i].first == v) {
        needs[i].second += epsilon;
        return;
      }
    }
    needs[num_needs++] = {v, epsilon};
  };
  if (rr_u_needed) add(u, plan_.epsilon1);
  if (rr_w_needed) add(w, plan_.epsilon1);
  if (lap_u) add(u, plan_.epsilon2);
  if (lap_w) add(w, plan_.epsilon2);

  // Read-only gate before the budget gate: a degraded service cannot make
  // a new charge durable, so affordability is moot. Zero-charge queries —
  // pure post-processing of views that are already public — pass through
  // and still answer.
  if (health_ == ServiceHealth::kDegradedReadOnly && num_needs > 0) {
    return RejectReason::kReadOnly;
  }

  for (size_t i = 0; i < num_needs; ++i) {
    if (needs[i].second > ledger_.Remaining(needs[i].first) +
                              kBudgetTolerance) {
      return RejectReason::kBudget;
    }
  }

  // Commit, journaling every decision (buffered; the submit-level seal
  // fsyncs them before anything acts on the admission). Each mutation's
  // prior state is recorded first so a failed seal can undo the batch
  // exactly (RollbackUnsealedSubmit).
  const bool journal = persist_ != nullptr && health_ == ServiceHealth::kHealthy;
  if (rr_u_needed) {
    if (journal) {
      rollback_charges_.emplace_back(u, ledger_.Spent(u));
      rollback_authorized_.push_back(u);
    }
    CNE_CHECK(store_.Authorize(u) == NoisyViewStore::Admission::kAuthorized);
    if (c_spend_rr_ != nullptr) submit_spend_rr_ += plan_.epsilon1;
    if (journal) {
      persist_->wal->Append(MakeAuthorized(u));
      persist_->wal->Append(MakeCharge(u, plan_.epsilon1));
    }
  } else if (rr_u) {
    ++cache_hit_lookups_;  // recorded in bulk after the admission pass
  }
  if (rr_w_needed) {
    if (journal) {
      rollback_charges_.emplace_back(w, ledger_.Spent(w));
      rollback_authorized_.push_back(w);
    }
    CNE_CHECK(store_.Authorize(w) == NoisyViewStore::Admission::kAuthorized);
    if (c_spend_rr_ != nullptr) submit_spend_rr_ += plan_.epsilon1;
    if (journal) {
      persist_->wal->Append(MakeAuthorized(w));
      persist_->wal->Append(MakeCharge(w, plan_.epsilon1));
    }
  } else if (rr_w && !(same && rr_u)) {
    ++cache_hit_lookups_;  // Contains(w) held above: a pure cache hit
  }
  if (lap_u) {
    if (journal) rollback_charges_.emplace_back(u, ledger_.Spent(u));
    CNE_CHECK(ledger_.TryCharge(u, plan_.epsilon2));
    if (c_spend_laplace_ != nullptr) submit_spend_laplace_ += plan_.epsilon2;
    if (journal) persist_->wal->Append(MakeCharge(u, plan_.epsilon2));
  }
  if (lap_w) {
    if (journal) rollback_charges_.emplace_back(w, ledger_.Spent(w));
    CNE_CHECK(ledger_.TryCharge(w, plan_.epsilon2));
    if (c_spend_laplace_ != nullptr) submit_spend_laplace_ += plan_.epsilon2;
    if (journal) persist_->wal->Append(MakeCharge(w, plan_.epsilon2));
  }
  return RejectReason::kNone;
}

double QueryService::Answer(const PlannedQuery& planned) const {
  const QueryPair& query = planned.query;
  const LayeredVertex u{query.layer, query.u};
  const LayeredVertex w{query.layer, query.w};

  ReleasedInputs inputs;
  if (plan_.UsesNoisyViewU()) inputs.view_u = &store_.View(u);
  inputs.view_w = &store_.View(w);
  inputs.neighbors_u = graph_.Neighbors(u);
  if (plan_.LaplaceFromW()) inputs.neighbors_w = graph_.Neighbors(w);
  inputs.opposite_size = graph_.NumVertices(Opposite(query.layer));
  Rng rng = noise_root_.Fork(planned.noise_stream);
  return PostProcess(plan_, debias_, inputs, rng);
}

}  // namespace cne

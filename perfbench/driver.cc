// Closed-loop workload driver of the repository benchmark.
//
// perfbench/run.py builds this binary and runs it once per benchmark run;
// the driver writes one JSON document of raw measurements (--out) and the
// Python side turns them into the reported metrics. One client thread
// issues Submit batches back to back (Submit is single-caller by
// contract); the service pool uses every core the process may run on but
// one.
//
// Workloads (--workload):
//   hub_release    OneR at ε=1 on the 1.2M-draw BX-shaped graph. Every
//                  session is a fresh service answering 64 batches of 16
//                  hub × low-degree pairs of never-released vertices, so
//                  every lookup misses the view store and the RR release
//                  dominates.
//   hot_set_read   OneR at ε=2 on the 10⁷-draw graph. The 256 highest-
//                  degree upper vertices are released during setup; timed
//                  batches of 16384 random hot pairs (about 30 ms each, so
//                  one preempted pool thread cannot double a submit) then
//                  always hit the store.
//   durable_mixed  MultiR-DS with a snapshot directory on the 1.2M-draw
//                  graph, lifetime budget 9 (ε1 = 1 once, ε2 = 1 per
//                  query: eight queries per vertex). Zipf-by-degree-rank
//                  queries give fresh releases, cache hits and budget
//                  refusals; one WAL fsync per submit, a Checkpoint every
//                  4 submits, and a reopen of the service after every
//                  26-submit session that times recovery.
//
// Sessions of one run draw fresh queries from their own substream of the
// seed; mae, eps_per_answer and answered_share cover the first three
// sessions (durable_mixed: four; hot_set_read: the first batch),
// so they depend on the seed alone.
//
// Phases of one run:
//   1. fill the edge cache and do one untimed build (page cache, allocator);
//   2. set up kSetups times — graph build from the cache,
//      service open, warm-up releases — and keep the last setup;
//   3. the timed window: closed-loop operations for --seconds, extended to
//      the end of the running session;
//   4. correctness outside timing: answers byte-identical to a 1-thread
//      service, signed errors against exact C2, and for durable_mixed the
//      recovered-vs-uninterrupted ledger and probe answers;
//   5. with --trace=1, a second setup and window at metrics level full
//      with a TraceSink installed, plus timed replays of each layer's
//      public function on the window's own inputs.

#include <sys/resource.h>
#include <sys/vfs.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protocol_pipeline.h"
#include "eval/datasets.h"
#include "graph/set_ops.h"
#include "graph/synthetic.h"
#include "ldp/budget_ledger.h"
#include "ldp/randomized_response.h"
#include "obs/trace_export.h"
#include "service/query_service.h"
#include "store/budget_wal.h"
#include "store/snapshot_format.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/failpoint.h"
#include "util/logging.h"

using namespace cne;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- benchmark-side spans ------------------------------------------------

/// Spans the benchmark records around every public call it makes, kept in
/// memory and written out with the results.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double seconds = 0.0;
    int parent = -1;
  };

  /// RAII span; nests under the innermost open span.
  class Span {
   public:
    Span(SpanLog& log, std::string name) : log_(log) {
      index_ = static_cast<int>(log_.records_.size());
      log_.records_.push_back(
          {std::move(name), SecondsSince(log_.origin_), 0.0, log_.open_});
      log_.open_ = index_;
      start_ = Clock::now();
    }
    ~Span() {
      log_.records_[index_].seconds = SecondsSince(start_);
      log_.open_ = log_.records_[index_].parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    double Seconds() const { return SecondsSince(start_); }

   private:
    SpanLog& log_;
    int index_ = 0;
    Clock::time_point start_;
  };

  const std::vector<Record>& records() const { return records_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> records_;
  int open_ = -1;
};

// ---- minimal JSON writer ---------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

/// Ordered key/value object; values are pre-rendered JSON.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& Add(const std::string& key, double v) { return Add(key, Num(v)); }
  JsonObject& Add(const std::string& key, uint64_t v) {
    return Add(key, std::to_string(v));
  }
  JsonObject& Add(const std::string& key, int v) {
    return Add(key, std::to_string(v));
  }
  JsonObject& AddBool(const std::string& key, bool v) {
    return Add(key, std::string(v ? "true" : "false"));
  }
  JsonObject& AddStr(const std::string& key, const std::string& v) {
    return Add(key, Str(v));
  }
  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ", ";
      out += Str(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- run context -----------------------------------------------------------

int AffinityCores() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) return CPU_COUNT(&mask);
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// Filesystem type of `path` (fsync cost depends on it).
std::string FilesystemName(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794c7630:
      return "overlay";
    case 0x9123683E:
      return "btrfs";
    case 0x6969:
      return "nfs";
    case 0x2fc12fc1:
      return "zfs";
    case 0x65735546:
      return "fuse";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(fs.f_type));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- workloads -------------------------------------------------------------

struct WorkloadConfig {
  std::string name;
  uint64_t draws = 0;
  ServiceAlgorithm algorithm = ServiceAlgorithm::kOneR;
  double epsilon = 1.0;
  double lifetime_budget = 0.0;  ///< 0: equal to epsilon
  bool persistent = false;
  /// Submits per service lifetime; 0 keeps one service for the window.
  size_t session_submits = 0;
  size_t checkpoint_every = 0;  ///< 0: never
  size_t check_submits = 0;     ///< 1-thread identity prefix
  /// Submits at the start of the window whose answers feed mae,
  /// eps_per_answer and answered_share: whole sessions, so that these
  /// depend on the seed alone.
  size_t accuracy_submits = 0;
};

/// Timed setups per run; setup_s is their median.
constexpr int kSetups = 5;

/// Upper-layer vertices ordered by degree, highest first (ties by id).
std::vector<VertexId> UpperByDegree(const BipartiteGraph& g) {
  std::vector<VertexId> order(g.NumUpper());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g.Degree(Layer::kUpper, a) > g.Degree(Layer::kUpper, b);
  });
  return order;
}

void Shuffle(std::vector<VertexId>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.UniformInt(i)]);
  }
}

/// The query stream of one workload: batch k of the current session, the
/// warm-up batches submitted during setup, and a probe batch for recovery
/// checks. Session s draws its batches from its own substream of the seed.
class QueryStream {
 public:
  virtual ~QueryStream() = default;
  virtual void StartSession(size_t session) = 0;
  virtual const std::vector<QueryPair>& Batch(size_t k) = 0;
  virtual std::vector<std::vector<QueryPair>> Warmup() const { return {}; }
  virtual std::vector<QueryPair> Probe() const { return {}; }
};

/// Fresh hub × low-degree pairs: a session pairs 1024 of the 2048
/// highest-degree upper vertices with 1024 of the lowest-degree ones, in 64
/// batches of 16.
class HubReleaseStream : public QueryStream {
 public:
  static constexpr size_t kBatch = 16;
  static constexpr size_t kBatches = 64;

  HubReleaseStream(const BipartiteGraph& g, uint64_t seed)
      : rng_(Rng(seed).Fork(11)) {
    const std::vector<VertexId> order = UpperByDegree(g);
    hubs_.assign(order.begin(), order.begin() + 2048);
    for (size_t i = order.size(); i-- > 0 && lows_.size() < 8192;) {
      if (g.Degree(Layer::kUpper, order[i]) > 0) lows_.push_back(order[i]);
    }
  }
  void StartSession(size_t session) override {
    Rng rng = rng_.Fork(session);
    std::vector<VertexId> hubs = hubs_, lows = lows_;
    Shuffle(hubs, rng);
    Shuffle(lows, rng);
    batches_.clear();
    for (size_t b = 0; b < kBatches; ++b) {
      std::vector<QueryPair> batch;
      for (size_t i = 0; i < kBatch; ++i) {
        const size_t q = b * kBatch + i;
        batch.push_back({Layer::kUpper, hubs[q], lows[q]});
      }
      batches_.push_back(std::move(batch));
    }
  }
  const std::vector<QueryPair>& Batch(size_t k) override {
    return batches_[k];
  }

 private:
  const Rng rng_;
  std::vector<VertexId> hubs_, lows_;
  std::vector<std::vector<QueryPair>> batches_;
};

/// Random pairs of the 256 highest-degree upper vertices, batches of 16384,
/// all in one session.
class HotSetStream : public QueryStream {
 public:
  static constexpr size_t kHot = 256;
  static constexpr size_t kBatch = 16384;

  HotSetStream(const BipartiteGraph& g, uint64_t seed)
      : rng_(Rng(seed).Fork(12)) {
    const std::vector<VertexId> order = UpperByDegree(g);
    hot_.assign(order.begin(), order.begin() + kHot);
  }
  void StartSession(size_t) override {}
  const std::vector<QueryPair>& Batch(size_t k) override {
    Rng rng = rng_.Fork(k);
    batch_.clear();
    for (size_t i = 0; i < kBatch; ++i) {
      const size_t a = rng.UniformInt(kHot);
      size_t b = rng.UniformInt(kHot - 1);
      if (b >= a) ++b;
      batch_.push_back({Layer::kUpper, hot_[a], hot_[b]});
    }
    return batch_;
  }
  std::vector<std::vector<QueryPair>> Warmup() const override {
    std::vector<QueryPair> batch;
    for (size_t i = 0; i + 1 < kHot; i += 2) {
      batch.push_back({Layer::kUpper, hot_[i], hot_[i + 1]});
    }
    return {batch};
  }

 private:
  const Rng rng_;
  std::vector<VertexId> hot_;
  std::vector<QueryPair> batch_;
};

/// Zipf(1.1) over upper vertices ranked by degree: sessions of 26 batches
/// of 32 pairs, and a 16-pair probe batch.
class DurableMixedStream : public QueryStream {
 public:
  static constexpr size_t kBatch = 32;
  static constexpr size_t kBatches = 26;
  static constexpr double kExponent = 1.1;

  DurableMixedStream(const BipartiteGraph& g, uint64_t seed)
      : rng_(Rng(seed).Fork(13)), order_(UpperByDegree(g)) {
    cdf_.resize(order_.size());
    double total = 0.0;
    for (size_t r = 0; r < order_.size(); ++r) {
      total += std::pow(static_cast<double>(r + 1), -kExponent);
      cdf_[r] = total;
    }
  }
  void StartSession(size_t session) override {
    Rng rng = rng_.Fork(2 * session);
    batches_.clear();
    for (size_t b = 0; b < kBatches; ++b) batches_.push_back(Draw(kBatch, rng));
    Rng probe_rng = rng_.Fork(2 * session + 1);
    probe_ = Draw(16, probe_rng);
  }
  const std::vector<QueryPair>& Batch(size_t k) override {
    return batches_[k];
  }
  std::vector<QueryPair> Probe() const override { return probe_; }

 private:
  VertexId DrawVertex(Rng& rng) const {
    const double x = rng.NextDouble() * cdf_.back();
    const size_t r = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
    return order_[std::min(r, order_.size() - 1)];
  }
  std::vector<QueryPair> Draw(size_t n, Rng& rng) const {
    std::vector<QueryPair> out;
    while (out.size() < n) {
      const VertexId u = DrawVertex(rng);
      const VertexId w = DrawVertex(rng);
      if (u != w) out.push_back({Layer::kUpper, u, w});
    }
    return out;
  }

  const Rng rng_;
  std::vector<VertexId> order_;
  std::vector<double> cdf_;
  std::vector<std::vector<QueryPair>> batches_;
  std::vector<QueryPair> probe_;
};

bool MakeConfig(const std::string& name, WorkloadConfig& config) {
  config.name = name;
  if (name == "hub_release") {
    config.draws = 1'200'000;
    config.algorithm = ServiceAlgorithm::kOneR;
    config.epsilon = 1.0;
    config.session_submits = HubReleaseStream::kBatches;
    config.check_submits = 4;
    config.accuracy_submits = 3 * HubReleaseStream::kBatches;
    return true;
  }
  if (name == "hot_set_read") {
    config.draws = 10'000'000;
    config.algorithm = ServiceAlgorithm::kOneR;
    config.epsilon = 2.0;
    config.check_submits = 2;
    config.accuracy_submits = 1;
    return true;
  }
  if (name == "durable_mixed") {
    config.draws = 1'200'000;
    config.algorithm = ServiceAlgorithm::kMultiRDS;
    config.epsilon = 2.0;
    config.lifetime_budget = 9.0;
    config.persistent = true;
    config.session_submits = DurableMixedStream::kBatches;
    config.checkpoint_every = 4;
    config.check_submits = 4;
    config.accuracy_submits = 4 * DurableMixedStream::kBatches;
    return true;
  }
  return false;
}

std::unique_ptr<QueryStream> MakeStream(const std::string& name,
                                        const BipartiteGraph& g,
                                        uint64_t seed) {
  if (name == "hub_release") return std::make_unique<HubReleaseStream>(g, seed);
  if (name == "hot_set_read") return std::make_unique<HotSetStream>(g, seed);
  return std::make_unique<DurableMixedStream>(g, seed);
}

SyntheticSpec GraphSpec(uint64_t draws) {
  // The Table 2 BX (Bookcrossing) shape with the repository's BX seed; the
  // graph is fixed per workload and --seed varies the queries and noise.
  const auto bx = FindDataset("BX");
  CNE_CHECK(bx.has_value());
  return ScaledShapeSpec(bx->gen_upper, bx->gen_lower, bx->gen_edges, draws,
                         2.1, 107);
}

// ---- answer bookkeeping ----------------------------------------------------

bool SameAnswer(const ServiceAnswer& a, const ServiceAnswer& b) {
  return a.query.layer == b.query.layer && a.query.u == b.query.u &&
         a.query.w == b.query.w && a.rejected == b.rejected &&
         a.reason == b.reason &&
         (a.rejected || std::bit_cast<uint64_t>(a.estimate) ==
                            std::bit_cast<uint64_t>(b.estimate));
}

/// Counts answers that differ between two answer lists; each answer one
/// list has beyond the other counts as a difference.
uint64_t CountMismatches(const std::vector<ServiceAnswer>& a,
                         const std::vector<ServiceAnswer>& b) {
  uint64_t bad = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (!SameAnswer(a[i], b[i])) ++bad;
  }
  return bad;
}

bool SameLedger(const std::vector<VertexBudget>& a,
                const std::vector<VertexBudget>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].vertex == b[i].vertex) || a[i].spent != b[i].spent) return false;
  }
  return true;
}

/// Exact C2(u, w) computed by the benchmark itself: a plain merge, or a
/// word-AND over cached adjacency bitsets for high-degree vertices.
class ExactCommon {
 public:
  explicit ExactCommon(const BipartiteGraph& g) : g_(g) {}

  uint64_t Count(Layer layer, VertexId a, VertexId b) {
    const auto na = g_.Neighbors(layer, a);
    const auto nb = g_.Neighbors(layer, b);
    const std::vector<uint64_t>* ba =
        na.size() >= kDense ? &Bits(layer, a) : nullptr;
    const std::vector<uint64_t>* bb =
        nb.size() >= kDense ? &Bits(layer, b) : nullptr;
    uint64_t count = 0;
    if (ba != nullptr && bb != nullptr) {
      for (size_t i = 0; i < ba->size(); ++i) {
        count += static_cast<uint64_t>(std::popcount((*ba)[i] & (*bb)[i]));
      }
    } else if (ba != nullptr || bb != nullptr) {
      const std::vector<uint64_t>& bits = ba != nullptr ? *ba : *bb;
      for (VertexId v : ba != nullptr ? nb : na) {
        count += (bits[v >> 6] >> (v & 63)) & 1;
      }
    } else {
      size_t i = 0, j = 0;
      while (i < na.size() && j < nb.size()) {
        if (na[i] < nb[j]) {
          ++i;
        } else if (nb[j] < na[i]) {
          ++j;
        } else {
          ++count, ++i, ++j;
        }
      }
    }
    return count;
  }

 private:
  static constexpr size_t kDense = 4096;

  const std::vector<uint64_t>& Bits(Layer layer, VertexId v) {
    auto [it, inserted] = bits_.try_emplace(PackLayeredVertex({layer, v}));
    if (inserted) {
      it->second.assign((g_.NumVertices(Opposite(layer)) + 63) / 64, 0);
      for (VertexId x : g_.Neighbors(layer, v)) {
        it->second[x >> 6] |= uint64_t{1} << (x & 63);
      }
    }
    return it->second;
  }

  const BipartiteGraph& g_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> bits_;
};

// ---- the runner ------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Per-phase histogram sums over a window (metrics level full only).
struct PhaseTotals {
  std::map<std::string, std::pair<double, uint64_t>> sums;  ///< (s, count)

  void Add(const obs::MetricsSnapshot& m, double sign) {
    for (const obs::PhaseStats& p : m.phases) {
      auto& [seconds, count] = sums[p.name];
      seconds += sign * p.total_seconds;
      count = sign > 0 ? count + p.count : count - p.count;
    }
  }
};

/// Everything one timed window measured.
struct WindowResult {
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< Σ op latency: the qps denominator
  uint64_t submitted = 0, answered = 0, rejected_budget = 0,
           rejected_other = 0;
  uint64_t sessions = 0;
  uint64_t lookups = 0, cache_hits = 0, releases = 0, uploaded_edges = 0;
  std::vector<double> checkpoint_s, checkpoint_mb;
  std::vector<double> recovery_s, recovery_wal_records;
  std::string last_snapshot;
  PhaseTotals phases;
  std::map<std::string, uint64_t> kernel_pairs;  ///< traced window only
  uint64_t set_op_pairs = 0;
};

class Runner {
 public:
  Runner(WorkloadConfig config, uint64_t seed, int threads,
         std::string cache_dir, std::string work_dir)
      : config_(std::move(config)),
        seed_(seed),
        threads_(threads),
        cache_dir_(std::move(cache_dir)),
        work_dir_(std::move(work_dir)),
        spec_(GraphSpec(config_.draws)) {}

  int Run(double seconds, bool trace, const std::string& out_path);

 private:
  ServiceOptions Options(int threads, obs::MetricsLevel level,
                         const std::string& snapshot_dir) const {
    ServiceOptions o;
    o.algorithm = config_.algorithm;
    o.epsilon = config_.epsilon;
    o.lifetime_budget = config_.lifetime_budget;
    o.num_threads = threads;
    o.seed = seed_ * 0x9e3779b97f4a7c15ULL + 1;
    o.snapshot_dir = snapshot_dir;
    o.metrics_level = level;
    o.checkpoint_backoff_ms = 0.0;
    return o;
  }

  std::string FreshDir(const std::string& leaf) const {
    const std::filesystem::path dir = std::filesystem::path(work_dir_) / leaf;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  }

  std::unique_ptr<QueryService> Open(obs::MetricsLevel level,
                                     const std::string& leaf) {
    const SpanLog::Span span(spans_, "QueryService");
    const std::string dir = config_.persistent ? FreshDir(leaf) : "";
    return std::make_unique<QueryService>(*graph_, Options(threads_, level, dir));
  }

  /// Graph build from the (already filled) edge cache, service open and
  /// warm-up; returns the setup seconds.
  double Setup(obs::MetricsLevel level) {
    service_.reset();
    graph_.reset();
    const SpanLog::Span setup(spans_, "setup");
    {
      const SpanLog::Span span(spans_, "BuildSyntheticGraph");
      graph_ = std::make_unique<BipartiteGraph>(
          BuildSyntheticGraph(spec_, cache_dir_));
      csr_build_s_.push_back(span.Seconds());
    }
    stream_ = MakeStream(config_.name, *graph_, seed_);
    service_ = Open(level, "session-0");
    for (const auto& batch : stream_->Warmup()) {
      const SpanLog::Span span(spans_, "Submit");
      service_->Submit(batch);
    }
    return setup.Seconds();
  }

  WindowResult Window(double seconds, bool traced);
  /// Adds (sign > 0) or subtracts the open service's store counters and,
  /// when traced, its phase histograms.
  void AddServiceTotals(WindowResult& w, bool traced, double sign) const;
  void EndSession(WindowResult& w, bool traced, size_t session);
  void CountKernels(const ServiceReport& report, WindowResult& w) const;
  JsonObject Replays();
  std::vector<Check> Correctness(const WindowResult& w, JsonObject& accuracy);

  const WorkloadConfig config_;
  const uint64_t seed_;
  const int threads_;
  const std::string cache_dir_;
  const std::string work_dir_;
  const SyntheticSpec spec_;

  SpanLog spans_;
  std::vector<double> csr_build_s_;
  std::unique_ptr<BipartiteGraph> graph_;
  std::unique_ptr<QueryStream> stream_;
  std::unique_ptr<QueryService> service_;

  // Record of the window being run: the answers of its first submits, the
  // ε those sessions spent, and the first session's answers (the replay
  // inputs of a traced window).
  std::vector<std::vector<ServiceAnswer>> first_answers_;  ///< per submit
  double accuracy_spent_ = 0.0;
  std::vector<ServiceAnswer> session_answers_;
  std::vector<VertexBudget> first_recovered_ledger_;
  std::vector<ServiceAnswer> first_probe_answers_;
  uint64_t recovery_ledger_mismatches_ = 0;
  uint64_t recovery_stats_bad_ = 0;
  JsonObject replays_;
  bool replays_done_ = false;
  uint64_t replay_view_mismatches_ = 0;
  uint64_t failed_answers_ = 0;  ///< answers failing a correctness check
};

void Runner::CountKernels(const ServiceReport& report, WindowResult& w) const {
  const NoisyViewStore& store = service_->store();
  for (const ServiceAnswer& a : report.answers) {
    if (a.rejected) continue;
    const LayeredVertex u{a.query.layer, a.query.u};
    const LayeredVertex v{a.query.layer, a.query.w};
    if (config_.algorithm == ServiceAlgorithm::kMultiRDS) {
      ++w.kernel_pairs[DispatchedKernelName(SetView::Sorted(graph_->Neighbors(u)),
                                            store.View(v).View())];
      ++w.kernel_pairs[DispatchedKernelName(SetView::Sorted(graph_->Neighbors(v)),
                                            store.View(u).View())];
      w.set_op_pairs += 2;
    } else {
      ++w.kernel_pairs[DispatchedKernelName(store.View(u).View(),
                                            store.View(v).View())];
      w.set_op_pairs += 1;
    }
  }
}

void Runner::AddServiceTotals(WindowResult& w, bool traced, double sign) const {
  const NoisyViewStore::Stats s = service_->store().stats();
  const auto add = [sign](uint64_t& total, uint64_t v) {
    total = sign > 0 ? total + v : total - v;
  };
  add(w.lookups, s.lookups);
  add(w.cache_hits, s.cache_hits);
  add(w.releases, s.releases);
  add(w.uploaded_edges, s.uploaded_edges);
  if (traced) w.phases.Add(service_->SnapshotMetrics(), sign);
}

void Runner::EndSession(WindowResult& w, bool traced, size_t session) {
  AddServiceTotals(w, traced, 1.0);
  if (traced && !replays_done_) {
    replays_ = Replays();
    replays_done_ = true;
  }
  if ((session + 1) * config_.session_submits <= config_.accuracy_submits) {
    accuracy_spent_ += service_->ledger().TotalSpent();
  }
  if (config_.persistent) {
    // Kill-free reopen: drop the service without a checkpoint, recover
    // from snapshot + WAL, and compare with what the live service held.
    const std::vector<VertexBudget> live = service_->ledger().Snapshot();
    const std::string dir = service_->options().snapshot_dir;
    service_.reset();
    std::unique_ptr<QueryService> reopened;
    {
      const SpanLog::Span span(spans_, "QueryService.recover");
      reopened = std::make_unique<QueryService>(
          *graph_, Options(threads_, obs::MetricsLevel::kOff, dir));
      w.recovery_s.push_back(span.Seconds());
    }
    const RecoveryStats& rec = reopened->recovery();
    w.recovery_wal_records.push_back(
        static_cast<double>(rec.wal_replay_records));
    if (!rec.snapshot_loaded || rec.wal_replay_records == 0) {
      ++recovery_stats_bad_;
    }
    const std::vector<VertexBudget> recovered = reopened->ledger().Snapshot();
    if (!SameLedger(recovered, live)) ++recovery_ledger_mismatches_;
    if (session == 0) {
      first_recovered_ledger_ = recovered;
      first_probe_answers_ = reopened->Submit(stream_->Probe()).answers;
    }
  }
  service_.reset();
}

WindowResult Runner::Window(double seconds, bool traced) {
  WindowResult w;
  first_answers_.clear();
  session_answers_.clear();
  replays_done_ = false;
  accuracy_spent_ = 0.0;
  stream_->StartSession(0);
  std::unique_ptr<obs::TraceSink> sink;
  if (traced) {
    obs::TraceSinkOptions sink_options;
    sink_options.ring_capacity = size_t{1} << 17;
    sink = std::make_unique<obs::TraceSink>(sink_options);
    // Warm-up releases of the kept setup are not part of the window.
    AddServiceTotals(w, traced, -1.0);
    sink->Install();
  }
  const obs::MetricsLevel level =
      traced ? obs::MetricsLevel::kFull : obs::MetricsLevel::kOff;
  const size_t session_len = config_.session_submits;
  const size_t keep = std::max(config_.check_submits, config_.accuracy_submits);
  const Clock::time_point start = Clock::now();
  size_t session = 0, j = 0;
  // Run at least the recorded prefix even if the window is shorter, and
  // only whole sessions: the mix of fresh, cached and refused queries (and
  // of checkpoints) changes along a session, so a window cut mid-session
  // would weigh that mix by where the clock ran out.
  while (SecondsSince(start) < seconds || first_answers_.size() < keep ||
         (session_len > 0 && j != 0)) {
    const std::vector<QueryPair>& batch = stream_->Batch(j);
    const bool checkpoint = config_.checkpoint_every > 0 &&
                            (j + 1) % config_.checkpoint_every == 0;
    ServiceReport report;
    const Clock::time_point t0 = Clock::now();
    {
      const SpanLog::Span span(spans_, "Submit");
      report = service_->Submit(batch);
    }
    if (checkpoint) {
      const SpanLog::Span span(spans_, "Checkpoint");
      service_->Checkpoint();
      w.checkpoint_s.push_back(span.Seconds());
    }
    const double op_s = SecondsSince(t0);
    w.op_ms.push_back(op_s * 1e3);
    w.busy_s += op_s;
    if (checkpoint) {
      w.last_snapshot =
          (std::filesystem::path(service_->options().snapshot_dir) /
           kSnapshotFileName)
              .string();
      w.checkpoint_mb.push_back(
          static_cast<double>(std::filesystem::file_size(w.last_snapshot)) /
          1e6);
    }
    w.submitted += batch.size();
    w.answered += report.answered;
    w.rejected_budget += report.rejected_budget;
    w.rejected_other += report.rejected_unavailable;
    if (traced) CountKernels(report, w);
    if (first_answers_.size() < keep) first_answers_.push_back(report.answers);
    if (traced && session == 0 && session_answers_.size() < 200'000) {
      session_answers_.insert(session_answers_.end(), report.answers.begin(),
                              report.answers.end());
    }
    ++j;
    if (session_len > 0 && j == session_len) {
      EndSession(w, traced, session);
      ++session;
      j = 0;
      stream_->StartSession(session);
      service_ = Open(level, "session-" + std::to_string(session));
    }
  }
  w.wall_s = SecondsSince(start);
  w.sessions = session + 1;
  if (session_len == 0) {
    if (traced) {
      replays_ = Replays();
      replays_done_ = true;
    }
    accuracy_spent_ = service_->ledger().TotalSpent();
  }
  // The open (possibly partial) session counts towards the window.
  AddServiceTotals(w, traced, 1.0);
  if (sink) {
    sink->Uninstall();
    std::ofstream(std::filesystem::path(work_dir_) / "trace.json")
        << sink->ToChromeJson();
    replays_.Add("trace_events_dropped", sink->EventsDropped());
  }
  return w;
}

JsonObject Runner::Replays() {
  const NoisyViewStore& store = service_->store();
  const ProtocolPlan plan = MakeProtocolPlan(config_.algorithm, config_.epsilon,
                                             0.5);
  const DebiasConstants debias = MakeDebiasConstantsForEpsilon(plan.epsilon1);
  const bool ds = config_.algorithm == ServiceAlgorithm::kMultiRDS;
  JsonObject out;

  // Released vertices of the session, in first-use order.
  std::vector<LayeredVertex> released;
  std::unordered_set<uint64_t> seen;
  std::vector<ServiceAnswer> answered;
  for (const ServiceAnswer& a : session_answers_) {
    if (a.rejected) continue;
    if (answered.size() < 20'000) answered.push_back(a);
    for (VertexId id : {a.query.u, a.query.w}) {
      const LayeredVertex v{a.query.layer, id};
      if (seen.insert(PackLayeredVertex(v)).second) released.push_back(v);
    }
  }

  // ldp.randomized_response: regenerate each view from its substream.
  {
    const Rng base = Rng(Options(1, obs::MetricsLevel::kOff, "").seed).Fork(0);
    uint64_t members = 0, bitmaps = 0, count = 0;
    double ns = 0.0;
    for (const LayeredVertex& v : released) {
      if (store.View(v).IsBitmap()) ++bitmaps;
    }
    for (size_t i = 0; i < std::min<size_t>(released.size(), 64); ++i) {
      const LayeredVertex v = released[i];
      Rng rng = base.Fork(PackLayeredVertex(v));
      const Clock::time_point t0 = Clock::now();
      const NoisyNeighborSet view =
          ApplyRandomizedResponse(*graph_, v, plan.epsilon1, rng);
      ns += SecondsSince(t0) * 1e9;
      members += view.Size();
      ++count;
      const NoisyNeighborSet& served = store.View(v);
      const bool same =
          view.Size() == served.Size() && view.IsBitmap() == served.IsBitmap() &&
          (view.IsBitmap()
               ? std::ranges::equal(view.View().bitmap().Words(),
                                    served.View().bitmap().Words())
               : view.SortedMembers() == served.SortedMembers());
      if (!same) ++replay_view_mismatches_;
    }
    out.Add("rr_replay_releases", count)
        .Add("rr_replay_members", members)
        .Add("rr_replay_ns", ns)
        .Add("rr_bitmap_views", bitmaps)
        .Add("rr_views", static_cast<uint64_t>(released.size()));
  }

  // graph.set_ops: the intersections each answer ran.
  {
    uint64_t pairs = 0, sink = 0;
    const Clock::time_point t0 = Clock::now();
    for (const ServiceAnswer& a : answered) {
      const LayeredVertex u{a.query.layer, a.query.u};
      const LayeredVertex v{a.query.layer, a.query.w};
      if (ds) {
        sink += IntersectionSize(SetView::Sorted(graph_->Neighbors(u)),
                                 store.View(v).View());
        sink += IntersectionSize(SetView::Sorted(graph_->Neighbors(v)),
                                 store.View(u).View());
        pairs += 2;
      } else {
        sink += IntersectionSize(store.View(u).View(), store.View(v).View());
        ++pairs;
      }
    }
    out.Add("set_ops_replay_ns", SecondsSince(t0) * 1e9)
        .Add("set_ops_replay_pairs", pairs)
        .Add("set_ops_replay_checksum", sink);
  }

  // core.post_process: the per-query arithmetic over the stored views.
  {
    Rng rng(seed_);
    double checksum = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (const ServiceAnswer& a : answered) {
      const LayeredVertex u{a.query.layer, a.query.u};
      const LayeredVertex v{a.query.layer, a.query.w};
      ReleasedInputs inputs;
      inputs.view_u = &store.View(u);
      inputs.view_w = &store.View(v);
      if (ds) {
        inputs.neighbors_u = graph_->Neighbors(u);
        inputs.neighbors_w = graph_->Neighbors(v);
      }
      inputs.opposite_size = graph_->NumVertices(Opposite(a.query.layer));
      checksum += PostProcess(plan, debias, inputs, rng);
    }
    out.Add("post_process_replay_ns", SecondsSince(t0) * 1e9)
        .Add("post_process_replay_queries",
             static_cast<uint64_t>(answered.size()))
        .Add("post_process_replay_checksum", checksum);
  }

  // ldp.ledger: the session's charges, in admission order.
  std::vector<std::pair<LayeredVertex, double>> charges;
  {
    std::unordered_set<uint64_t> viewed;
    for (const ServiceAnswer& a : session_answers_) {
      if (a.rejected) continue;
      for (VertexId id : {a.query.u, a.query.w}) {
        const LayeredVertex v{a.query.layer, id};
        if (viewed.insert(PackLayeredVertex(v)).second) {
          charges.emplace_back(v, plan.epsilon1);
        }
      }
      if (ds) {
        charges.emplace_back(LayeredVertex{a.query.layer, a.query.u},
                             plan.epsilon2);
        charges.emplace_back(LayeredVertex{a.query.layer, a.query.w},
                             plan.epsilon2);
      }
    }
    BudgetLedger ledger(config_.lifetime_budget > 0.0 ? config_.lifetime_budget
                                                      : config_.epsilon);
    uint64_t accepted = 0;
    const Clock::time_point t0 = Clock::now();
    for (const auto& [v, eps] : charges) accepted += ledger.TryCharge(v, eps);
    out.Add("ledger_replay_ns", SecondsSince(t0) * 1e9)
        .Add("ledger_replay_charges", static_cast<uint64_t>(charges.size()))
        .Add("ledger_replay_accepted", accepted);
  }

  // store.budget_wal: append a submit's worth of the session's charge
  // records plus its seal, then fsync, as the service does per submit.
  if (config_.persistent) {
    const std::string path =
        (std::filesystem::path(FreshDir("wal-replay")) / kWalFileName).string();
    BudgetWal::Reset(path, 1);
    BudgetWal wal(path);
    const size_t per_submit = std::max<size_t>(
        1, charges.size() / std::max<size_t>(1, config_.session_submits));
    double sync_s = 0.0;
    uint64_t syncs = 0;
    for (size_t i = 0; i < charges.size() && syncs < 16; ++syncs) {
      for (size_t k = 0; k < per_submit && i < charges.size(); ++k, ++i) {
        WalRecord record;
        record.vertex = PackLayeredVertex(charges[i].first);
        record.value = charges[i].second;
        wal.Append(record);
      }
      WalRecord seal;
      seal.type = WalRecordType::kSubmitSealed;
      seal.counter = syncs;
      wal.Append(seal);
      const Clock::time_point t0 = Clock::now();
      wal.Sync();
      sync_s += SecondsSince(t0);
    }
    out.Add("wal_replay_syncs", syncs).Add("wal_replay_sync_s", sync_s);
  }
  return out;
}

std::vector<Check> Runner::Correctness(const WindowResult& w,
                                       JsonObject& accuracy) {
  std::vector<Check> checks;
  const auto add = [&](const std::string& name, bool ok,
                       const std::string& detail) {
    checks.push_back({name, ok, detail});
  };

  // The references replay the window's first session.
  stream_->StartSession(0);

  // 1. Byte-identical to a 1-thread service with the same seed.
  {
    QueryService reference(*graph_, Options(1, obs::MetricsLevel::kOff, ""));
    for (const auto& batch : stream_->Warmup()) reference.Submit(batch);
    uint64_t bad = 0, compared = 0;
    for (size_t k = 0; k < config_.check_submits && k < first_answers_.size();
         ++k) {
      const ServiceReport r = reference.Submit(stream_->Batch(k));
      bad += CountMismatches(r.answers, first_answers_[k]);
      compared += r.answers.size();
    }
    failed_answers_ += bad;
    add("identical_to_1_thread", bad == 0 && compared > 0,
        std::to_string(compared) + " answers compared, " +
            std::to_string(bad) + " differ");
  }

  // 2. Recovery: residual budgets and probe answers equal the
  //    uninterrupted service's.
  if (config_.persistent) {
    QueryService uninterrupted(*graph_,
                               Options(threads_, obs::MetricsLevel::kOff, ""));
    uint64_t bad = 0;
    for (size_t k = 0; k < config_.session_submits; ++k) {
      const ServiceReport r = uninterrupted.Submit(stream_->Batch(k));
      if (k < first_answers_.size()) {
        bad += CountMismatches(r.answers, first_answers_[k]);
      }
    }
    const std::vector<VertexBudget> ledger = uninterrupted.ledger().Snapshot();
    const bool same_ledger = SameLedger(ledger, first_recovered_ledger_);
    const uint64_t probe_bad = CountMismatches(
        uninterrupted.Submit(stream_->Probe()).answers, first_probe_answers_);
    failed_answers_ += bad + probe_bad;
    add("persistent_equals_in_memory", bad == 0,
        std::to_string(bad) + " session answers differ");
    add("recovered_ledger_equals_uninterrupted",
        same_ledger && recovery_ledger_mismatches_ == 0,
        std::to_string(ledger.size()) + " charged vertices; " +
            std::to_string(recovery_ledger_mismatches_) +
            " reopen(s) differed from the live service");
    add("recovered_probe_equals_uninterrupted", probe_bad == 0,
        std::to_string(first_probe_answers_.size()) + " probe answers, " +
            std::to_string(probe_bad) + " differ");
    add("recovery_replayed_wal", recovery_stats_bad_ == 0 && !w.recovery_s.empty(),
        std::to_string(w.recovery_s.size()) + " reopens, " +
            std::to_string(recovery_stats_bad_) +
            " without a snapshot or WAL records");
  }

  // 3. Signed errors against exact C2 over the accuracy prefix; the
  //    independent subset shares no vertex between two answers.
  ExactCommon exact(*graph_);
  std::vector<double> errors, independent;
  std::unordered_set<uint64_t> used;
  uint64_t submitted = 0, answered = 0, rejected_budget = 0;
  for (size_t k = 0; k < config_.accuracy_submits && k < first_answers_.size();
       ++k) {
    for (const ServiceAnswer& a : first_answers_[k]) {
      ++submitted;
      if (a.rejected) {
        rejected_budget += a.reason == RejectReason::kBudget;
        continue;
      }
      ++answered;
      const double err =
          a.estimate -
          static_cast<double>(exact.Count(a.query.layer, a.query.u, a.query.w));
      errors.push_back(err);
      const uint64_t ku = PackLayeredVertex({a.query.layer, a.query.u});
      const uint64_t kw = PackLayeredVertex({a.query.layer, a.query.w});
      if (!used.contains(ku) && !used.contains(kw)) {
        used.insert(ku);
        used.insert(kw);
        independent.push_back(err);
      }
    }
  }
  // hot_set_read released its views during setup: they belong to the
  // answers of the accuracy prefix.
  uint64_t warmup_answered = 0;
  for (const auto& batch : stream_->Warmup()) warmup_answered += batch.size();
  accuracy.Add("submitted", submitted)
      .Add("answered", answered)
      .Add("rejected_budget", rejected_budget)
      .Add("warmup_answered", warmup_answered)
      .Add("total_spent", accuracy_spent_)
      .Add("errors", NumList(errors))
      .Add("independent_errors", NumList(independent));
  return checks;
}

int Runner::Run(double seconds, bool trace,
                const std::string& out_path) {
  std::filesystem::create_directories(work_dir_);
  JsonObject result;
  result.AddStr("workload", config_.name).Add("seed", seed_);

  // 1. Edge cache and one untimed build, so that neither generation nor a
  //    cold page cache of the cache file lands in a timed setup.
  {
    const SpanLog::Span span(spans_, "EnsureEdgeCache");
    const EdgeCacheEntry entry = EnsureEdgeCache(spec_, cache_dir_);
    result.AddBool("edge_cache_generated", entry.generated);
  }
  {
    const SpanLog::Span span(spans_, "warmup_build");
    const BipartiteGraph warm = BuildSyntheticGraph(spec_, cache_dir_);
  }

  // 2. Setups; the last one stays for the window.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    setup_s.push_back(Setup(obs::MetricsLevel::kOff));
  }
  JsonObject graph;
  graph.Add("draws", spec_.num_edges)
      .Add("upper", static_cast<uint64_t>(graph_->NumUpper()))
      .Add("lower", static_cast<uint64_t>(graph_->NumLower()))
      .Add("edges", graph_->NumEdges())
      .Add("exponent", spec_.exponent_upper)
      .Add("spec_seed", spec_.seed)
      .Add("max_degree_upper",
           static_cast<uint64_t>(graph_->MaxDegree(Layer::kUpper)));

  JsonObject context;
  context.Add("affinity_cores", AffinityCores())
      .Add("service_threads", threads_)
      .AddStr("simd_level", SimdLevelName(ActiveSimdLevel()))
      .AddStr("simd_detected", SimdLevelName(DetectedSimdLevel()))
      .AddStr("build_type", PERFBENCH_BUILD_TYPE)
      .AddBool("failpoints_compiled_in", CNE_FAILPOINTS_ENABLED != 0)
      .AddStr("compiler", __VERSION__)
      .Add("seed", seed_)
      .Add("graph", graph.Render())
      .AddStr("algorithm", ToString(config_.algorithm))
      .Add("epsilon", config_.epsilon)
      .Add("lifetime_budget", config_.lifetime_budget > 0.0
                                  ? config_.lifetime_budget
                                  : config_.epsilon)
      .AddStr("snapshot_fs", FilesystemName(work_dir_))
      .AddStr("loop", "closed, 1 client");
  result.Add("context", context.Render()).Add("setup_s", NumList(setup_s));

  // 3. The untraced window.
  const WindowResult w = Window(seconds, false);
  const double peak_rss_mb = PeakRssMb();

  // 4. Correctness, outside timing.
  JsonObject accuracy;
  std::vector<Check> checks = Correctness(w, accuracy);
  service_.reset();

  JsonObject window;
  window.Add("op_ms", NumList(w.op_ms))
      .Add("wall_s", w.wall_s)
      .Add("busy_s", w.busy_s)
      .Add("submitted", w.submitted)
      .Add("answered", w.answered)
      .Add("rejected_budget", w.rejected_budget)
      .Add("rejected_other", w.rejected_other)
      .Add("sessions", w.sessions)
      .Add("recovery_s", NumList(w.recovery_s))
      .Add("peak_rss_mb", peak_rss_mb);
  result.Add("window", window.Render()).Add("accuracy", accuracy.Render());

  // 5. The traced run and the layer replays.
  if (trace) {
    Setup(obs::MetricsLevel::kFull);
    const WindowResult t = Window(seconds, true);
    if (replay_view_mismatches_ != 0) failed_answers_ += replay_view_mismatches_;
    checks.push_back({"replayed_views_equal_served", replay_view_mismatches_ == 0,
                      std::to_string(replay_view_mismatches_) +
                          " regenerated views differ from the store's"});
    JsonObject phases;
    for (const auto& [name, sc] : t.phases.sums) {
      JsonObject p;
      p.Add("total_s", sc.first).Add("count", sc.second);
      phases.Add(name, p.Render());
    }
    JsonObject kernels;
    for (const auto& [name, n] : t.kernel_pairs) kernels.Add(name, n);
    double snapshot_read_s = 0.0, snapshot_mb = 0.0;
    if (!t.last_snapshot.empty()) {
      const Clock::time_point t0 = Clock::now();
      const SnapshotReader reader(t.last_snapshot);
      snapshot_read_s = SecondsSince(t0);
      snapshot_mb = static_cast<double>(reader.file_bytes()) / 1e6;
    }
    JsonObject traced;
    traced.Add("csr_build_s", NumList(csr_build_s_))
        .Add("edges", graph_->NumEdges())
        .Add("busy_s", t.busy_s)
        .Add("submitted", t.submitted)
        .Add("answered", t.answered)
        .Add("rejected_budget", t.rejected_budget)
        .Add("submits", static_cast<uint64_t>(t.op_ms.size()))
        .Add("threads", threads_)
        .Add("lookups", t.lookups)
        .Add("cache_hits", t.cache_hits)
        .Add("releases", t.releases)
        .Add("uploaded_edges", t.uploaded_edges)
        .Add("set_op_pairs", t.set_op_pairs)
        .Add("kernel_pairs", kernels.Render())
        .Add("phases", phases.Render())
        .Add("checkpoint_s", NumList(t.checkpoint_s))
        .Add("checkpoint_mb", NumList(t.checkpoint_mb))
        .Add("recovery_s", NumList(t.recovery_s))
        .Add("recovery_wal_records", NumList(t.recovery_wal_records))
        .Add("snapshot_read_s", snapshot_read_s)
        .Add("snapshot_mb", snapshot_mb)
        .AddBool("persistent", config_.persistent)
        .AddBool("multir_ds", config_.algorithm == ServiceAlgorithm::kMultiRDS)
        .Add("replays", replays_.Render())
        .AddStr("trace_json",
                (std::filesystem::path(work_dir_) / "trace.json").string());
    result.Add("traced", traced.Render());
    service_.reset();
  }

  std::string checks_json = "[";
  bool all_ok = true;
  for (size_t i = 0; i < checks.size(); ++i) {
    JsonObject c;
    c.AddStr("name", checks[i].name)
        .AddBool("ok", checks[i].ok)
        .AddStr("detail", checks[i].detail);
    checks_json += (i ? ", " : "") + c.Render();
    all_ok = all_ok && checks[i].ok;
  }
  result.Add("checks", checks_json + "]").Add("failed_answers", failed_answers_);

  std::string spans_json = "[";
  for (size_t i = 0; i < spans_.records().size(); ++i) {
    const SpanLog::Record& r = spans_.records()[i];
    if (r.name == "Submit") continue;  // op_ms carries these
    JsonObject s;
    s.Add("index", static_cast<uint64_t>(i))
        .AddStr("name", r.name)
        .Add("start_s", r.start_s)
        .Add("seconds", r.seconds)
        .Add("parent", r.parent);
    spans_json += (spans_json.size() > 1 ? ", " : "") + s.Render();
  }
  result.Add("spans", spans_json + "]");

  std::ofstream out(out_path);
  out << result.Render() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench_driver: refusing to report from a build "
                       "with assertions enabled (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench_driver: refusing to report from a %s "
                         "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const CommandLine cl(argc, argv);
  WorkloadConfig config;
  if (!MakeConfig(cl.GetString("workload", ""), config)) {
    std::fprintf(stderr, "unknown --workload=%s\n",
                 cl.GetString("workload", "").c_str());
    return 2;
  }
  const std::string out = cl.GetString("out", "");
  const std::string cache_dir = cl.GetString("cache-dir", "");
  const std::string work_dir = cl.GetString("work-dir", "");
  if (out.empty() || cache_dir.empty() || work_dir.empty()) {
    std::fprintf(stderr, "--out, --cache-dir and --work-dir are required\n");
    return 2;
  }
  // The service pool leaves one of the cores this process may run on to
  // the rest of the host: with every core busy, one busy co-tenant process
  // slowed hot_set_read submits by a fifth; with one core spare, it did not
  // measurably.
  Runner runner(config, static_cast<uint64_t>(cl.GetInt("seed", 1)),
                std::max(1, AffinityCores() - 1), cache_dir, work_dir);
  return runner.Run(cl.GetDouble("seconds", 10.0), cl.GetBool("trace"), out);
}

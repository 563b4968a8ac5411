// Extension experiment: adaptive set-intersection kernel throughput.
// Sweeps density × size-skew × domain over synthetic id sets and times
// every applicable kernel on each configuration — the word kernels once
// per ISA level this machine can execute (ForceSimdLevel) — then times
// the end-to-end regime the estimators live in: ε-RR releases of the
// committed sample graph, intersected pairwise as bitmaps and, decoded,
// by the scalar merge.
// Emits machine-readable JSON (stdout; progress to stderr) so CI can
// archive a perf trajectory across commits (BENCH_intersect.json).
//
// Every timed configuration self-checks each kernel's count against the
// scalar merge on the same inputs; any disagreement makes the process
// exit non-zero, so the CI bench run doubles as a correctness gate. Each
// cell also records how far the dispatcher landed from the best kernel
// applicable to the cell's representations (`auto_gap`; 1.0 = picked the
// best).
//
// Extra flags on top of the shared bench set:
//   --domains=N,M    id-domains of the synthetic sweep (default 65536 and
//                    1048576 = 16Ki words, the dense-AND acceptance cell;
//                    smoke default 16384)
//   --reps=N         timed repetitions per kernel (default auto-scaled)
//   --out=path       also write the JSON to a file
//   --smoke          small CI configuration (fewer reps, small domain)
//   --self-check     run only the correctness sweep (no timing): every
//                    kernel vs the scalar merge across the density grid,
//                    ragged-tail domains, and fuzzed operands, at every
//                    ISA level at or below the active one (so CI can
//                    force levels via CNE_SIMD_LEVEL); exits non-zero on
//                    any divergence.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "graph/graph_io.h"
#include "graph/set_ops.h"
#include "ldp/randomized_response.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace cne;

namespace {

std::vector<VertexId> RandomSortedSet(VertexId domain, double density,
                                      Rng& rng) {
  std::vector<VertexId> out;
  out.reserve(static_cast<size_t>(density * domain * 1.2) + 16);
  for (VertexId v = 0; v < domain; ++v) {
    if (rng.Bernoulli(density)) out.push_back(v);
  }
  return out;
}

DenseBitset ToBitset(const std::vector<VertexId>& sorted, VertexId domain) {
  DenseBitset bits(domain);
  for (VertexId v : sorted) bits.Set(v);
  return bits;
}

struct KernelResult {
  std::string kernel;
  std::string simd_level;  // empty for level-independent kernels
  double ns_per_op = 0.0;
  double speedup_vs_scalar = 0.0;
  // Per-call latency quantiles (obs/metrics.h histogram, ~2% relative
  // error) from a second, individually-clocked pass.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  uint64_t count = 0;
};

// Times `fn` (returning the intersection count) in four pilot-sized
// blocks, keeping the fastest: timing noise on these memory-bound loops is
// one-sided (preemption, frequency transitions), and the per-cell auto_gap
// ratio diffs two such loops against each other. Each block is sized from
// a pilot run to span ~200µs so sub-100ns kernels still get loops long
// enough to swamp timer resolution; `reps` only drives the quantile pass.
template <typename Fn>
KernelResult TimeKernel(const std::string& name, size_t reps, Fn fn) {
  KernelResult r;
  r.kernel = name;
  r.count = fn();  // warm + record the count for the self-check
  uint64_t sink = 0;
  size_t block_reps = 1;
  {
    constexpr double kBlockSeconds = 200e-6;
    Timer pilot;
    for (size_t i = 0; i < 3; ++i) sink += fn();
    const double per_call = std::max(pilot.Seconds() / 3.0, 1e-9);
    block_reps = std::min<size_t>(
        1 << 20, std::max<size_t>(4, static_cast<size_t>(
                                         kBlockSeconds / per_call)));
  }
  const size_t blocks = 4;
  double best_seconds = 0.0;
  for (size_t b = 0; b < blocks; ++b) {
    Timer timer;
    for (size_t i = 0; i < block_reps; ++i) sink += fn();
    const double seconds = timer.Seconds();
    if (b == 0 || seconds < best_seconds) best_seconds = seconds;
  }
  const size_t timed_reps = 3 + blocks * block_reps;
  r.ns_per_op = best_seconds * 1e9 / static_cast<double>(block_reps);
  // Quantile pass: the same calls clocked one by one, kept out of the
  // throughput loop above so ns_per_op never pays per-iteration clock
  // reads.
  obs::LatencyHistogram histogram;
  uint64_t quantile_sink = 0;
  for (size_t i = 0; i < reps; ++i) {
    const uint64_t t0 = obs::NowNanos();
    quantile_sink += fn();
    histogram.Record(obs::NowNanos() - t0);
  }
  const obs::HistogramSnapshot snapshot = histogram.Snapshot();
  r.p50_ns = snapshot.QuantileNanos(0.50);
  r.p99_ns = snapshot.QuantileNanos(0.99);
  r.p999_ns = snapshot.QuantileNanos(0.999);
  // Fold the sinks into the (already-validated) count so the timed calls
  // cannot be optimized away.
  if (sink != r.count * timed_reps || quantile_sink != r.count * reps) {
    r.count = ~uint64_t{0};
  }
  return r;
}

bool g_self_check_ok = true;

volatile uint64_t g_timing_sink = 0;

// Interleaved A/B timing for ratio measurements. Each round times one
// pilot-sized block of each callable back to back and records the
// round's A/B ratio; the returned ratio is the *median* over rounds. A
// noise burst (neighbor-VM steal, frequency step) spanning several
// rounds inflates both halves of the rounds it covers — their ratios
// stay honest — and a burst clipping just one half corrupts only that
// round's ratio, which the median discards. Min-of-blocks on two
// independently timed loops has neither property, and fabricated 1.3×
// "gaps" between loops running identical code were observed with it.
struct InterleavedResult {
  double a_ns = 0.0;    // fastest-block ns/call of A
  double b_ns = 0.0;    // fastest-block ns/call of B
  double ratio = 0.0;   // median over rounds of (A ns / B ns)
};

template <typename FnA, typename FnB>
InterleavedResult TimeInterleaved(FnA fa, FnB fb) {
  constexpr double kBlockSeconds = 200e-6;
  const auto block_reps = [&](auto& fn) {
    Timer pilot;
    uint64_t sink = 0;
    for (int i = 0; i < 3; ++i) sink += fn();
    g_timing_sink = g_timing_sink + sink;
    const double per_call = std::max(pilot.Seconds() / 3.0, 1e-9);
    return std::min<size_t>(
        1 << 20, std::max<size_t>(4, static_cast<size_t>(
                                         kBlockSeconds / per_call)));
  };
  const size_t reps_a = block_reps(fa);
  const size_t reps_b = block_reps(fb);
  InterleavedResult result;
  std::vector<double> ratios;
  for (int round = 0; round < 10; ++round) {
    uint64_t sink = 0;
    Timer ta;
    for (size_t i = 0; i < reps_a; ++i) sink += fa();
    const double a_ns = ta.Seconds() * 1e9 / static_cast<double>(reps_a);
    Timer tb;
    for (size_t i = 0; i < reps_b; ++i) sink += fb();
    const double b_ns = tb.Seconds() * 1e9 / static_cast<double>(reps_b);
    g_timing_sink = g_timing_sink + sink;
    if (round == 0 || a_ns < result.a_ns) result.a_ns = a_ns;
    if (round == 0 || b_ns < result.b_ns) result.b_ns = b_ns;
    if (b_ns > 0.0) ratios.push_back(a_ns / b_ns);
  }
  std::sort(ratios.begin(), ratios.end());
  if (!ratios.empty()) result.ratio = ratios[ratios.size() / 2];
  return result;
}

void SelfCheck(const std::vector<KernelResult>& results) {
  for (const KernelResult& r : results) {
    if (r.count != results.front().count) {
      std::fprintf(stderr,
                   "SELF-CHECK FAILED: kernel %s[%s] returned %llu, scalar "
                   "merge returned %llu\n",
                   r.kernel.c_str(), r.simd_level.c_str(),
                   static_cast<unsigned long long>(r.count),
                   static_cast<unsigned long long>(results.front().count));
      g_self_check_ok = false;
    }
  }
}

void AppendKernels(std::ostringstream& json,
                   std::vector<KernelResult>& results) {
  SelfCheck(results);
  const double scalar_ns = results.front().ns_per_op;
  json << "\"kernels\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    KernelResult& r = results[i];
    r.speedup_vs_scalar = r.ns_per_op > 0.0 ? scalar_ns / r.ns_per_op : 0.0;
    if (i) json << ",";
    json << "\n      {\"kernel\": \"" << r.kernel << "\", ";
    if (!r.simd_level.empty()) {
      json << "\"simd_level\": \"" << r.simd_level << "\", ";
    }
    json << "\"ns_per_op\": " << r.ns_per_op << ", \"speedup_vs_scalar\": "
         << r.speedup_vs_scalar << ", \"p50_ns\": " << r.p50_ns
         << ", \"p99_ns\": " << r.p99_ns << ", \"p999_ns\": " << r.p999_ns
         << "}";
  }
  json << "]";
}

// ---- --self-check mode: pure correctness, no timing ----

bool CheckPair(const std::vector<VertexId>& a, const std::vector<VertexId>& b,
               const DenseBitset& ba, const DenseBitset& bb,
               const std::vector<SimdLevel>& levels, const char* what) {
  const uint64_t want_and = IntersectScalarMerge(a, b);
  bool ok = true;
  for (SimdLevel level : levels) {
    ForceSimdLevel(level);
    const struct {
      const char* kernel;
      uint64_t got;
      uint64_t want;
    } checks[] = {
        {"bitmap_and", IntersectBitmapAnd(ba, bb), want_and},
        {"bitmap_and_swapped", IntersectBitmapAnd(bb, ba), want_and},
        {"probe_bitmap", IntersectProbeBitmap(a, bb), want_and},
        {"galloping", IntersectGalloping(a, b), want_and},
        {"count_a", ba.Count(), a.size()},
        {"dispatch_bitmap",
         IntersectionSize(SetView::Bitmap(ba, a.size()),
                          SetView::Bitmap(bb, b.size())),
         want_and},
        {"dispatch_mixed",
         IntersectionSize(SetView::Sorted(a), SetView::Bitmap(bb, b.size())),
         want_and},
        {"dispatch_sorted",
         IntersectionSize(SetView::Sorted(a), SetView::Sorted(b)), want_and},
    };
    for (const auto& c : checks) {
      if (c.got != c.want) {
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: %s %s at %s: got %llu want %llu\n",
                     what, c.kernel, SimdLevelName(level),
                     static_cast<unsigned long long>(c.got),
                     static_cast<unsigned long long>(c.want));
        ok = false;
      }
    }
  }
  return ok;
}

int RunSelfCheckMode(uint64_t seed) {
  // Only levels at or below the level the process started with: CI forces
  // CNE_SIMD_LEVEL=scalar|avx2|avx512 and expects exactly that ceiling.
  const SimdLevel ceiling = ActiveSimdLevel();
  std::vector<SimdLevel> levels;
  for (SimdLevel level : AvailableSimdLevels()) {
    if (static_cast<int>(level) <= static_cast<int>(ceiling)) {
      levels.push_back(level);
    }
  }

  Rng rng(seed);
  bool ok = true;
  size_t cells = 0;

  // Ragged-tail domains around every vector stride (64/256/512), plus a
  // couple of large ones.
  const VertexId domains[] = {1,   63,  64,  65,   255,   256,      257,
                              511, 512, 513, 1000, 16384, 16384 + 21};
  const double densities[] = {0.0, 0.001, 0.01, 0.1, 0.27, 0.5, 1.0};
  for (VertexId domain : domains) {
    for (double da : densities) {
      for (double db : densities) {
        const std::vector<VertexId> a = RandomSortedSet(domain, da, rng);
        const std::vector<VertexId> b = RandomSortedSet(domain, db, rng);
        const DenseBitset ba = ToBitset(a, domain);
        const DenseBitset bb = ToBitset(b, domain);
        char what[64];
        std::snprintf(what, sizeof(what), "grid d=%u %.4g x %.4g", domain,
                      da, db);
        ok = CheckPair(a, b, ba, bb, levels, what) && ok;
        ++cells;
      }
    }
  }

  // Fuzzed operands, mixed domains included.
  for (int round = 0; round < 200; ++round) {
    const VertexId domain_a =
        1 + static_cast<VertexId>(rng.UniformInt(1 << 14));
    const VertexId domain_b =
        1 + static_cast<VertexId>(rng.UniformInt(1 << 14));
    const std::vector<VertexId> a =
        RandomSortedSet(domain_a, rng.NextDouble(), rng);
    const std::vector<VertexId> b =
        RandomSortedSet(domain_b, rng.NextDouble(), rng);
    const DenseBitset ba = ToBitset(a, domain_a);
    const DenseBitset bb = ToBitset(b, domain_b);
    // Mixed domains: the bitmap kernels must truncate to the shorter one.
    const uint64_t want = IntersectScalarMerge(a, b);
    for (SimdLevel level : levels) {
      ForceSimdLevel(level);
      if (IntersectBitmapAnd(ba, bb) != want ||
          IntersectProbeBitmap(a, bb) != want) {
        std::fprintf(stderr, "SELF-CHECK FAILED: fuzz round %d at %s\n",
                     round, SimdLevelName(level));
        ok = false;
      }
    }
    ++cells;
  }

  ForceSimdLevel(ceiling);
  std::fprintf(stderr,
               "self-check %s: %zu configurations, levels up to %s\n",
               ok ? "passed" : "FAILED", cells, SimdLevelName(ceiling));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions options = bench::ParseOptions(argc, argv);
  const CommandLine cl(argc, argv);
  if (cl.GetBool("self-check")) return RunSelfCheckMode(options.seed);

  const bool smoke = cl.GetBool("smoke");
  const size_t default_reps = smoke ? 20 : 100;
  const size_t reps =
      static_cast<size_t>(cl.GetInt("reps",
                                    static_cast<int64_t>(default_reps)));

  // Sweep domains. 1048576 bits = 16Ki words is the acceptance cell for
  // the dense-AND SIMD speedup: far past every cache-resident size the
  // smoke domain covers. --domain=N (singular) still pins a single one.
  std::vector<VertexId> domains;
  for (const std::string& d : cl.GetList("domains")) {
    domains.push_back(static_cast<VertexId>(std::atoll(d.c_str())));
  }
  if (cl.Has("domain")) {
    domains.assign(1, static_cast<VertexId>(cl.GetInt("domain", 1 << 16)));
  }
  if (domains.empty()) {
    if (smoke) {
      domains = {1 << 14};
    } else {
      domains = {1 << 16, 1 << 20};
    }
  }

  const std::vector<SimdLevel> levels = AvailableSimdLevels();
  const SimdLevel detected = DetectedSimdLevel();

  Rng rng(options.seed);
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"ext_intersect\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"domains\": [";
  for (size_t i = 0; i < domains.size(); ++i) {
    json << (i ? ", " : "") << domains[i];
  }
  json << "],\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"hardware\": " << bench::HardwareContextJson() << ",\n"
       << "  \"grid\": [\n";

  // Density × skew sweep. density_b / density_a is the size skew; the
  // 0.27-ish densities are the ε = 1 noisy-row regime. A side below
  // kSortedBelow is handed to the dispatcher as a sorted id list (a true
  // neighbour list, as exact C2 and MultiR intersect), a denser side as a
  // bitmap (a noisy view). The last four cells are skewed pairs with both
  // sides sorted, so they measure the merge/galloping choice (size ratios
  // about 4, 10, 10 and 50).
  constexpr double kSortedBelow = 1.0 / 128.0;
  const std::vector<std::pair<double, double>> grid = {
      {0.001, 0.001},  {0.01, 0.01},    {0.1, 0.1},      {0.27, 0.27},
      {0.5, 0.5},      {0.001, 0.27},   {0.001, 0.5},    {0.01, 0.27},
      {0.0001, 0.27},  {0.1, 0.27},     {0.001, 0.004},  {0.0001, 0.001},
      {0.0005, 0.005}, {0.0001, 0.005},
  };

  bool first = true;
  // Worst dispatcher gap over the cells where kernel time is the signal:
  // choosing + virtual-call overhead is a handful of ns, so on sub-100ns
  // cells the ratio measures that fixed cost, not the pick.
  constexpr double kGapFloorNs = 100.0;
  double worst_gap = 0.0;
  for (const VertexId domain : domains) {
    for (const auto& [da, db] : grid) {
      const std::vector<VertexId> a = RandomSortedSet(domain, da, rng);
      const std::vector<VertexId> b = RandomSortedSet(domain, db, rng);
      const DenseBitset ba = ToBitset(a, domain);
      const DenseBitset bb = ToBitset(b, domain);
      const SetView va = SetView::Bitmap(ba, a.size());
      const SetView vb = SetView::Bitmap(bb, b.size());
      const SetView sa = SetView::Sorted(a);
      const SetView sb = SetView::Sorted(b);

      std::vector<KernelResult> results;
      results.push_back(TimeKernel("scalar_merge", reps, [&] {
        return IntersectScalarMerge(a, b);
      }));
      results.push_back(TimeKernel("galloping", reps, [&] {
        return IntersectGalloping(a, b);
      }));
      // The word kernels once per ISA level: the per-ISA rows the bench
      // trajectory tracks (and the 4x dense-AND acceptance evidence).
      for (SimdLevel level : levels) {
        ForceSimdLevel(level);
        results.push_back(TimeKernel("bitmap_and", reps, [&] {
          return IntersectBitmapAnd(ba, bb);
        }));
        results.back().simd_level = SimdLevelName(level);
      }
      ForceSimdLevel(detected);
      results.push_back(TimeKernel("probe_bitmap", reps, [&] {
        return IntersectProbeBitmap(a, bb);
      }));
      // The dispatcher over the cell's representations (bitmap at and
      // above kSortedBelow).
      const SetView auto_a = da >= kSortedBelow ? va : sa;
      const SetView auto_b = db >= kSortedBelow ? vb : sb;
      results.push_back(TimeKernel("dispatch_auto", reps, [&] {
        return IntersectionSize(auto_a, auto_b);
      }));
      results.back().simd_level = SimdLevelName(detected);

      // Best kernel the dispatcher could have run for the cell's
      // representations, picked from the rows just measured (bitmap_and
      // counted at the detected level only — the level dispatch actually
      // runs) ...
      const KernelResult* best_row = nullptr;
      for (const KernelResult& r : results) {
        bool applicable = false;
        if (auto_a.IsBitmap() && auto_b.IsBitmap()) {
          applicable = r.kernel == "bitmap_and" &&
                       r.simd_level == SimdLevelName(detected);
        } else if (auto_a.IsBitmap() || auto_b.IsBitmap()) {
          applicable = r.kernel == "probe_bitmap";
        } else {
          applicable = r.kernel == "scalar_merge" || r.kernel == "galloping";
        }
        if (applicable &&
            (best_row == nullptr || r.ns_per_op < best_row->ns_per_op)) {
          best_row = &r;
        }
      }
      // ... then re-timed interleaved with dispatch_auto, so the gap
      // ratio compares two loops that saw the same noise environment
      // rather than loops minutes apart in the cell's schedule.
      const auto call_for = [&](const std::string& kernel)
          -> std::function<uint64_t()> {
        if (kernel == "scalar_merge") {
          return [&] { return IntersectScalarMerge(a, b); };
        }
        if (kernel == "galloping") {
          return [&] { return IntersectGalloping(a, b); };
        }
        if (kernel == "bitmap_and") {
          return [&] { return IntersectBitmapAnd(ba, bb); };
        }
        return [&] { return IntersectProbeBitmap(a, bb); };
      };
      const InterleavedResult paired = TimeInterleaved(
          [&] { return IntersectionSize(auto_a, auto_b); },
          call_for(best_row->kernel));
      const double best_applicable = paired.b_ns;
      const double auto_gap = paired.ratio;
      if (best_applicable >= kGapFloorNs && auto_gap > worst_gap) {
        worst_gap = auto_gap;
      }

      if (!first) json << ",\n";
      first = false;
      json << "    {\"domain\": " << domain << ", \"density_a\": " << da
           << ", \"density_b\": " << db << ", \"size_a\": " << a.size()
           << ", \"size_b\": " << b.size()
           << ",\n     \"dispatcher_choice\": \""
           << DispatchedKernelName(auto_a, auto_b)
           << "\", \"best_applicable_ns\": " << best_applicable
           << ", \"auto_gap\": " << auto_gap << ",\n     ";
      AppendKernels(json, results);
      json << "}";
      std::fprintf(stderr, "grid d=%u %.4f x %.4f done (auto_gap %.2f)\n",
                   domain, da, db, auto_gap);
    }
  }
  json << "\n  ],\n"
       << "  \"dispatch_gap\": {\"max_gap\": " << worst_gap
       << ", \"floor_ns\": " << kGapFloorNs << ", \"within_10pct\": "
       << (worst_gap <= 1.10 ? "true" : "false") << "},\n";

  // End-to-end regime: ε ≤ 1 releases of the committed sample graph,
  // pairwise-intersected across the upper layer — the Naive/OneR hot loop.
  {
    // The committed fixture when reachable (repo root or CNE_SOURCE_DIR),
    // otherwise the RM analog — both are the paper's small-graph regime.
    const char* root = std::getenv("CNE_SOURCE_DIR");
    const std::string sample_path =
        std::string(root ? root : ".") + "/data/sample_userpage.txt";
    BipartiteGraph graph;
    if (std::ifstream(sample_path).good()) {
      graph = ReadGraphFile(sample_path);
    } else {
      graph = bench::CachedDataset(ResolveDatasets({"RM"})[0]);
    }
    const double epsilon = std::min(options.epsilon, 1.0);
    const VertexId n = std::min<VertexId>(graph.NumUpper(), smoke ? 60 : 120);

    // The scalar merge runs over the decoded members of the same views.
    std::vector<NoisyNeighborSet> views;
    std::vector<std::vector<VertexId>> members;
    for (VertexId u = 0; u < n; ++u) {
      Rng view_rng = rng.Fork(u);
      views.push_back(
          ApplyRandomizedResponse(graph, {Layer::kUpper, u}, epsilon,
                                  view_rng));
      members.push_back(views.back().SortedMembers());
    }

    const size_t pair_reps = smoke ? 3 : 10;
    uint64_t scalar_total = 0, bitmap_total = 0;
    uint64_t pairs = 0;
    // Per-rep sweep latencies feed the phase histograms; one clock pair
    // per full n² sweep is negligible against the sweep itself.
    obs::LatencyHistogram scalar_hist, bitmap_hist;
    Timer scalar_timer;
    for (size_t rep = 0; rep < pair_reps; ++rep) {
      scalar_total = 0;
      const uint64_t t0 = obs::NowNanos();
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId w = u + 1; w < n; ++w) {
          scalar_total += IntersectScalarMerge(members[u], members[w]);
        }
      }
      scalar_hist.Record(obs::NowNanos() - t0);
    }
    const double scalar_seconds = scalar_timer.Seconds();
    Timer bitmap_timer;
    for (size_t rep = 0; rep < pair_reps; ++rep) {
      bitmap_total = 0;
      const uint64_t t0 = obs::NowNanos();
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId w = u + 1; w < n; ++w) {
          bitmap_total += IntersectionSize(views[u].View(), views[w].View());
        }
      }
      bitmap_hist.Record(obs::NowNanos() - t0);
    }
    const double bitmap_seconds = bitmap_timer.Seconds();
    pairs = static_cast<uint64_t>(n) * (n - 1) / 2;

    // Self-check on real releases: for every pair, the bitmap kernel must
    // equal the scalar merge over the decoded members of the same views.
    for (VertexId u = 0; u < n && g_self_check_ok; ++u) {
      for (VertexId w = u + 1; w < n; ++w) {
        const uint64_t want = IntersectScalarMerge(members[u], members[w]);
        const uint64_t got =
            IntersectionSize(views[u].View(), views[w].View());
        if (want != got) {
          std::fprintf(stderr,
                       "SELF-CHECK FAILED: sample pair (%u, %u) bitmap %llu "
                       "!= scalar %llu\n",
                       u, w, static_cast<unsigned long long>(got),
                       static_cast<unsigned long long>(want));
          g_self_check_ok = false;
          break;
        }
      }
    }
    (void)scalar_total;
    (void)bitmap_total;

    const double scalar_ns =
        scalar_seconds * 1e9 / static_cast<double>(pairs * pair_reps);
    const double bitmap_ns =
        bitmap_seconds * 1e9 / static_cast<double>(pairs * pair_reps);
    obs::MetricsSnapshot sweep_metrics;
    sweep_metrics.phases.push_back(
        obs::MakePhaseStats("scalar_sweep", scalar_hist.Snapshot()));
    sweep_metrics.phases.push_back(
        obs::MakePhaseStats("bitmap_sweep", bitmap_hist.Snapshot()));
    json << "  \"sample_graph\": {\"epsilon\": " << epsilon
         << ", \"vertices\": " << n << ", \"pairs\": " << pairs
         << ", \"simd_level\": \"" << SimdLevelName(ActiveSimdLevel())
         << "\",\n    \"scalar_ns_per_pair\": " << scalar_ns
         << ", \"bitmap_ns_per_pair\": " << bitmap_ns
         << ", \"speedup\": " << (bitmap_ns > 0 ? scalar_ns / bitmap_ns : 0)
         << ",\n    \"phases\": "
         << bench::PhasesJson(sweep_metrics, "    ") << "},\n";
    std::fprintf(stderr,
                 "sample graph: scalar %.1f ns/pair, bitmap %.1f ns/pair, "
                 "speedup %.1fx\n",
                 scalar_ns, bitmap_ns,
                 bitmap_ns > 0 ? scalar_ns / bitmap_ns : 0.0);
  }

  json << "  \"self_check_passed\": " << (g_self_check_ok ? "true" : "false")
       << "\n}\n";

  std::cout << json.str();
  const std::string out_path = cl.GetString("out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json.str();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return g_self_check_ok ? 0 : 1;
}

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace cne::obs {
namespace {

TEST(TraceSpanTest, NullHistogramIsNoOp) {
  // Must not crash, touch thread-locals, or record anywhere.
  const TraceSpan span(nullptr);
  {
    const TraceSpan nested(nullptr);
  }
}

TEST(TraceSpanTest, RecordsOneSamplePerSpan) {
  LatencyHistogram histogram;
  for (int i = 0; i < 5; ++i) {
    const TraceSpan span(&histogram);
  }
  EXPECT_EQ(histogram.Snapshot().count, 5u);
}

TEST(TraceSpanTest, ExclusiveTimeExcludesNestedSpans) {
  LatencyHistogram outer_hist, inner_hist;
  {
    const TraceSpan outer(&outer_hist);
    {
      const TraceSpan inner(&inner_hist);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const HistogramSnapshot outer_snap = outer_hist.Snapshot();
  const HistogramSnapshot inner_snap = inner_hist.Snapshot();
  ASSERT_EQ(outer_snap.count, 1u);
  ASSERT_EQ(inner_snap.count, 1u);
  // The inner span holds the 20 ms sleep; the outer span's *exclusive*
  // time is just span bookkeeping and must come in far under it.
  EXPECT_GE(inner_snap.QuantileNanos(0.5), 15e6);
  EXPECT_LT(outer_snap.QuantileNanos(0.5), inner_snap.QuantileNanos(0.5) / 2);
}

TEST(TraceSpanTest, NestedExclusiveTimesAttributeToEachLevel) {
  LatencyHistogram a_hist, b_hist, c_hist;
  {
    const TraceSpan a(&a_hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      const TraceSpan b(&b_hist);
      {
        const TraceSpan c(&c_hist);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  // a's exclusive time covers its own 5 ms sleep but not b/c's 10 ms;
  // b's exclusive time excludes c's sleep entirely (b itself only does
  // span bookkeeping, so it stays far under c's sleep).
  EXPECT_GE(a_hist.Snapshot().QuantileNanos(0.5), 3e6);
  EXPECT_LT(b_hist.Snapshot().QuantileNanos(0.5), 5e6);
  EXPECT_GE(c_hist.Snapshot().QuantileNanos(0.5), 8e6);
}

TEST(TraceSpanTest, SiblingsDoNotInheritChildTime) {
  LatencyHistogram parent_hist, child_hist;
  {
    const TraceSpan parent(&parent_hist);
    {
      const TraceSpan child(&child_hist);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    {
      const TraceSpan child(&child_hist);
    }
  }
  const HistogramSnapshot child_snap = child_hist.Snapshot();
  EXPECT_EQ(child_snap.count, 2u);
  // The second child span is near-instant: its p-low must be far below
  // the sleeping first span.
  EXPECT_LT(child_snap.QuantileNanos(0.0), 5e6);
  EXPECT_GE(child_snap.QuantileNanos(1.0), 8e6);
}

TEST(TraceSpanTest, ExceptionUnwindRecordsAndRestoresTheStack) {
  // A span destroyed by stack unwinding must record exactly like a normal
  // exit and must pop itself from the thread-local span stack — a stale
  // parent pointer would corrupt every later span on this thread.
  LatencyHistogram outer_hist, inner_hist;
  try {
    const TraceSpan outer(&outer_hist);
    const TraceSpan inner(&inner_hist);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(outer_hist.Snapshot().count, 1u);
  EXPECT_EQ(inner_hist.Snapshot().count, 1u);

  // The stack is clean: a fresh root span sleeps alone, and a would-be
  // leaked parent from the unwound pair cannot absorb its time as child
  // time (which would drive the root's exclusive time toward zero).
  LatencyHistogram fresh_hist;
  {
    const TraceSpan fresh(&fresh_hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fresh_hist.Snapshot().QuantileNanos(0.5), 8e6);
}

TEST(TraceSpanTest, ExceptionUnwindDoesNotLeakNestingAcrossSubmits) {
  // Simulates the service pattern: submit #1 dies mid-phase, submit #2
  // runs the same phases. The second submit's parent/child exclusive
  // accounting must be unaffected by the first one's unwind.
  LatencyHistogram parent_hist, child_hist;
  try {
    const TraceSpan parent(&parent_hist);
    const TraceSpan child(&child_hist);
    throw std::runtime_error("submit failed");
  } catch (const std::runtime_error&) {
  }
  {
    const TraceSpan parent(&parent_hist);
    {
      const TraceSpan child(&child_hist);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  const HistogramSnapshot parent_snap = parent_hist.Snapshot();
  const HistogramSnapshot child_snap = child_hist.Snapshot();
  EXPECT_EQ(parent_snap.count, 2u);
  EXPECT_EQ(child_snap.count, 2u);
  // The second parent's exclusive time excludes its child's 10 ms sleep.
  EXPECT_LT(parent_snap.QuantileNanos(1.0), 5e6);
  EXPECT_GE(child_snap.QuantileNanos(1.0), 8e6);
}

TEST(ForEachSampledTest, NullHistogramRunsEveryItemUnclocked) {
  std::vector<size_t> seen;
  size_t samples = 0;
  ForEachSampled(
      10, 4, nullptr, [&](size_t i) { seen.push_back(i); },
      [&](size_t, uint64_t) { ++samples; });
  ASSERT_EQ(seen.size(), 10u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  EXPECT_EQ(samples, 0u);
}

TEST(ForEachSampledTest, ClocksTheLastItemOfEachStrideRun) {
  LatencyHistogram histogram;
  std::vector<size_t> seen;
  std::vector<size_t> sampled;
  ForEachSampled(
      20, 8, &histogram, [&](size_t i) { seen.push_back(i); },
      [&](size_t i, uint64_t) { sampled.push_back(i); });
  ASSERT_EQ(seen.size(), 20u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  // Runs [0, 8), [8, 16) and the short [16, 20).
  EXPECT_EQ(sampled, (std::vector<size_t>{7, 15, 19}));
  EXPECT_EQ(histogram.Snapshot().count, 3u);
}

TEST(ForEachSampledTest, SlowFirstCallOfARunIsNotTheSample) {
  // The first call of each run is ~10× slower, as when it pulls a shared
  // view into cache; the samples must describe the warm calls.
  const auto spin = [](uint64_t nanos) {
    const uint64_t start = NowNanos();
    while (NowNanos() - start < nanos) {
    }
  };
  constexpr uint64_t kFast = 20'000;
  constexpr uint64_t kSlow = 10 * kFast;
  constexpr size_t kStride = 4;
  LatencyHistogram histogram;
  std::vector<uint64_t> sampled;
  ForEachSampled(
      8 * kStride + 1, kStride, &histogram,
      [&](size_t i) { spin(i % kStride == 0 ? kSlow : kFast); },
      [&](size_t, uint64_t nanos) { sampled.push_back(nanos); });
  ASSERT_EQ(sampled.size(), 9u);
  // The short last run is one call, so its only call is the slow one;
  // every full run is sampled on a warm call.
  std::sort(sampled.begin(), sampled.end());
  EXPECT_LT(sampled[4], kSlow / 2) << "median sample " << sampled[4] << " ns";
  EXPECT_GE(sampled.back(), kSlow);
}

TEST(ForEachSampledTest, StrideOneClocksEveryItem) {
  LatencyHistogram histogram;
  size_t calls = 0;
  ForEachSampled(
      10, 1, &histogram, [&](size_t) { ++calls; }, [](size_t, uint64_t) {});
  EXPECT_EQ(calls, 10u);
  EXPECT_EQ(histogram.Snapshot().count, 10u);
}

TEST(NowNanosTest, IsMonotonic) {
  const uint64_t a = NowNanos();
  const uint64_t b = NowNanos();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace cne::obs

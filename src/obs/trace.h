// RAII latency spans over obs::LatencyHistogram, with nesting-aware
// exclusive time, optional trace-event capture, and a compile-time kill
// switch.
//
// A TraceSpan constructed with a null histogram and no name is a complete
// no-op (no clock read). With a histogram it records, on destruction, the
// span's *exclusive* time — wall time minus the wall time of spans nested
// inside it on the same thread — so a phase table sums to the pipeline
// total instead of double-counting parents and children.
//
// A *named* span additionally publishes a complete trace event (name,
// start, total duration) to the installed TraceSink (obs/trace_export.h)
// whenever capture is armed — i.e. a sink is installed and the current
// submit scope is sampled. A named span with a null histogram exists only
// for the trace: it joins the nesting stack and emits an event, but
// records nowhere, and collapses back to a no-op the moment capture is
// off — so pipeline-shaped wrapper spans cost nothing outside a sampled
// trace scope.
//
// Compiling with -DCNE_OBS_ENABLED=0 reduces every span to an empty object
// and NowNanos stays available for manual timing.

#ifndef CNE_OBS_TRACE_H_
#define CNE_OBS_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

#ifndef CNE_OBS_ENABLED
#define CNE_OBS_ENABLED 1
#endif

namespace cne::obs {

namespace trace_internal {

/// True while a TraceSink is installed AND the current submit scope is
/// sampled (obs/trace_export.h flips it). Named spans read it with one
/// relaxed load; everything else never touches it.
extern std::atomic<bool> g_capture_armed;

/// Forwards one finished span to the installed sink (trace_export.cc).
void EmitSpanEvent(const char* name, uint64_t start_nanos,
                   uint64_t end_nanos);

}  // namespace trace_internal

/// Monotonic nanosecond clock (steady_clock; ~20-25 ns per read).
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

#if CNE_OBS_ENABLED

class TraceSpan {
 public:
  /// Null histogram and null name => no-op span (no clock read, no
  /// thread-local touch). A name alone activates the span only while
  /// trace capture is armed.
  explicit TraceSpan(LatencyHistogram* histogram,
                     const char* name = nullptr)
      : histogram_(histogram) {
    if (histogram_ == nullptr &&
        (name == nullptr ||
         !trace_internal::g_capture_armed.load(std::memory_order_relaxed))) {
      return;
    }
    name_ = name;
    active_ = true;
    parent_ = current_;
    current_ = this;
    start_nanos_ = NowNanos();
  }

  ~TraceSpan() {
    if (!active_) return;
    const uint64_t end_nanos = NowNanos();
    const uint64_t total = end_nanos - start_nanos_;
    if (histogram_ != nullptr) {
      const uint64_t exclusive =
          total > child_nanos_ ? total - child_nanos_ : 0;
      histogram_->Record(exclusive);
    }
    if (name_ != nullptr &&
        trace_internal::g_capture_armed.load(std::memory_order_relaxed)) {
      trace_internal::EmitSpanEvent(name_, start_nanos_, end_nanos);
    }
    if (parent_ != nullptr) parent_->child_nanos_ += total;
    current_ = parent_;
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  LatencyHistogram* histogram_;
  const char* name_ = nullptr;
  bool active_ = false;
  TraceSpan* parent_ = nullptr;
  uint64_t start_nanos_ = 0;
  uint64_t child_nanos_ = 0;

  static thread_local TraceSpan* current_;
};

#else  // !CNE_OBS_ENABLED

class TraceSpan {
 public:
  explicit TraceSpan(LatencyHistogram*, const char* = nullptr) {}
};

#endif  // CNE_OBS_ENABLED

/// Runs body(i) for every i in [0, n), clocking one call in `stride`: the
/// last call of each run [k·stride, (k+1)·stride), or of the final,
/// shorter run (i = stride − 1, 2·stride − 1, ..., n − 1), on paths too
/// hot to time every item. Not the first: when a run's first call warms
/// the cache for the rest (a group's shared view), clocking it would
/// report the cold call as typical. Each clocked call's latency goes to
/// `histogram` and to on_sample(i, nanos) — the hook for exemplar offers.
/// The calls between samples run in a plain inner loop with no per-item
/// branch, so the common path compiles as if timing were off; with a null
/// histogram the whole loop is plain.
template <typename Body, typename OnSample>
void ForEachSampled(size_t n, size_t stride, LatencyHistogram* histogram,
                    Body&& body, OnSample&& on_sample) {
  if (histogram == nullptr) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  size_t i = 0;
  while (i < n) {
    for (const size_t last = std::min(n, i + stride) - 1; i < last; ++i) {
      body(i);
    }
    const uint64_t t0 = NowNanos();
    body(i);
    const uint64_t dt = NowNanos() - t0;
    histogram->Record(dt);
    on_sample(i, dt);
    ++i;
  }
}

}  // namespace cne::obs

#endif  // CNE_OBS_TRACE_H_

// CounterSampler: windowed time-series of the hardware counters.
//
// The sampler snapshots a PerfCounters instance at fixed cycle boundaries
// (every `window` simulated cycles from the cycle it was attached at) and
// stores the per-window *delta* per logical CPU — the time-resolved form
// of the paper's end-of-run counter readings, so phase-local effects
// (barrier episodes, prefetch bursts, halt/wake latencies) become visible.
//
// The core drives it through the observer bus's window event: cpu::Core
// raises on_window(b) the moment simulated time reaches boundary b with
// every cycle < b fully accounted. During event-skip fast-forward the core
// splits its bulk counter accumulation at window boundaries, so each
// window's delta is bit-identical to what single-cycle stepping produces
// (regression-tested in trace_test).
//
// The sampler only ever *reads* the counters; attaching one can never
// perturb a measurement.
#pragma once

#include <vector>

#include "common/types.h"
#include "cpu/observer.h"
#include "perfmon/counters.h"

namespace smt::trace {

/// One sampling window [begin, end) and the counter deltas inside it.
struct CounterWindow {
  Cycle begin = 0;
  Cycle end = 0;
  perfmon::Snapshot delta;
};

class CounterSampler final : public cpu::Observer {
 public:
  /// Attaches to `ctr` at cycle `start` (the current counter values become
  /// the baseline of the first window).
  CounterSampler(const perfmon::PerfCounters& ctr, Cycle window,
                 Cycle start = 0);

  Cycle window_cycles() const { return window_; }

  uint32_t interests() const override { return kWindow; }

  /// The next cycle boundary at which the core must call on_window()
  /// (strictly greater than the last sampled/flushed cycle).
  Cycle next_window() const override { return next_; }

  /// Closes every window ending at or before `cycle`; every cycle <
  /// `cycle` must already be accounted in the counters.
  void on_window(Cycle cycle) override;

  /// Flushes the final partial window [last, end); safe to call repeatedly
  /// with the same `end` (subsequent calls are no-ops). Sampling may
  /// continue afterwards — the next window then begins at `end`.
  void finalize(Cycle end);

  const std::vector<CounterWindow>& windows() const { return windows_; }

 private:
  void push_window(Cycle end);

  const perfmon::PerfCounters& ctr_;
  Cycle window_;
  Cycle next_;              // end of the currently open window
  Cycle last_;              // begin of the currently open window
  perfmon::Snapshot prev_;  // counter values at `last_`
  std::vector<CounterWindow> windows_;
};

}  // namespace smt::trace

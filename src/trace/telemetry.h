// Telemetry: the run-scoped bundle of the two time-resolved instruments —
// a CounterSampler (windowed counter time-series, serialized into the run
// report's `timeseries` section) and a TraceRecorder (cycle-stamped event
// timeline, serialized as Chrome trace-event JSON for Perfetto /
// chrome://tracing).
//
// A Machine owns at most one Telemetry, created either explicitly via
// Machine::enable_telemetry() or implicitly when the process-global
// default (set_global_telemetry, wired to SMT_BENCH_TRACE_DIR by
// bench/bench_util.h) is enabled. Both instruments are cpu::Observers on
// the core's observer bus: disabled telemetry attaches nothing, so every
// hook site is one mask test, and enabled telemetry never perturbs a
// measurement — both only read the counters and the simulation state
// (asserted bit-for-bit in trace_test).
#pragma once

#include <memory>
#include <string>

#include "common/types.h"
#include "perfmon/counters.h"
#include "trace/recorder.h"
#include "trace/sampler.h"

namespace smt::trace {

struct TelemetryConfig {
  bool enabled = false;
  /// Counter-sampling window in simulated cycles.
  Cycle sample_window = 8192;
  /// Trace ring-buffer capacity in events (oldest dropped beyond this).
  size_t ring_capacity = 1 << 16;
  /// Two L2 misses at most this many cycles apart belong to one burst.
  Cycle l2_burst_gap = 64;
  /// Attach the per-PC attribution profiler (src/profile/pc_profiler.h;
  /// run reports gain a `profile` section and move to schema /3).
  /// Independent of `enabled`: profiling without time-series is valid.
  bool pc_profile = false;
  /// Attach the SMT interference profiler (src/profile/interference.h;
  /// run reports gain an `interference` section and move to schema /4).
  /// Independent of `enabled`, like pc_profile. Wired to
  /// SMT_BENCH_INTERFERENCE by bench/bench_util.h.
  bool interference = false;
  /// Attach the pipeline-lifetime recorder (src/trace/pipeview.h; bench
  /// drivers write a Kanata .kanata file beside each report). Wired to
  /// SMT_BENCH_PIPEVIEW / SMT_BENCH_PIPEVIEW_WINDOW by bench/bench_util.h.
  bool pipeview = false;
  Cycle pipeview_begin = 0;
  Cycle pipeview_end = 100'000;
};

/// Process-global default consulted by Machine's constructor; disabled
/// unless a driver (bench_main) turns it on.
const TelemetryConfig& global_telemetry();
void set_global_telemetry(const TelemetryConfig& cfg);

class Telemetry {
 public:
  Telemetry(const TelemetryConfig& cfg, const perfmon::PerfCounters& ctr,
            Cycle start_cycle = 0);

  CounterSampler& sampler() { return sampler_; }
  const CounterSampler& sampler() const { return sampler_; }
  TraceRecorder& recorder() { return recorder_; }
  const TraceRecorder& recorder() const { return recorder_; }
  const TelemetryConfig& config() const { return cfg_; }

  /// Flushes partial sampler windows and open recorder spans at `end`
  /// (the run's final cycle). Explicitly idempotent: the first call wins
  /// and every later call — finalize is reached from run_workload,
  /// bench stats_from and report_from_machine, which may all touch the
  /// same Telemetry — is a guarded no-op, so windows and trace events are
  /// never flushed (and thus duplicated) twice.
  void finalize(Cycle end);

  bool finalized() const { return finalized_; }

 private:
  TelemetryConfig cfg_;
  CounterSampler sampler_;
  TraceRecorder recorder_;
  bool finalized_ = false;
};

/// Serializes the telemetry as a Chrome trace-event JSON document: one
/// track (tid) per logical CPU plus one per barrier/lock annotation,
/// counter ("C") tracks for the headline per-window counters, and
/// metadata naming every track. 1 simulated cycle is mapped to 1 us.
std::string chrome_trace_json(const Telemetry& t);

/// Writes chrome_trace_json() to `path`, creating missing parent
/// directories; logs to stderr and returns false on failure.
bool write_chrome_trace_file(const Telemetry& t, const std::string& path);

}  // namespace smt::trace

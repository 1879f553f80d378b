// Machine: one simulated Hyper-Threading processor package with its memory
// system — the top-level object users interact with.
//
//   smt::core::Machine m;                      // Netburst-class defaults
//   m.memory().write_f64(addr, 1.0);           // set up data
//   m.load_program(CpuId::kCpu0, program);     // bind to a logical CPU
//   m.run();
//   uint64_t misses = m.counters().get(CpuId::kCpu0, Event::kL2Misses);
//
// The instruments (telemetry, profilers, race detector, pipeline trace,
// flight recorder) are enabled per machine, before running; each enable_*
// attaches its observer to the core's observer bus (cpu/observer.h), beside
// any other, and never perturbs a counter. Nothing is attached unless
// enabled. Each accessor below returns null when its instrument is
// disabled; instruments are shared so RunStats can carry them past the
// machine's lifetime.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "analysis/race_detector.h"
#include "common/types.h"
#include "core/flight_recorder.h"
#include "cpu/core.h"
#include "isa/program.h"
#include "mem/hierarchy.h"
#include "mem/sim_memory.h"
#include "perfmon/counters.h"
#include "profile/interference.h"
#include "profile/pc_profiler.h"
#include "trace/pipeview.h"
#include "trace/telemetry.h"

namespace smt::core {

struct MachineConfig {
  cpu::CoreConfig core;
  mem::HierConfig mem;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg = {});

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  mem::SimMemory& memory() { return memory_; }
  const mem::SimMemory& memory() const { return memory_; }
  mem::CacheHierarchy& hierarchy() { return hierarchy_; }
  perfmon::PerfCounters& counters() { return counters_; }
  const perfmon::PerfCounters& counters() const { return counters_; }
  cpu::Core& core() { return core_; }
  const cpu::Core& core() const { return core_; }
  const MachineConfig& config() const { return cfg_; }

  /// Attaches time-resolved telemetry (counter time-series + event
  /// timeline; see src/trace/telemetry.h). The constructor calls this
  /// automatically when the process-global default is enabled (bench
  /// binaries with SMT_BENCH_TRACE_DIR set).
  void enable_telemetry(const trace::TelemetryConfig& cfg);
  const std::shared_ptr<trace::Telemetry>& telemetry() const {
    return telemetry_;
  }

  /// Attaches the per-PC attribution profiler (see
  /// src/profile/pc_profiler.h). The constructor calls this automatically
  /// when the process-global telemetry default has pc_profile set (bench
  /// binaries with SMT_BENCH_PROFILE=1).
  void enable_pc_profiler();
  const std::shared_ptr<profile::PcProfiler>& pc_profiler() const {
    return pc_profiler_;
  }

  /// Attaches the happens-before race detector (see
  /// src/analysis/race_detector.h). Sync words and extents are configured
  /// by the caller (core::try_run_workload feeds it the workload's
  /// MemInfo); lock words are picked up automatically from each loaded
  /// program's annotations.
  void enable_race_detector();
  const std::shared_ptr<analysis::RaceDetector>& race_detector() const {
    return race_detector_;
  }

  /// Attaches the SMT interference profiler (see
  /// src/profile/interference.h) and turns on the hierarchy's L2 eviction
  /// bookkeeping. The constructor calls this automatically when the
  /// process-global telemetry default has `interference` set (bench
  /// binaries with SMT_BENCH_INTERFERENCE=1).
  void enable_interference();

  /// Copies the hierarchy's L2 sibling-eviction counts into the
  /// interference profiler (idempotent assignment; call at any
  /// stats-collection point). No-op when interference is disabled.
  /// Const: it only updates the shared profiler object, never the
  /// machine itself (report_from_machine works on a const Machine&).
  void finalize_interference() const;
  const std::shared_ptr<profile::InterferenceProfiler>& interference() const {
    return interference_;
  }

  /// Attaches the pipeline-lifetime (Kanata) recorder; see
  /// src/trace/pipeview.h. The constructor calls this automatically when
  /// the process-global telemetry default has `pipeview` set (bench
  /// binaries with SMT_BENCH_PIPEVIEW=1).
  void enable_pipeview(const trace::PipeViewConfig& cfg);
  const std::shared_ptr<trace::PipeViewRecorder>& pipeview() const {
    return pipeview_;
  }

  /// Attaches the post-mortem flight recorder (see
  /// src/core/flight_recorder.h). It does not consume on_stall, so on its
  /// own it leaves the issue-block scan off.
  void enable_flight_recorder();
  const std::shared_ptr<FlightRecorder>& flight_recorder() const {
    return flight_recorder_;
  }

  /// Binds `prog` to `cpu` (the program is copied and kept alive by the
  /// machine). The sched_setaffinity analog: one software thread per
  /// logical processor.
  void load_program(CpuId cpu, isa::Program prog,
                    const cpu::ArchState& init = {});

  void run(Cycle max_cycles = cpu::kDefaultMaxCycles) {
    core_.run(max_cycles);
  }
  /// Non-aborting run: deadlock / exhausted cycle budget / host
  /// cancellation come back as a structured cpu::RunResult instead of an
  /// SMT_CHECK abort; the machine stays inspectable (counters, cycles,
  /// memory reflect the partial run). run() above keeps the legacy
  /// crash-on-deadlock contract. StopWhen::kAnyDone stops at the first
  /// exiting context (see cpu::Core::try_run).
  cpu::RunResult try_run(Cycle max_cycles = cpu::kDefaultMaxCycles,
                         cpu::StopWhen stop = cpu::StopWhen::kAllDone) {
    return core_.try_run(max_cycles, stop);
  }
  /// Installs the cancellation predicate try_run polls (the sweep job
  /// pool's wall-clock watchdog); see cpu::Core::set_cancel_check.
  void set_cancel_check(std::function<bool()> cancel) {
    core_.set_cancel_check(std::move(cancel));
  }

  Cycle cycles() const { return core_.now(); }

 private:
  MachineConfig cfg_;
  mem::SimMemory memory_;
  mem::CacheHierarchy hierarchy_;
  perfmon::PerfCounters counters_;
  std::shared_ptr<trace::Telemetry> telemetry_;
  std::shared_ptr<profile::PcProfiler> pc_profiler_;
  std::shared_ptr<analysis::RaceDetector> race_detector_;
  std::shared_ptr<profile::InterferenceProfiler> interference_;
  std::shared_ptr<trace::PipeViewRecorder> pipeview_;
  std::shared_ptr<FlightRecorder> flight_recorder_;
  cpu::Core core_;
  std::array<std::optional<isa::Program>, kNumLogicalCpus> programs_;
};

}  // namespace smt::core

#include "streams/stream_runner.h"

#include "common/check.h"
#include "perfmon/events.h"

namespace smt::streams {

using perfmon::Event;

StreamMeasurement run_single(const StreamSpec& spec,
                             const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  mem::MemoryLayout layout;
  m.load_program(CpuId::kCpu0, build_stream(spec, layout, 0));
  m.run();

  StreamMeasurement r;
  r.cycles = m.cycles();
  r.instrs[0] = m.counters().get(CpuId::kCpu0, Event::kInstrRetired);
  r.cpi[0] = m.counters().cpi(CpuId::kCpu0);
  r.stats.workload = spec.label();
  r.stats.cycles = m.cycles();
  r.stats.events = m.counters().snapshot();
  r.stats.verified = true;
  r.stats.config = m.config();
  return r;
}

StreamMeasurement run_pair(const StreamSpec& a, const StreamSpec& b,
                           const core::MachineConfig& cfg) {
  core::Machine m(cfg);
  mem::MemoryLayout layout;
  m.load_program(CpuId::kCpu0, build_stream(a, layout, 0));
  m.load_program(CpuId::kCpu1, build_stream(b, layout, 1));
  const cpu::RunResult run =
      m.try_run(cpu::kDefaultMaxCycles, cpu::StopWhen::kAnyDone);
  SMT_CHECK_MSG(run.ok(), run.message.c_str());

  StreamMeasurement r;
  r.cycles = m.cycles();
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const CpuId cpu = static_cast<CpuId>(i);
    r.instrs[i] = m.counters().get(cpu, Event::kInstrRetired);
    r.cpi[i] = m.counters().cpi(cpu);
  }
  r.stats.workload = a.label() + "+" + b.label();
  r.stats.cycles = m.cycles();
  r.stats.events = m.counters().snapshot();
  r.stats.verified = true;
  r.stats.config = m.config();
  return r;
}

double slowdown_factor(const StreamSpec& victim, const StreamSpec& aggressor,
                       const core::MachineConfig& cfg) {
  const StreamMeasurement alone = run_single(victim, cfg);
  const StreamMeasurement pair = run_pair(victim, aggressor, cfg);
  SMT_CHECK(alone.cpi[0] > 0.0);
  return pair.cpi[0] / alone.cpi[0] - 1.0;
}

}  // namespace smt::streams

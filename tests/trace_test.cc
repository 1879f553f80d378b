// Tests for the time-resolved telemetry subsystem: the windowed counter
// sampler, the cycle-stamped event recorder, and the two hard guarantees
// — tracing never perturbs a measurement, and window deltas are exact
// under event-skip fast-forward.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/machine.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "cpu/observer.h"
#include "isa/asm_builder.h"
#include "kernels/matmul.h"
#include "perfmon/counters.h"
#include "perfmon/events.h"
#include "profile/mix_profiler.h"
#include "trace/recorder.h"
#include "trace/sampler.h"
#include "trace/telemetry.h"

namespace smt {
namespace {

using core::MachineConfig;
using core::RunStats;
using kernels::MatMulParams;
using kernels::MatMulWorkload;
using kernels::MmMode;
using perfmon::Event;
using cpu::GuestAccess;
using trace::CounterSampler;
using trace::TelemetryConfig;
using trace::TraceEvent;
using trace::TraceKind;
using trace::TraceRecorder;

constexpr CpuId kC0 = CpuId::kCpu0;
constexpr CpuId kC1 = CpuId::kCpu1;

/// Installs `cfg` as the process-global telemetry default for the scope
/// (Machine's constructor consults it) and restores "disabled" on exit.
struct ScopedGlobalTelemetry {
  explicit ScopedGlobalTelemetry(const TelemetryConfig& cfg) {
    trace::set_global_telemetry(cfg);
  }
  ~ScopedGlobalTelemetry() { trace::set_global_telemetry(TelemetryConfig{}); }
};

TelemetryConfig small_windows() {
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_window = 256;
  return cfg;
}

/// The paper's SPR matmul: worker + prefetcher with throttling barriers
/// (halt/IPI protocol when `halt_barriers`), the richest event source.
RunStats run_spr_matmul(bool traced, bool event_skip, bool halt_barriers) {
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  p.halt_barriers = halt_barriers;
  MatMulWorkload w(p);
  MachineConfig cfg;
  cfg.core.event_skip = event_skip;
  if (traced) {
    ScopedGlobalTelemetry g(small_windows());
    return core::run_workload(cfg, w);
  }
  return core::run_workload(cfg, w);
}

int count_kind(const std::vector<TraceEvent>& evs, TraceKind k) {
  int n = 0;
  for (const TraceEvent& e : evs) {
    if (e.kind == k) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// CounterSampler unit behavior
// ---------------------------------------------------------------------------

TEST(CounterSampler, BoundariesCutExactWindows) {
  perfmon::PerfCounters ctr;
  CounterSampler s(ctr, /*window=*/100);
  EXPECT_EQ(s.next_window(), 100u);

  ctr.add(kC0, Event::kInstrRetired, 7);
  s.on_window(100);
  ctr.add(kC0, Event::kInstrRetired, 5);
  ctr.add(kC1, Event::kL2ReadMisses, 2);
  s.on_window(200);

  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_EQ(s.windows()[0].begin, 0u);
  EXPECT_EQ(s.windows()[0].end, 100u);
  EXPECT_EQ(s.windows()[0].delta.get(kC0, Event::kInstrRetired), 7u);
  EXPECT_EQ(s.windows()[1].begin, 100u);
  EXPECT_EQ(s.windows()[1].end, 200u);
  EXPECT_EQ(s.windows()[1].delta.get(kC0, Event::kInstrRetired), 5u);
  EXPECT_EQ(s.windows()[1].delta.get(kC1, Event::kL2ReadMisses), 2u);
}

TEST(CounterSampler, FinalizeFlushesPartialTail) {
  perfmon::PerfCounters ctr;
  CounterSampler s(ctr, 100);
  s.on_window(100);
  ctr.add(kC0, Event::kUopsRetired, 3);
  s.finalize(150);
  ASSERT_EQ(s.windows().size(), 2u);
  EXPECT_EQ(s.windows()[1].begin, 100u);
  EXPECT_EQ(s.windows()[1].end, 150u);
  EXPECT_EQ(s.windows()[1].delta.get(kC0, Event::kUopsRetired), 3u);
  // Finalizing again at the same cycle adds nothing.
  s.finalize(150);
  EXPECT_EQ(s.windows().size(), 2u);
}

TEST(CounterSampler, FinalizeCatchesUpMissedBoundaries) {
  // A hand-driven machine may never raise on_window; finalize still
  // produces the dense window sequence.
  perfmon::PerfCounters ctr;
  CounterSampler s(ctr, 100);
  ctr.add(kC1, Event::kCyclesActive, 450);
  s.finalize(450);
  ASSERT_EQ(s.windows().size(), 5u);
  EXPECT_EQ(s.windows()[4].begin, 400u);
  EXPECT_EQ(s.windows()[4].end, 450u);
  uint64_t sum = 0;
  for (const auto& w : s.windows()) sum += w.delta.get(kC1, Event::kCyclesActive);
  EXPECT_EQ(sum, 450u);
}

// ---------------------------------------------------------------------------
// TraceRecorder unit behavior
// ---------------------------------------------------------------------------

TEST(TraceRecorder, RingIsBoundedAndOldestFirst) {
  TraceRecorder rec(/*capacity=*/4, /*l2_burst_gap=*/0);
  for (int i = 0; i < 10; ++i) {
    rec.on_ipi_send(kC0, static_cast<Cycle>(i));
  }
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  // Oldest surviving event first.
  for (size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].ts, 6u + i);
    EXPECT_EQ(evs[i].kind, TraceKind::kIpiSend);
  }
}

TEST(TraceRecorder, PairsLockAcquireAndRelease) {
  TraceRecorder rec(64, 0);
  const Addr lock = 0x1000;
  const int ann = rec.annotate_lock(lock, "l");
  EXPECT_TRUE(rec.watches(lock));
  EXPECT_FALSE(rec.watches(lock + 8));

  // A contended attempt (xchg reads 1: not held), the acquire (reads 0),
  // and the release (stores 0).
  rec.on_guest_access(kC1, 0, lock, GuestAccess::kXchg, /*value=*/1, 10);
  rec.on_guest_access(kC1, 0, lock, GuestAccess::kXchg, /*value=*/0, 20);
  rec.on_guest_access(kC1, 0, lock, GuestAccess::kStore, /*value=*/0, 50);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kLockHeld), 1);
  for (const TraceEvent& e : evs) {
    if (e.kind != TraceKind::kLockHeld) continue;
    EXPECT_EQ(e.ts, 20u);
    EXPECT_EQ(e.ts2, 50u);
    EXPECT_EQ(e.cpu, 1);
    EXPECT_EQ(e.ann, ann);
  }
}

TEST(TraceRecorder, FinalizeClosesHeldLock) {
  TraceRecorder rec(64, 0);
  const Addr lock = 0x2000;
  rec.annotate_lock(lock, "l");
  rec.on_guest_access(kC0, 0, lock, GuestAccess::kXchg, 0, 5);
  rec.finalize(100);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kLockHeld), 1);
  EXPECT_EQ(evs[0].ts, 5u);
  EXPECT_EQ(evs[0].ts2, 100u);
}

TEST(TraceRecorder, PairsBarrierEpisodes) {
  TraceRecorder rec(64, 0);
  const Addr f0 = 0x100, f1 = 0x200;
  const int ann = rec.annotate_barrier(f0, f1, "b", /*spr=*/true);

  // Episode 1: cpu0 arrives first (stores episode counter 1), cpu1 later.
  rec.on_guest_access(kC0, 0, f0, GuestAccess::kStore, 1, 10);
  rec.on_guest_access(kC1, 0, f1, GuestAccess::kStore, 1, 40);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kBarrierEpisode), 1);
  ASSERT_EQ(count_kind(evs, TraceKind::kBarrierWait), 1);
  ASSERT_EQ(count_kind(evs, TraceKind::kSprHandoff), 1);
  for (const TraceEvent& e : evs) {
    if (e.kind == TraceKind::kBarrierEpisode) {
      EXPECT_EQ(e.ts, 10u);
      EXPECT_EQ(e.ts2, 40u);
      EXPECT_EQ(e.ann, ann);
      EXPECT_EQ(e.arg, 1u);
    } else if (e.kind == TraceKind::kBarrierWait) {
      // The early arriver (cpu0) waited 10 -> 40 on its own track.
      EXPECT_EQ(e.cpu, 0);
      EXPECT_EQ(e.ts, 10u);
      EXPECT_EQ(e.ts2, 40u);
    }
  }
}

TEST(TraceRecorder, GroupsL2MissBursts) {
  TraceRecorder rec(64, /*l2_burst_gap=*/50);
  rec.on_demand_miss(kC0, 0, /*l2_miss=*/true, 100);
  rec.on_demand_miss(kC0, 0, true, 120);
  rec.on_demand_miss(kC0, 0, true, 140);
  rec.on_demand_miss(kC0, 0, true, 500);  // beyond the gap: new burst
  rec.finalize(600);
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kL2MissBurst), 2);
  EXPECT_EQ(evs[0].ts, 100u);
  EXPECT_EQ(evs[0].arg, 3u);
  EXPECT_EQ(evs[1].ts, 500u);
  EXPECT_EQ(evs[1].arg, 1u);
}

TEST(TraceRecorder, PairsHaltSpans) {
  TraceRecorder rec(64, 0);
  rec.on_halt_enter(kC1, 30);
  rec.on_halt_exit(kC1, 90);
  rec.on_halt_enter(kC1, 200);
  rec.finalize(250);  // still halted at the end of the run
  const auto evs = rec.events();
  ASSERT_EQ(count_kind(evs, TraceKind::kHaltSpan), 2);
  EXPECT_EQ(evs[0].ts, 30u);
  EXPECT_EQ(evs[0].ts2, 90u);
  EXPECT_EQ(evs[1].ts, 200u);
  EXPECT_EQ(evs[1].ts2, 250u);
}

// ---------------------------------------------------------------------------
// Hard guarantee 1: tracing never perturbs a measurement
// ---------------------------------------------------------------------------

TEST(Telemetry, FinalizeIsIdempotentAcrossCallSites) {
  // finalize() is reached from three sites (core::run_workload, bench
  // stats_from, report_from_machine) that may all touch one run's
  // telemetry. That used to work only by accident — the instruments
  // happened to tolerate re-finalizing at the *same* end cycle; the
  // explicit guard must make later calls no-ops even with a different
  // end, or the series would grow a bogus tail window / re-close spans.
  perfmon::PerfCounters ctr;
  TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.sample_window = 100;
  trace::Telemetry t(cfg, ctr);
  ctr.add(kC0, Event::kInstrRetired, 7);
  t.recorder().on_halt_enter(kC1, 50);  // open span for finalize to close

  EXPECT_FALSE(t.finalized());
  t.finalize(150);
  EXPECT_TRUE(t.finalized());
  const size_t windows = t.sampler().windows().size();
  const size_t events = t.recorder().events().size();
  ASSERT_GT(windows, 0u);
  EXPECT_EQ(t.sampler().windows().back().end, 150u);

  t.finalize(150);
  t.finalize(400);  // later end: still a no-op
  EXPECT_EQ(t.sampler().windows().size(), windows);
  EXPECT_EQ(t.recorder().events().size(), events);
  EXPECT_EQ(t.sampler().windows().back().end, 150u);
}

TEST(Telemetry, TracingDoesNotPerturbAnyCounter) {
  for (const bool event_skip : {false, true}) {
    const RunStats off = run_spr_matmul(false, event_skip, true);
    const RunStats on = run_spr_matmul(true, event_skip, true);
    ASSERT_TRUE(off.verified);
    ASSERT_TRUE(on.verified);
    ASSERT_NE(on.telemetry, nullptr);
    EXPECT_EQ(off.telemetry, nullptr);
    EXPECT_EQ(on.cycles, off.cycles);
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        EXPECT_EQ(on.events.get(cpu, ev), off.events.get(cpu, ev))
            << "cpu" << c << " " << perfmon::name(ev)
            << " event_skip=" << event_skip;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hard guarantee 2: windows are exact under event-skip fast-forward
// ---------------------------------------------------------------------------

TEST(Telemetry, WindowsBitIdenticalAcrossEventSkip) {
  const RunStats skip = run_spr_matmul(true, true, true);
  const RunStats step = run_spr_matmul(true, false, true);
  ASSERT_NE(skip.telemetry, nullptr);
  ASSERT_NE(step.telemetry, nullptr);
  EXPECT_EQ(skip.cycles, step.cycles);

  const auto& ws = skip.telemetry->sampler().windows();
  const auto& wt = step.telemetry->sampler().windows();
  ASSERT_EQ(ws.size(), wt.size());
  ASSERT_GT(ws.size(), 1u);  // the run must actually span several windows
  for (size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].begin, wt[i].begin);
    EXPECT_EQ(ws[i].end, wt[i].end);
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        EXPECT_EQ(ws[i].delta.get(cpu, ev), wt[i].delta.get(cpu, ev))
            << "window " << i << " cpu" << c << " " << perfmon::name(ev);
      }
    }
  }
}

TEST(Telemetry, WindowDeltasSumToRunTotals) {
  for (const bool event_skip : {false, true}) {
    const RunStats stats = run_spr_matmul(true, event_skip, false);
    ASSERT_NE(stats.telemetry, nullptr);
    const auto& windows = stats.telemetry->sampler().windows();
    ASSERT_FALSE(windows.empty());
    // Windows tile [0, cycles) without gaps.
    EXPECT_EQ(windows.front().begin, 0u);
    EXPECT_EQ(windows.back().end, stats.cycles);
    for (size_t i = 1; i < windows.size(); ++i) {
      EXPECT_EQ(windows[i].begin, windows[i - 1].end);
    }
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        uint64_t sum = 0;
        for (const auto& w : windows) sum += w.delta.get(cpu, ev);
        EXPECT_EQ(sum, stats.events.get(cpu, ev))
            << "cpu" << c << " " << perfmon::name(ev)
            << " event_skip=" << event_skip;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end artifacts
// ---------------------------------------------------------------------------

TEST(Telemetry, SprRunRecordsTheExpectedEventKinds) {
  const RunStats stats = run_spr_matmul(true, true, true);
  ASSERT_NE(stats.telemetry, nullptr);
  const auto evs = stats.telemetry->recorder().events();
  EXPECT_EQ(stats.telemetry->recorder().dropped(), 0u);
  EXPECT_GT(count_kind(evs, TraceKind::kHaltSpan), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kIpiSend), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kIpiWake), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kBarrierEpisode), 0);
  EXPECT_GT(count_kind(evs, TraceKind::kSprHandoff), 0);
  // Spans are well-formed and every event is within the run.
  for (const TraceEvent& e : evs) {
    EXPECT_LE(e.ts, e.ts2);
    EXPECT_LE(e.ts2, stats.cycles);
  }
}

TEST(Telemetry, ChromeTraceJsonIsWellFormed) {
  const RunStats stats = run_spr_matmul(true, true, true);
  ASSERT_NE(stats.telemetry, nullptr);
  const auto doc = parse_json(trace::chrome_trace_json(*stats.telemetry));
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  bool saw_meta = false, saw_halt = false, saw_episode = false;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* ph = e.find("ph");
    const JsonValue* name = e.find("name");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    ASSERT_NE(name, nullptr);
    for (const char* key : {"pid", "tid", "ts"}) {
      if (ph->string == "M") break;  // metadata carries no ts
      const JsonValue* v = e.find(key);
      ASSERT_NE(v, nullptr) << key;
      ASSERT_TRUE(v->is_number()) << key;
    }
    if (ph->string == "X") {
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(dur, nullptr);
      EXPECT_GE(dur->number, 0.0);
    }
    if (ph->string == "M") saw_meta = true;
    if (name->string == "halt") saw_halt = true;
    // Annotated events carry the annotation's name: "barrier_episode <bar>".
    if (name->string.rfind("barrier_episode", 0) == 0) saw_episode = true;
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_halt);
  EXPECT_TRUE(saw_episode);
}

TEST(Telemetry, TracedReportUsesSchema2WithTimeseries) {
  const RunStats traced = run_spr_matmul(true, true, false);
  const auto doc =
      parse_json(core::RunReport::from(traced).to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->string, "smt-run-report/2");
  const JsonValue* ts = doc->find("timeseries");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->find("window_cycles")->number, 256.0);
  EXPECT_FALSE(ts->find("windows")->array.empty());

  // Untraced runs keep the /1 schema with no timeseries section.
  const RunStats plain = run_spr_matmul(false, true, false);
  const auto doc1 = parse_json(core::RunReport::from(plain).to_json());
  ASSERT_TRUE(doc1.has_value());
  EXPECT_EQ(doc1->find("schema")->string, "smt-run-report/1");
  EXPECT_EQ(doc1->find("timeseries"), nullptr);
}

// ---------------------------------------------------------------------------
// Observer bus: fan-out, interest masks and program replay
// ---------------------------------------------------------------------------

constexpr uint32_t kEveryEvent = (1u << cpu::Observer::kNumInterests) - 1;

/// Folds every event it is offered into a running FNV-1a digest plus a
/// per-event count, so two runs compare event for event. It keeps its own
/// window grid (every 1000 cycles) beside the sampler's.
class EventLog final : public cpu::Observer {
 public:
  explicit EventLog(uint32_t mask = kEveryEvent) : mask_(mask) {}

  uint32_t interests() const override { return mask_; }
  void on_program(CpuId cpu, const isa::Program& prog) override {
    log(kProgram, idx(cpu), prog.size());
  }
  void on_fetch(CpuId cpu, const cpu::DynUop& u, Cycle now) override {
    log(kFetch, idx(cpu), u.uid, u.pc, now);
  }
  void on_dispatch(CpuId cpu, const cpu::DynUop& u, Cycle now) override {
    log(kDispatch, idx(cpu), u.uid, now);
  }
  void on_issue(CpuId cpu, const cpu::DynUop& u, int port, Cycle now,
                Cycle done) override {
    log(kIssue, idx(cpu), u.uid, port, now, done);
  }
  void on_retire(CpuId cpu, const cpu::DynUop& u, int uops,
                 Cycle now) override {
    log(kRetire, idx(cpu), u.uid, uops, now);
  }
  void on_stall(CpuId cpu, cpu::BlockReason reason, uint32_t pc, bool sibling,
                int port, Cycle cycles) override {
    log(kStall, idx(cpu), reason, pc, sibling, port, cycles);
  }
  void on_demand_miss(CpuId cpu, uint32_t pc, bool l2_miss,
                      Cycle now) override {
    log(kDemandMiss, idx(cpu), pc, l2_miss, now);
  }
  void on_guest_access(CpuId cpu, uint32_t pc, Addr addr, GuestAccess kind,
                       uint64_t value, Cycle now) override {
    log(kGuestAccess, idx(cpu), pc, addr, kind, value, now);
  }
  void on_halt_enter(CpuId cpu, Cycle now) override {
    log(kHaltEnter, idx(cpu), now);
  }
  void on_halt_exit(CpuId cpu, Cycle now) override {
    log(kHaltExit, idx(cpu), now);
  }
  void on_ipi_send(CpuId cpu, Cycle now) override {
    log(kIpiSend, idx(cpu), now);
  }
  void on_ipi_wake(CpuId cpu, Cycle now) override {
    log(kIpiWake, idx(cpu), now);
  }
  Cycle next_window() const override { return next_window_; }
  void on_window(Cycle boundary) override {
    log(kWindow, boundary);
    next_window_ = boundary + 1000;
  }

  uint64_t digest() const { return digest_; }
  uint64_t count(Interest e) const { return counts_[std::countr_zero(+e)]; }
  uint64_t calls() const {
    uint64_t n = 0;
    for (const uint64_t c : counts_) n += c;
    return n;
  }

 private:
  template <typename... Fields>
  void log(Interest e, Fields... fields) {
    ++counts_[std::countr_zero(+e)];
    mix(e);
    (mix(static_cast<uint64_t>(fields)), ...);
  }
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest_ = (digest_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }

  uint32_t mask_;
  Cycle next_window_ = 1000;
  uint64_t digest_ = 0xcbf29ce484222325ull;
  std::array<uint64_t, cpu::Observer::kNumInterests> counts_{};
};

struct LoggedRun {
  EventLog log;
  perfmon::Snapshot events;
  Cycle cycles = 0;
};

/// The halt-barrier SPR matmul with an EventLog attached — alone, or after
/// every other observer (telemetry, PC and interference profilers, pipeline
/// trace, race detector, flight recorder, instruction-mix profiler).
void run_logged(bool beside_all, bool event_skip, LoggedRun& out) {
  TelemetryConfig tc;
  if (beside_all) {
    tc = small_windows();
    tc.pc_profile = true;
    tc.interference = true;
    tc.pipeview = true;
  }
  ScopedGlobalTelemetry g(tc);
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  p.halt_barriers = true;
  MatMulWorkload w(p);
  MachineConfig cfg;
  cfg.core.event_skip = event_skip;
  core::Machine m(cfg);
  profile::MixProfiler mix;
  if (beside_all) {
    m.enable_race_detector();
    m.enable_flight_recorder();
    m.core().attach(&mix);
  }
  m.core().attach(&out.log);
  w.setup(m);
  std::vector<isa::Program> progs = w.programs();
  for (size_t i = 0; i < progs.size(); ++i) {
    m.load_program(static_cast<CpuId>(i), std::move(progs[i]));
  }
  m.run();
  EXPECT_TRUE(w.verify(m));
  out.events = m.counters().snapshot();
  out.cycles = m.cycles();
}

TEST(ObserverBus, EventSequenceIdenticalAloneAndBesideEveryObserver) {
  for (const bool event_skip : {false, true}) {
    LoggedRun alone, beside;
    run_logged(false, event_skip, alone);
    run_logged(true, event_skip, beside);
    EXPECT_EQ(alone.cycles, beside.cycles);
    for (int c = 0; c < kNumLogicalCpus; ++c) {
      for (int e = 0; e < perfmon::kNumEventValues; ++e) {
        const CpuId cpu = static_cast<CpuId>(c);
        const Event ev = static_cast<Event>(e);
        EXPECT_EQ(alone.events.get(cpu, ev), beside.events.get(cpu, ev))
            << "cpu" << c << " " << perfmon::name(ev);
      }
    }
    for (int e = 0; e < cpu::Observer::kNumInterests; ++e) {
      const auto ev = static_cast<cpu::Observer::Interest>(1u << e);
      // The run must exercise every event, or the comparison shows little.
      EXPECT_GT(alone.log.count(ev), 0u) << "event bit " << e;
      EXPECT_EQ(alone.log.count(ev), beside.log.count(ev))
          << "event bit " << e << " event_skip=" << event_skip;
    }
    EXPECT_EQ(alone.log.digest(), beside.log.digest())
        << "event_skip=" << event_skip;
  }
}

/// Counts every call it receives, whatever its interest mask says.
class Tripwire final : public cpu::Observer {
 public:
  uint32_t interests() const override { return 0; }
  void on_program(CpuId, const isa::Program&) override { ++calls; }
  void on_fetch(CpuId, const cpu::DynUop&, Cycle) override { ++calls; }
  void on_dispatch(CpuId, const cpu::DynUop&, Cycle) override { ++calls; }
  void on_issue(CpuId, const cpu::DynUop&, int, Cycle, Cycle) override {
    ++calls;
  }
  void on_retire(CpuId, const cpu::DynUop&, int, Cycle) override { ++calls; }
  void on_stall(CpuId, cpu::BlockReason, uint32_t, bool, int,
                Cycle) override {
    ++calls;
  }
  void on_demand_miss(CpuId, uint32_t, bool, Cycle) override { ++calls; }
  void on_guest_access(CpuId, uint32_t, Addr, GuestAccess, uint64_t,
                       Cycle) override {
    ++calls;
  }
  void on_halt_enter(CpuId, Cycle) override { ++calls; }
  void on_halt_exit(CpuId, Cycle) override { ++calls; }
  void on_ipi_send(CpuId, Cycle) override { ++calls; }
  void on_ipi_wake(CpuId, Cycle) override { ++calls; }
  // Always "due": a core that consulted it would call on_window at once.
  Cycle next_window() const override {
    ++calls;
    return 0;
  }
  void on_window(Cycle) override { ++calls; }

  mutable uint64_t calls = 0;
};

TEST(ObserverBus, EmptyInterestMaskReceivesNoCall) {
  for (const bool with_sibling : {false, true}) {
    MatMulParams p;
    p.n = 16;
    p.tile = 4;
    p.mode = MmMode::kTlpPfetch;
    p.halt_barriers = true;
    MatMulWorkload w(p);
    core::Machine m;
    Tripwire silent;
    EventLog log;
    m.core().attach(&silent);
    // A second observer routes events through the tee.
    if (with_sibling) m.core().attach(&log);
    w.setup(m);
    std::vector<isa::Program> progs = w.programs();
    for (size_t i = 0; i < progs.size(); ++i) {
      m.load_program(static_cast<CpuId>(i), std::move(progs[i]));
    }
    m.run();
    EXPECT_TRUE(w.verify(m));
    EXPECT_EQ(silent.calls, 0u) << "with_sibling=" << with_sibling;
    if (with_sibling) {
      EXPECT_GT(log.calls(), 0u);
    }
  }
}

TEST(ObserverBus, LateAttachReplaysProgramsForBothCpus) {
  isa::AsmBuilder a("a");
  a.exit();
  isa::AsmBuilder b("b");
  b.nop();
  b.exit();
  core::Machine m;
  EventLog early(cpu::Observer::kProgram);
  m.core().attach(&early);
  m.load_program(kC0, a.take());
  m.load_program(kC1, b.take());
  EventLog late(cpu::Observer::kProgram);
  m.core().attach(&late);  // after both load_program calls
  EXPECT_EQ(late.count(cpu::Observer::kProgram), 2u);
  // The early observer saw each program once, at load time, and the late
  // attach replayed to the newcomer only.
  EXPECT_EQ(early.count(cpu::Observer::kProgram), 2u);
  EXPECT_EQ(early.digest(), late.digest());
  m.run();
  EXPECT_EQ(late.count(cpu::Observer::kProgram), 2u);
}

}  // namespace
}  // namespace smt

// Tests for the SMT core: functional correctness of the interpreter,
// timing behaviour of the scoreboard/ports, SMT resource sharing, and the
// pause/halt/IPI machinery the paper's synchronization layer relies on.
#include <gtest/gtest.h>

#include "core/machine.h"
#include "isa/asm_builder.h"
#include "perfmon/events.h"
#include "sync/primitives.h"

namespace smt {
namespace {

using core::Machine;
using core::MachineConfig;
using isa::AsmBuilder;
using isa::BrCond;
using isa::FReg;
using isa::IReg;
using isa::Label;
using isa::Mem;
using perfmon::Event;

constexpr CpuId kC0 = CpuId::kCpu0;
constexpr CpuId kC1 = CpuId::kCpu1;

double cpi(const Machine& m, CpuId c) { return m.counters().cpi(c); }

// ---------------------------------------------------------------------------
// Functional correctness
// ---------------------------------------------------------------------------

TEST(Functional, IntegerArithmetic) {
  AsmBuilder a("int");
  a.imovi(IReg::R0, 20);
  a.imovi(IReg::R1, 3);
  a.iadd(IReg::R2, IReg::R0, IReg::R1);   // 23
  a.isub(IReg::R3, IReg::R0, IReg::R1);   // 17
  a.imul(IReg::R4, IReg::R0, IReg::R1);   // 60
  a.idiv(IReg::R5, IReg::R0, IReg::R1);   // 6
  a.iand(IReg::R6, IReg::R0, IReg::R1);   // 0
  a.ior(IReg::R7, IReg::R0, IReg::R1);    // 23
  a.ixori(IReg::R8, IReg::R0, 0xff);      // 235
  a.ishli(IReg::R9, IReg::R1, 4);         // 48
  a.ishri(IReg::R10, IReg::R0, 2);        // 5
  a.imov(IReg::R11, IReg::R2);            // 23
  a.exit();

  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  const auto& st = m.core().arch(kC0);
  EXPECT_EQ(st.ireg(IReg::R2), 23);
  EXPECT_EQ(st.ireg(IReg::R3), 17);
  EXPECT_EQ(st.ireg(IReg::R4), 60);
  EXPECT_EQ(st.ireg(IReg::R5), 6);
  EXPECT_EQ(st.ireg(IReg::R6), 0);
  EXPECT_EQ(st.ireg(IReg::R7), 23);
  EXPECT_EQ(st.ireg(IReg::R8), 235);
  EXPECT_EQ(st.ireg(IReg::R9), 48);
  EXPECT_EQ(st.ireg(IReg::R10), 5);
  EXPECT_EQ(st.ireg(IReg::R11), 23);
}

TEST(Functional, DivideByZeroIsDefined) {
  AsmBuilder a("div0");
  a.imovi(IReg::R0, 7);
  a.imovi(IReg::R1, 0);
  a.idiv(IReg::R2, IReg::R0, IReg::R1);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R2), 0);
}

TEST(Functional, FloatingPointArithmetic) {
  AsmBuilder a("fp");
  a.fmovi(FReg::F0, 6.0);
  a.fmovi(FReg::F1, 1.5);
  a.fadd(FReg::F2, FReg::F0, FReg::F1);
  a.fsub(FReg::F3, FReg::F0, FReg::F1);
  a.fmul(FReg::F4, FReg::F0, FReg::F1);
  a.fdiv(FReg::F5, FReg::F0, FReg::F1);
  a.fneg(FReg::F6, FReg::F1);
  a.fmov(FReg::F7, FReg::F2);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  const auto& st = m.core().arch(kC0);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F2), 7.5);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F3), 4.5);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F4), 9.0);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F5), 4.0);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F6), -1.5);
  EXPECT_DOUBLE_EQ(st.freg(FReg::F7), 7.5);
}

TEST(Functional, LoopSum) {
  // sum = 0; for (i = 1; i <= 100; i++) sum += i;
  AsmBuilder a("loop");
  a.imovi(IReg::R0, 0);
  a.imovi(IReg::R1, 1);
  Label loop = a.here();
  a.iadd(IReg::R0, IReg::R0, IReg::R1);
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLe, IReg::R1, 100, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R0), 5050);
}

TEST(Functional, LoadStoreAddressing) {
  Machine m;
  m.memory().write_f64(0x8000 + 5 * 8, 2.5);
  AsmBuilder a("mem");
  a.imovi(IReg::R0, 0x8000);
  a.imovi(IReg::R1, 5);
  a.fload(FReg::F0, Mem::bi(IReg::R0, IReg::R1, 3));
  a.fmul(FReg::F0, FReg::F0, FReg::F0);
  a.fstore(FReg::F0, Mem::bd(IReg::R0, 8 * 9));
  a.imovi(IReg::R2, 77);
  a.store(IReg::R2, Mem::abs(0x9000));
  a.load(IReg::R3, Mem::abs(0x9000));
  a.exit();
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_DOUBLE_EQ(m.memory().read_f64(0x8000 + 9 * 8), 6.25);
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R3), 77);
}

TEST(Functional, BranchConditions) {
  AsmBuilder a("br");
  a.imovi(IReg::R0, 0);     // result bitmask
  a.imovi(IReg::R1, 5);
  Label l1 = a.label(), l2 = a.label(), l3 = a.label();
  a.bri(BrCond::kEq, IReg::R1, 5, l1);
  a.exit();                 // must be skipped
  a.bind(l1);
  a.iori(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kGt, IReg::R1, 5, l2);  // not taken
  a.iori(IReg::R0, IReg::R0, 2);
  a.bind(l2);
  a.bri(BrCond::kNe, IReg::R1, 4, l3);
  a.exit();
  a.bind(l3);
  a.iori(IReg::R0, IReg::R0, 4);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC0).ireg(IReg::R0), 7);
}

// ---------------------------------------------------------------------------
// Timing behaviour
// ---------------------------------------------------------------------------

isa::Program fadd_chain(int chains, int count) {
  AsmBuilder a("chain");
  for (int c = 0; c < chains; ++c) a.fmovi(isa::freg_n(c), 0.0);
  a.fmovi(FReg::F8, 1.0);
  for (int i = 0; i < count; ++i) {
    const FReg t = isa::freg_n(i % chains);
    a.fadd(t, t, FReg::F8);
  }
  a.exit();
  return a.take();
}

TEST(Timing, DependentFaddChainRunsAtUnitLatency) {
  Machine m;
  m.load_program(kC0, fadd_chain(1, 2000));
  m.run();
  const double c = cpi(m, kC0);
  const double lat = static_cast<double>(m.config().core.lat_fadd);
  EXPECT_NEAR(c, lat, 0.5);
  // And the chain's result is correct.
  EXPECT_DOUBLE_EQ(m.core().arch(kC0).freg(FReg::F0), 2000.0);
}

TEST(Timing, SixChainsSaturateTheFpAddUnit) {
  Machine m;
  m.load_program(kC0, fadd_chain(6, 3000));
  m.run();
  // One FP_ADD issue per cycle is the structural bound.
  EXPECT_NEAR(cpi(m, kC0), 1.0, 0.25);
}

TEST(Timing, ThreeChainsLandInBetween) {
  Machine m;
  m.load_program(kC0, fadd_chain(3, 3000));
  m.run();
  const double c = cpi(m, kC0);
  EXPECT_GT(c, 1.2);
  EXPECT_LT(c, 2.6);  // ~ lat/3
}

TEST(Timing, FdivIsUnpipelined) {
  AsmBuilder a("fdiv");
  for (int c = 0; c < 6; ++c) a.fmovi(isa::freg_n(c), 1.0);
  a.fmovi(FReg::F8, 1.0);
  for (int i = 0; i < 600; ++i) {
    const FReg t = isa::freg_n(i % 6);  // six independent chains
    a.fdiv(t, t, FReg::F8);
  }
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  // Even with max ILP, the single unpipelined divider serializes: CPI is
  // close to the divide latency, insensitive to ILP.
  EXPECT_NEAR(cpi(m, kC0), static_cast<double>(m.config().core.lat_fdiv),
              2.0);
}

TEST(Timing, CoRunningFaddStreamsShareTheUnit) {
  // Two max-ILP fadd threads fight over the single FP_ADD port: per-thread
  // CPI doubles, cumulative throughput gains nothing (paper Fig. 1).
  Machine m;
  m.load_program(kC0, fadd_chain(6, 3000));
  m.load_program(kC1, fadd_chain(6, 3000));
  m.run();
  EXPECT_NEAR(cpi(m, kC0), 2.0, 0.5);
  EXPECT_NEAR(cpi(m, kC1), 2.0, 0.5);
}

TEST(Timing, CoRunningMinIlpFaddStreamsOverlapFreely) {
  // At min ILP each thread only needs one FP_ADD slot every lat_fadd
  // cycles; SMT interleaves them with no slowdown (paper Fig. 1: the
  // min-ILP dual-threaded case is a pure win).
  Machine s;
  s.load_program(kC0, fadd_chain(1, 2000));
  s.run();
  const double alone = cpi(s, kC0);

  Machine m;
  m.load_program(kC0, fadd_chain(1, 2000));
  m.load_program(kC1, fadd_chain(1, 2000));
  m.run();
  EXPECT_NEAR(cpi(m, kC0), alone, 0.6);
  EXPECT_NEAR(cpi(m, kC1), alone, 0.6);
}

TEST(Timing, LoadsHitL1AfterWarmup) {
  AsmBuilder a("l1");
  a.imovi(IReg::R0, 0x10000);
  a.imovi(IReg::R1, 0);
  Label loop = a.here();
  a.load(IReg::R2, Mem::bd(IReg::R0, 0));  // same line every time
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, 1000, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  // Exactly one bus-level miss; the independent loads that overlap with the
  // in-flight fill each count as (merged) L1 misses, so a handful of those
  // are expected before the line lands.
  EXPECT_EQ(m.counters().get(kC0, Event::kL2Misses), 1u);
  EXPECT_LT(m.counters().get(kC0, Event::kL1Misses), 100u);
  EXPECT_GT(m.counters().get(kC0, Event::kL1Misses), 0u);
}

TEST(Timing, StreamingLoadsMissPerLine) {
  const int kWords = 4096;  // 32 KiB > L1, < L2
  AsmBuilder a("stream");
  a.imovi(IReg::R0, 0x100000);
  a.imovi(IReg::R1, 0);
  Label loop = a.here();
  a.load(IReg::R2, Mem::bi(IReg::R0, IReg::R1, 3));
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, kWords, loop);
  a.exit();
  MachineConfig cfg;
  cfg.mem.hw_stream_prefetch = false;  // count raw compulsory misses
  Machine m(cfg);
  m.load_program(kC0, a.take());
  m.run();
  // One L2 (cold) miss per 64-byte line.
  EXPECT_EQ(m.counters().get(kC0, Event::kL2Misses),
            static_cast<uint64_t>(kWords / 8));
}

TEST(Timing, HardwareStreamPrefetcherCoversSequentialStreams) {
  // The same sequential sweep with the Netburst-style stream engine on:
  // most lines are fetched ahead of the demand accesses, so bus-level
  // demand misses collapse and the sweep completes faster.
  const int kWords = 4096;
  auto build = [&] {
    AsmBuilder a("stream");
    a.imovi(IReg::R0, 0x100000);
    a.imovi(IReg::R1, 0);
    Label loop = a.here();
    a.load(IReg::R2, Mem::bi(IReg::R0, IReg::R1, 3));
    a.iaddi(IReg::R1, IReg::R1, 1);
    a.bri(BrCond::kLt, IReg::R1, kWords, loop);
    a.exit();
    return a.take();
  };
  MachineConfig off;
  off.mem.hw_stream_prefetch = false;
  Machine moff(off);
  moff.load_program(kC0, build());
  moff.run();

  Machine mon;  // default: prefetcher on
  mon.load_program(kC0, build());
  mon.run();

  // Most demand misses disappear (the stream engine fetches ahead). The
  // sweep itself is bus-bandwidth-bound, so wall time does not regress but
  // need not improve.
  EXPECT_LT(mon.counters().get(kC0, Event::kL2Misses),
            moff.counters().get(kC0, Event::kL2Misses) / 4);
  EXPECT_LE(mon.cycles(), moff.cycles());
}

// ---------------------------------------------------------------------------
// SMT resource semantics
// ---------------------------------------------------------------------------

TEST(Smt, StoreBufferStallsAreCountedUnderPressure) {
  // A long stream of stores that miss L2 drains slowly and fills the
  // partitioned store buffer; the allocator must record stall cycles.
  AsmBuilder a("stores");
  a.imovi(IReg::R0, 0x200000);
  a.imovi(IReg::R1, 0);
  a.imovi(IReg::R2, 1);
  Label loop = a.here();
  a.store(IReg::R2, Mem::bi(IReg::R0, IReg::R1, 3));
  a.iaddi(IReg::R1, IReg::R1, 8);  // one store per line
  a.bri(BrCond::kLt, IReg::R1, 3000 * 8, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  EXPECT_GT(m.counters().get(kC0, Event::kStoreBufferStallCycles), 100u);
  EXPECT_GE(m.counters().get(kC0, Event::kResourceStallCycles),
            m.counters().get(kC0, Event::kStoreBufferStallCycles));
}

TEST(Smt, InstructionAndUopCountsMatchProgram) {
  AsmBuilder a("count");
  a.imovi(IReg::R0, 0);
  Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, 50, loop);
  a.exit();
  Machine m;
  m.load_program(kC0, a.take());
  m.run();
  // imovi + 50*(iaddi + bri); exit does not retire.
  EXPECT_EQ(m.counters().get(kC0, Event::kInstrRetired), 101u);
  EXPECT_EQ(m.counters().get(kC0, Event::kUopsRetired), 101u);
  EXPECT_EQ(m.counters().get(kC0, Event::kBranchesRetired), 50u);
}

TEST(Smt, DynamicPartitioningNeverSlowsCoRunningThreads) {
  // The counterfactual dynamically-shared machine must be at least as fast
  // as the statically partitioned one for identical co-running threads
  // (it strictly relaxes the per-thread limits).
  auto run = [](bool static_part) {
    MachineConfig cfg;
    cfg.core.static_partitioning = static_part;
    Machine m(cfg);
    m.load_program(kC0, fadd_chain(6, 4000));
    m.load_program(kC1, fadd_chain(6, 4000));
    m.run();
    return m.cycles();
  };
  EXPECT_LE(run(false), run(true));
}

TEST(Smt, PartitioningDoesNotAffectSingleThread) {
  auto run = [](bool static_part) {
    MachineConfig cfg;
    cfg.core.static_partitioning = static_part;
    Machine m(cfg);
    m.load_program(kC0, fadd_chain(6, 4000));
    m.run();
    return m.cycles();
  };
  // A lone context always owns the full structures either way.
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// pause / halt / IPI / spin-wait
// ---------------------------------------------------------------------------

isa::Program spin_then_read(Addr flag, Addr data, sync::SpinKind kind) {
  AsmBuilder a("spinner");
  sync::emit_spin_until_eq(a, flag, IReg::R0, 1, kind);
  a.load(IReg::R1, Mem::abs(data));
  a.exit();
  return a.take();
}

isa::Program work_then_signal(Addr flag, Addr data, int work) {
  AsmBuilder a("worker");
  a.imovi(IReg::R0, 0);
  Label loop = a.here();
  a.iaddi(IReg::R0, IReg::R0, 1);
  a.bri(BrCond::kLt, IReg::R0, work, loop);
  a.imovi(IReg::R1, 42);
  a.store(IReg::R1, Mem::abs(data));
  sync::emit_flag_set(a, flag, IReg::R2, 1);
  a.exit();
  return a.take();
}

TEST(Sync, SpinWaitHandsOffData) {
  const Addr flag = 0x40000, data = 0x40040;
  Machine m;
  m.load_program(kC0, work_then_signal(flag, data, 500));
  m.load_program(kC1, spin_then_read(flag, data, sync::SpinKind::kPause));
  m.run();
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 42);
  EXPECT_GT(m.counters().get(kC1, Event::kPausesExecuted), 0u);
}

TEST(Sync, TightSpinTriggersMachineClearOnExit) {
  const Addr flag = 0x40000, data = 0x40040;
  Machine m;
  m.load_program(kC0, work_then_signal(flag, data, 500));
  m.load_program(kC1, spin_then_read(flag, data, sync::SpinKind::kTight));
  m.run();
  EXPECT_GE(m.counters().get(kC1, Event::kMachineClears), 1u);
}

TEST(Sync, PauseReducesSpinResourceConsumption) {
  const Addr flag = 0x40000, data = 0x40040;
  uint64_t uops[2];
  for (int k = 0; k < 2; ++k) {
    Machine m;
    const auto kind = k == 0 ? sync::SpinKind::kTight : sync::SpinKind::kPause;
    m.load_program(kC0, work_then_signal(flag, data, 2000));
    m.load_program(kC1, spin_then_read(flag, data, kind));
    m.run();
    uops[k] = m.counters().get(kC1, Event::kUopsRetired);
  }
  // The pause spinner executes far fewer uops while waiting.
  EXPECT_LT(uops[1] * 3, uops[0]);
}

TEST(Sync, HaltSleepsUntilIpi) {
  const Addr flag = 0x40000;
  // Thread 1: publish "sleeping", halt, then read the flag after waking.
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag + 64, IReg::R0, 1);
  s.halt();
  s.load(IReg::R1, Mem::abs(flag));
  s.exit();
  // Thread 0: do work, set flag, wait for sleeper to be asleep, wake it.
  AsmBuilder w("waker");
  sync::emit_flag_set(w, flag, IReg::R0, 7);
  sync::emit_spin_until_eq(w, flag + 64, IReg::R1, 1, sync::SpinKind::kPause);
  w.ipi();
  w.exit();
  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 7);
  EXPECT_GT(m.counters().get(kC1, Event::kCyclesHalted), 0u);
  EXPECT_EQ(m.counters().get(kC1, Event::kHaltTransitions), 1u);
  EXPECT_EQ(m.counters().get(kC0, Event::kIpisSent), 1u);
}

TEST(Sync, HaltTransitionsCostCycles) {
  const Addr flag = 0x40000;
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag, IReg::R0, 1);
  s.halt();
  s.exit();
  AsmBuilder w("waker");
  sync::emit_spin_until_eq(w, flag, IReg::R0, 1, sync::SpinKind::kPause);
  w.ipi();
  w.exit();
  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run();
  const auto& cc = m.config().core;
  EXPECT_GE(m.cycles(), cc.halt_enter_cost + cc.halt_wake_cost);
}

TEST(Sync, XchgLockProvidesMutualExclusion) {
  // Both threads do read-modify-write increments on a shared counter under
  // an xchg spin lock; without mutual exclusion updates would be lost.
  const Addr lock = 0x50000, counter = 0x50040;
  const int kIncs = 200;
  auto make = [&](const char* name) {
    AsmBuilder a(name);
    a.imovi(IReg::R3, 0);
    Label loop = a.here();
    sync::emit_lock_acquire(a, lock, IReg::R0, sync::SpinKind::kPause);
    a.load(IReg::R1, Mem::abs(counter));
    a.iaddi(IReg::R1, IReg::R1, 1);
    a.store(IReg::R1, Mem::abs(counter));
    sync::emit_lock_release(a, lock, IReg::R0);
    a.iaddi(IReg::R3, IReg::R3, 1);
    a.bri(BrCond::kLt, IReg::R3, kIncs, loop);
    a.exit();
    return a.take();
  };
  Machine m;
  m.load_program(kC0, make("inc0"));
  m.load_program(kC1, make("inc1"));
  m.run();
  EXPECT_EQ(m.memory().read_i64(counter), 2 * kIncs);
}

TEST(Sync, SenseReversingBarrierOrdersEpisodes) {
  mem::MemoryLayout layout(0x60000);
  sync::TwoThreadBarrier bar(layout, "b");
  const Addr a0 = layout.alloc("a0", 8);
  const Addr a1 = layout.alloc("a1", 8);

  // Thread 0 writes before each barrier; thread 1 reads after it; three
  // episodes verify sense reversal works repeatedly.
  AsmBuilder p0("prod");
  bar.emit_init(p0, IReg::R15);
  for (int e = 0; e < 3; ++e) {
    p0.imovi(IReg::R1, 10 + e);
    p0.store(IReg::R1, Mem::abs(a0));
    bar.emit_wait(p0, 0, IReg::R15, IReg::R0, sync::SpinKind::kPause);
    bar.emit_wait(p0, 0, IReg::R15, IReg::R0, sync::SpinKind::kPause);
  }
  p0.exit();

  AsmBuilder p1("cons");
  bar.emit_init(p1, IReg::R15);
  p1.imovi(IReg::R5, 0);
  for (int e = 0; e < 3; ++e) {
    bar.emit_wait(p1, 1, IReg::R15, IReg::R0, sync::SpinKind::kPause);
    p1.load(IReg::R1, Mem::abs(a0));
    p1.iadd(IReg::R5, IReg::R5, IReg::R1);  // accumulate 10+11+12 = 33
    p1.store(IReg::R5, Mem::abs(a1));
    bar.emit_wait(p1, 1, IReg::R15, IReg::R0, sync::SpinKind::kPause);
  }
  p1.exit();

  Machine m;
  m.load_program(kC0, p0.take());
  m.load_program(kC1, p1.take());
  m.run();
  EXPECT_EQ(m.memory().read_i64(a1), 33);
}

TEST(Sync, SleeperBarrierWakesAndSynchronizes) {
  mem::MemoryLayout layout(0x60000);
  sync::TwoThreadBarrier bar(layout, "hb");
  const Addr data = layout.alloc("data", 8);

  // Sleeper (thread 1) arrives first (no work) and halts; waker computes,
  // then wakes it; sleeper then reads the waker's data.
  AsmBuilder w("waker");
  bar.emit_init(w, IReg::R15);
  w.imovi(IReg::R0, 0);
  Label loop = w.here();
  w.iaddi(IReg::R0, IReg::R0, 1);
  w.bri(BrCond::kLt, IReg::R0, 3000, loop);
  w.imovi(IReg::R1, 123);
  w.store(IReg::R1, Mem::abs(data));
  bar.emit_wait_waker(w, 0, IReg::R15, IReg::R2, sync::SpinKind::kPause);
  w.exit();

  AsmBuilder s("sleeper");
  bar.emit_init(s, IReg::R15);
  bar.emit_wait_sleeper(s, 1, IReg::R15, IReg::R2);
  s.load(IReg::R3, Mem::abs(data));
  s.exit();

  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run();
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R3), 123);
  EXPECT_EQ(m.counters().get(kC1, Event::kHaltTransitions), 1u);
  EXPECT_GT(m.counters().get(kC1, Event::kCyclesHalted), 0u);
}

TEST(SyncDeath, LostWakeupIsCaughtByTheRuntime) {
  // A halt with no IPI ever coming must abort (all contexts asleep), not
  // hang forever.
  AsmBuilder s("stuck");
  s.halt();
  s.exit();
  Machine m;
  m.load_program(kC0, s.take());
  EXPECT_DEATH(m.run(), "asleep");
}

// ---------------------------------------------------------------------------
// try_run with StopWhen::kAnyDone
// ---------------------------------------------------------------------------

TEST(Runner, RunUntilAnyDoneReturnsTheFasterThread) {
  Machine m;
  m.load_program(kC0, fadd_chain(6, 200));
  m.load_program(kC1, fadd_chain(6, 20000));
  ASSERT_TRUE(m.try_run(cpu::kDefaultMaxCycles, cpu::StopWhen::kAnyDone).ok());
  EXPECT_TRUE(m.core().done(kC0));
  EXPECT_FALSE(m.core().done(kC1));
}

// ---------------------------------------------------------------------------
// Integer divide issue port (Netburst port 1, shared with the FP units)
// ---------------------------------------------------------------------------

isa::Program idiv_chain(int chains, int count) {
  AsmBuilder a("idiv");
  for (int c = 0; c < chains; ++c) a.imovi(isa::ireg_n(c), 1 << 20);
  a.imovi(IReg::R8, 1);
  for (int i = 0; i < count; ++i) {
    const IReg t = isa::ireg_n(i % chains);
    a.idiv(t, t, IReg::R8);  // t /= 1: value-preserving, dependence-carrying
  }
  a.exit();
  return a.take();
}

isa::Program fdiv_chain(int chains, int count) {
  AsmBuilder a("fdiv");
  for (int c = 0; c < chains; ++c) a.fmovi(isa::freg_n(c), 1.0);
  a.fmovi(FReg::F8, 1.0);
  for (int i = 0; i < count; ++i) {
    const FReg t = isa::freg_n(i % chains);
    a.fdiv(t, t, FReg::F8);
  }
  a.exit();
  return a.take();
}

// Fully independent divides (constant sources, rotating dead targets): with
// a pipelined divider, throughput is limited only by the issue port.
isa::Program idiv_independent(int count) {
  AsmBuilder a("idiv-ind");
  a.imovi(IReg::R8, 3);
  a.imovi(IReg::R9, 1 << 20);
  for (int i = 0; i < count; ++i) {
    a.idiv(isa::ireg_n(i % 6), IReg::R9, IReg::R8);
  }
  a.exit();
  return a.take();
}

isa::Program fdiv_independent(int count) {
  AsmBuilder a("fdiv-ind");
  a.fmovi(FReg::F8, 3.0);
  a.fmovi(FReg::F9, 1.0);
  for (int i = 0; i < count; ++i) {
    a.fdiv(isa::freg_n(i % 6), FReg::F9, FReg::F8);
  }
  a.exit();
  return a.take();
}

TEST(IdivPort, PipelinedIdivStreamIsIssuePortBound) {
  // With the (hypothetical) pipelined divider, six independent idiv chains
  // are limited by the single FP issue port: one divide per cycle, CPI ~1.
  // A divider that issued without consuming port capacity would run at the
  // 3-wide retire bound instead (CPI ~0.33) — the regression this guards.
  MachineConfig cfg;
  cfg.core.idiv_unpipelined = false;
  Machine m{cfg};
  m.load_program(kC0, idiv_independent(1200));
  m.run();
  EXPECT_GT(cpi(m, kC0), 0.85);
  EXPECT_LT(cpi(m, kC0), 1.3);
}

TEST(IdivPort, UnpipelinedIdivStreamSerializesAtDivideLatency) {
  Machine m;
  m.load_program(kC0, idiv_chain(6, 400));
  m.run();
  EXPECT_NEAR(cpi(m, kC0), static_cast<double>(m.config().core.lat_idiv),
              2.0);
}

TEST(IdivPort, CoScheduledPipelinedDivideStreamsShareTheFpPort) {
  // Pipelined idiv beside pipelined fdiv: both feed through the one FP
  // issue port, so each gets every other cycle (CPI ~2 apiece). Before the
  // port fix the idiv stream issued for free and both ran at CPI ~1.
  MachineConfig cfg;
  cfg.core.idiv_unpipelined = false;
  cfg.core.fdiv_unpipelined = false;
  Machine m{cfg};
  m.load_program(kC0, idiv_independent(1200));
  m.load_program(kC1, fdiv_independent(1200));
  ASSERT_TRUE(m.try_run(cpu::kDefaultMaxCycles, cpu::StopWhen::kAnyDone).ok());
  EXPECT_GT(cpi(m, kC0), 1.6);
  EXPECT_GT(cpi(m, kC1), 1.6);
}

TEST(IdivPort, CoScheduledUnpipelinedDividersBarelyInterfere) {
  // Default (unpipelined) dividers: each stream is bound by its own divide
  // unit, and one divide every ~40-56 cycles leaves the shared port nearly
  // idle — co-execution stays near the stand-alone latencies (the paper's
  // Figure 2 shows idiv/fdiv pairs nearly unaffected).
  Machine m;
  m.load_program(kC0, idiv_chain(6, 200));
  m.load_program(kC1, fdiv_chain(6, 200));
  ASSERT_TRUE(m.try_run(cpu::kDefaultMaxCycles, cpu::StopWhen::kAnyDone).ok());
  EXPECT_NEAR(cpi(m, kC0), static_cast<double>(m.config().core.lat_idiv),
              4.0);
  EXPECT_NEAR(cpi(m, kC1), static_cast<double>(m.config().core.lat_fdiv),
              4.0);
}

// ---------------------------------------------------------------------------
// IPI delivery windows (sticky wake-up protocol)
// ---------------------------------------------------------------------------

// The sleeper publishes "about to halt" and halts; the waker spins for the
// flag, then burns `delay` loop iterations before storing the payload and
// sending the IPI. Sweeping the delay lands the IPI in every sleeper phase:
// still running (IPI must latch and make the upcoming halt fall through),
// draining (kHalting), paying the transition cost (kEnterHalt), and fully
// asleep (kHalted). In every case the run must complete and the sleeper
// must observe the payload written before the IPI.
void run_ipi_window(int delay) {
  SCOPED_TRACE(testing::Message() << "waker delay " << delay);
  const Addr flag = 0x40000, data = 0x40040;
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag, IReg::R0, 1);
  s.halt();
  s.load(IReg::R1, Mem::abs(data));
  s.exit();

  AsmBuilder w("waker");
  sync::emit_spin_until_eq(w, flag, IReg::R0, 1, sync::SpinKind::kTight);
  if (delay > 0) {
    w.imovi(IReg::R2, 0);
    Label loop = w.here();
    w.iaddi(IReg::R2, IReg::R2, 1);
    w.bri(BrCond::kLt, IReg::R2, delay, loop);
  }
  w.imovi(IReg::R3, 99);
  w.store(IReg::R3, Mem::abs(data));
  w.ipi();
  w.exit();

  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run(40'000'000);
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 99);
  EXPECT_EQ(m.counters().get(kC0, Event::kIpisSent), 1u);
  EXPECT_EQ(m.counters().get(kC1, Event::kIpisReceived), 1u);
}

TEST(IpiWindows, NoDelayLandsWhileEnteringHalt) { run_ipi_window(0); }

TEST(IpiWindows, DelaySweepNeverStrandsTheSleeper) {
  // halt_enter_cost is 1500 cycles and the delay loop runs at roughly one
  // iteration per cycle, so this sweep brackets the kHalting / kEnterHalt /
  // kHalted boundaries from both sides.
  for (int delay : {50, 200, 700, 1300, 1500, 1700, 2500, 4000}) {
    run_ipi_window(delay);
  }
}

TEST(IpiWindows, IpiBeforeHaltMakesTheHaltFallThrough) {
  // The waker fires the IPI while the sleeper is still computing: the
  // pending-wakeup latch must turn the later halt into (at most) a paid
  // transition, never a lost wake-up.
  const Addr data = 0x40040;
  AsmBuilder s("sleeper");
  s.imovi(IReg::R2, 0);
  Label loop = s.here();
  s.iaddi(IReg::R2, IReg::R2, 1);
  s.bri(BrCond::kLt, IReg::R2, 8000, loop);
  s.halt();
  s.load(IReg::R1, Mem::abs(data));
  s.exit();

  AsmBuilder w("waker");
  w.imovi(IReg::R3, 55);
  w.store(IReg::R3, Mem::abs(data));
  w.ipi();
  w.exit();

  Machine m;
  m.load_program(kC0, w.take());
  m.load_program(kC1, s.take());
  m.run(40'000'000);
  EXPECT_EQ(m.core().arch(kC1).ireg(IReg::R1), 55);
  EXPECT_EQ(m.counters().get(kC1, Event::kIpisReceived), 1u);
}

// ---------------------------------------------------------------------------
// Event-skip fast-forward: counters must be bit-identical to single-cycle
// stepping (the attribution contract record_cycle_counters documents)
// ---------------------------------------------------------------------------

void expect_identical_counters(const Machine& skip, const Machine& step) {
  EXPECT_EQ(skip.cycles(), step.cycles());
  const perfmon::Snapshot a = skip.counters().snapshot();
  const perfmon::Snapshot b = step.counters().snapshot();
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    for (int e = 0; e < perfmon::kNumEventValues; ++e) {
      const auto ev = static_cast<Event>(e);
      EXPECT_EQ(a.get(static_cast<CpuId>(c), ev),
                b.get(static_cast<CpuId>(c), ev))
          << "cpu" << c << " " << perfmon::name(ev);
    }
  }
}

// Runs the two given programs (second may be empty) under event_skip on and
// off and requires identical cycles and counters.
void check_skip_equivalence(const isa::Program& p0, const isa::Program* p1) {
  MachineConfig skip_cfg;
  skip_cfg.core.event_skip = true;
  Machine skip{skip_cfg};
  MachineConfig step_cfg;
  step_cfg.core.event_skip = false;
  Machine step{step_cfg};
  for (Machine* m : {&skip, &step}) {
    m->load_program(kC0, p0);
    if (p1 != nullptr) m->load_program(kC1, *p1);
    m->run(40'000'000);
  }
  expect_identical_counters(skip, step);
}

TEST(EventSkip, PauseSpinHandoffCountsIdentically) {
  // Pause spinning creates long fetch-stall windows — exactly what the
  // fast-forward path skips over and must attribute identically.
  const Addr flag = 0x40000, data = 0x40040;
  const isa::Program p0 = work_then_signal(flag, data, 2000);
  const isa::Program p1 = spin_then_read(flag, data, sync::SpinKind::kPause);
  check_skip_equivalence(p0, &p1);
}

TEST(EventSkip, HaltAndWakeCountsIdentically) {
  // Halt windows are thousands of cycles of kCyclesHalted accumulated in
  // one skip; the waker's pause spin overlaps them with fetch stalls.
  const Addr flag = 0x40000;
  AsmBuilder s("sleeper");
  sync::emit_flag_set(s, flag + 64, IReg::R0, 1);
  s.halt();
  s.load(IReg::R1, Mem::abs(flag));
  s.exit();
  AsmBuilder w("waker");
  sync::emit_flag_set(w, flag, IReg::R0, 7);
  sync::emit_spin_until_eq(w, flag + 64, IReg::R1, 1, sync::SpinKind::kPause);
  w.ipi();
  w.exit();
  const isa::Program p0 = w.take();
  const isa::Program p1 = s.take();
  check_skip_equivalence(p0, &p1);
}

TEST(EventSkip, UnpipelinedDivideStreamsCountIdentically) {
  // Divider-serialized streams stall dispatch on a full ROB while the
  // in-flight divide finishes — resource-stall windows under skip.
  const isa::Program p0 = idiv_chain(6, 150);
  const isa::Program p1 = fdiv_chain(6, 150);
  check_skip_equivalence(p0, &p1);
  check_skip_equivalence(p0, nullptr);
}

TEST(EventSkip, StorePressureCountsIdentically) {
  // Store bursts drain one per cycle after retirement; the store-buffer
  // stall cycles and drain events must replay exactly.
  AsmBuilder a("stores");
  a.imovi(IReg::R0, 0x70000);
  a.imovi(IReg::R1, 0);
  Label loop = a.here();
  for (int i = 0; i < 8; ++i) {
    a.store(IReg::R1, Mem::bi(IReg::R0, IReg::R1, 3));
  }
  a.iaddi(IReg::R1, IReg::R1, 1);
  a.bri(BrCond::kLt, IReg::R1, 400, loop);
  a.exit();
  const isa::Program p = a.take();
  check_skip_equivalence(p, nullptr);
}

}  // namespace
}  // namespace smt

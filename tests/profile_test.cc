// Tests for the Pin-analog instruction-mix profiler and the
// Valgrind-analog delinquent-load profiler (paper §5.3 / §3.2).
#include <gtest/gtest.h>

#include "core/machine.h"
#include "kernels/cg.h"
#include "kernels/matmul.h"
#include "profile/delinquent.h"
#include "profile/mix_profiler.h"
#include "profile/pc_profiler.h"

namespace smt::profile {
namespace {

using kernels::CgMode;
using kernels::CgParams;
using kernels::CgWorkload;
using kernels::MatMulParams;
using kernels::MatMulWorkload;
using kernels::MmMode;

TEST(SubunitMapping, CoversAllUnitClasses) {
  using isa::UnitClass;
  EXPECT_EQ(subunit_of(UnitClass::kAlu), Subunit::kAlus);
  EXPECT_EQ(subunit_of(UnitClass::kAlu0), Subunit::kAlus);
  EXPECT_EQ(subunit_of(UnitClass::kBranch), Subunit::kAlus);
  EXPECT_EQ(subunit_of(UnitClass::kFpAdd), Subunit::kFpAdd);
  EXPECT_EQ(subunit_of(UnitClass::kFpMul), Subunit::kFpMul);
  EXPECT_EQ(subunit_of(UnitClass::kFpDiv), Subunit::kFpDiv);
  EXPECT_EQ(subunit_of(UnitClass::kFpMove), Subunit::kFpMove);
  EXPECT_EQ(subunit_of(UnitClass::kLoad), Subunit::kLoad);
  EXPECT_EQ(subunit_of(UnitClass::kStore), Subunit::kStore);
  EXPECT_EQ(subunit_of(UnitClass::kNone), Subunit::kOther);
}

TEST(MixProfiler, CountsMatchPerfCounters) {
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kSerial;
  MatMulWorkload w(p);
  core::Machine m{};
  MixProfiler prof;
  m.core().attach(&prof);
  w.setup(m);
  m.load_program(CpuId::kCpu0, w.programs()[0]);
  m.run();
  EXPECT_EQ(prof.total(CpuId::kCpu0),
            m.counters().get(CpuId::kCpu0, perfmon::Event::kInstrRetired));
  // Percentages sum to ~100.
  double sum = 0.0;
  for (int s = 0; s < static_cast<int>(Subunit::kNumSubunits); ++s) {
    sum += prof.pct(CpuId::kCpu0, static_cast<Subunit>(s));
  }
  EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(MixProfiler, MmHasTheMaskedLayoutSignature) {
  // Paper Table 1 / §5.3: the blocked-array-layout MM executes ~25%
  // logical (ALU0-only) instructions and is load-heavy.
  MatMulParams p;
  p.n = 32;
  p.tile = 8;
  p.mode = MmMode::kSerial;
  MatMulWorkload w(p);
  core::Machine m{};
  MixProfiler prof;
  m.core().attach(&prof);
  w.setup(m);
  m.load_program(CpuId::kCpu0, w.programs()[0]);
  m.run();
  EXPECT_TRUE(w.verify(m));
  const double alus = prof.pct(CpuId::kCpu0, Subunit::kAlus);
  const double loads = prof.pct(CpuId::kCpu0, Subunit::kLoad);
  const double fpadd = prof.pct(CpuId::kCpu0, Subunit::kFpAdd);
  const double fpmul = prof.pct(CpuId::kCpu0, Subunit::kFpMul);
  const double stores = prof.pct(CpuId::kCpu0, Subunit::kStore);
  EXPECT_GT(alus, 20.0);
  EXPECT_LT(alus, 50.0);
  EXPECT_GT(loads, 25.0);  // paper: 38.8%
  EXPECT_NEAR(fpadd, fpmul, 1.0);  // one add per mul
  EXPECT_GT(stores, 5.0);
  const std::string col = prof.column(CpuId::kCpu0);
  EXPECT_NE(col.find("ALUs"), std::string::npos);
  EXPECT_NE(col.find("Total instr"), std::string::npos);
}

TEST(MixProfiler, SprPrefetcherHasNoFpArithmetic) {
  // Paper Table 1: the prefetcher threads execute no FP_ADD/FP_MUL at all.
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  MatMulWorkload w(p);
  core::Machine m{};
  MixProfiler prof;
  m.core().attach(&prof);
  w.setup(m);
  auto progs = w.programs();
  m.load_program(CpuId::kCpu0, progs[0]);
  m.load_program(CpuId::kCpu1, progs[1]);
  m.run();
  EXPECT_TRUE(w.verify(m));
  EXPECT_EQ(prof.count(CpuId::kCpu1, Subunit::kFpAdd), 0u);
  EXPECT_EQ(prof.count(CpuId::kCpu1, Subunit::kFpMul), 0u);
  EXPECT_GT(prof.count(CpuId::kCpu1, Subunit::kLoad), 0u);  // prefetches
}

TEST(PcProfiler, PerPcCountsSumToMixProfilerAndCounters) {
  // The per-PC attribution must be a refinement of the Table-1 mix: on the
  // SPR matmul, grouping each context's per-PC retired-instruction counts
  // by the PC's execution subunit reproduces the MixProfiler totals
  // exactly, and the per-PC retired-uop counts sum to kUopsRetired. Both
  // observers ride the same run on the core's observer bus.
  MatMulParams p;
  p.n = 16;
  p.tile = 4;
  p.mode = MmMode::kTlpPfetch;
  MatMulWorkload w(p);
  core::Machine m{};
  MixProfiler mix;
  PcProfiler pcs;
  m.core().attach(&mix);
  m.core().attach(&pcs);
  w.setup(m);
  auto progs = w.programs();
  m.load_program(CpuId::kCpu0, progs[0]);
  m.load_program(CpuId::kCpu1, progs[1]);
  m.run();
  EXPECT_TRUE(w.verify(m));
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    const CpuId cpu = static_cast<CpuId>(c);
    const isa::Program& prog = progs[static_cast<size_t>(c)];
    uint64_t by_subunit[static_cast<int>(Subunit::kNumSubunits)] = {};
    uint64_t instrs = 0;
    uint64_t uops = 0;
    for (const auto& [pc, s] : pcs.pcs(cpu)) {
      ASSERT_LT(pc, prog.size());
      const Subunit su = subunit_of(isa::unit_class(prog.at(pc).op));
      by_subunit[static_cast<int>(su)] += s.retired_instrs;
      instrs += s.retired_instrs;
      uops += s.retired_uops;
    }
    for (int s = 0; s < static_cast<int>(Subunit::kNumSubunits); ++s) {
      EXPECT_EQ(by_subunit[s], mix.count(cpu, static_cast<Subunit>(s)))
          << "cpu" << c << " subunit " << name(static_cast<Subunit>(s));
    }
    EXPECT_EQ(instrs,
              m.counters().get(cpu, perfmon::Event::kInstrRetired));
    EXPECT_EQ(uops, m.counters().get(cpu, perfmon::Event::kUopsRetired));
  }
}

TEST(MixProfiler, ResetClearsState) {
  MixProfiler prof;
  cpu::DynUop u;
  u.unit = isa::UnitClass::kFpAdd;
  prof.on_retire(CpuId::kCpu0, u, 1, 0);
  EXPECT_EQ(prof.total(CpuId::kCpu0), 1u);
  prof.reset();
  EXPECT_EQ(prof.total(CpuId::kCpu0), 0u);
  EXPECT_EQ(prof.count(CpuId::kCpu0, Subunit::kFpAdd), 0u);
}

TEST(DelinquentLoads, CgGatherDominatesL2Misses) {
  // The paper used Valgrind to find the loads causing 92-96% of CG's L2
  // misses; here the gather p[colidx[k]] and the CSR streams must surface.
  CgParams p;
  p.n = 4096;  // big enough to spill L2
  p.nz_per_row = 6;
  p.iters = 2;
  p.mode = CgMode::kSerial;
  CgWorkload w(p);
  core::Machine m{};
  m.hierarchy().set_track_pc_misses(true);
  w.setup(m);
  const isa::Program prog = w.programs()[0];
  m.load_program(CpuId::kCpu0, prog);
  m.run();
  const auto loads =
      find_delinquent_loads(m.hierarchy(), CpuId::kCpu0, prog, 0.95);
  ASSERT_FALSE(loads.empty());
  // Ranked by misses, covering >= 95% together, each with a disassembly.
  double share = 0.0;
  for (size_t i = 0; i < loads.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(loads[i].l2_misses, loads[i - 1].l2_misses);
    }
    EXPECT_FALSE(loads[i].disasm.empty());
    share += loads[i].share;
  }
  EXPECT_GE(share, 0.94);
  const std::string rep = report(loads);
  EXPECT_NE(rep.find("pc="), std::string::npos);
}

TEST(DelinquentLoads, EmptyWhenNothingMisses) {
  core::Machine m{};
  isa::AsmBuilder a("tiny");
  a.imovi(isa::IReg::R0, 1);
  a.exit();
  const isa::Program prog = a.take();
  m.hierarchy().set_track_pc_misses(true);
  m.load_program(CpuId::kCpu0, prog);
  m.run();
  EXPECT_TRUE(
      find_delinquent_loads(m.hierarchy(), CpuId::kCpu0, prog).empty());
}

}  // namespace
}  // namespace smt::profile

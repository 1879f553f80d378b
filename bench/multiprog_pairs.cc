// Extension study: multiprogrammed kernel pairs.
//
// The paper notes (§4.2) that mixed integer/fp streams "are more frequent
// in multiprogrammed workloads, rather than multithreaded scientific
// codes". This bench runs that scenario at application granularity: two
// *serial kernels*, one per logical CPU with disjoint address-space
// windows, measuring each one's slowdown relative to running alone.
// Kernels with complementary resource profiles (fp-dense BT beside the
// load-heavy CG) should co-exist better than two instances of the same
// kernel fighting over identical units — the application-level analogue of
// Figure 2.
#include <memory>

#include "bench/bench_util.h"
#include "core/machine.h"
#include "kernels/bt.h"
#include "kernels/cg.h"
#include "kernels/lu.h"
#include "kernels/matmul.h"
#include "perfmon/events.h"

namespace smt::bench {
namespace {

using perfmon::Event;

constexpr Addr kWindowBytes = 64ull << 20;  // address-space window per app

/// Builds one serial kernel instance living in window `slot` of the
/// machine's address space; returns its program and keeps the workload
/// alive for verification.
struct App {
  std::unique_ptr<core::Workload> workload;
  isa::Program program;
};

App make_app(const std::string& name, core::Machine& m, int slot) {
  const Addr base = 0x10000 + slot * kWindowBytes;
  const Addr sync = 0x8000 + slot * kWindowBytes;
  std::unique_ptr<core::Workload> w;
  if (name == "mm") {
    kernels::MatMulParams p;
    p.n = 64;
    p.tile = 16;
    p.mem_base = base;
    p.sync_base = sync;
    w = std::make_unique<kernels::MatMulWorkload>(p);
  } else if (name == "lu") {
    kernels::LuParams p;
    p.n = 128;
    p.tile = 16;
    p.mem_base = base;
    p.sync_base = sync;
    w = std::make_unique<kernels::LuWorkload>(p);
  } else if (name == "cg") {
    kernels::CgParams p;
    p.n = 4096;
    p.nz_per_row = 8;
    p.iters = 3;
    p.mem_base = base;
    p.sync_base = sync;
    w = std::make_unique<kernels::CgWorkload>(p);
  } else {
    SMT_CHECK(name == "bt");
    kernels::BtParams p;
    p.lines = 24;
    p.cells = 24;
    p.mem_base = base;
    p.sync_base = sync;
    w = std::make_unique<kernels::BtWorkload>(p);
  }
  w->setup(m);
  App app;
  app.program = w->programs().at(0);
  app.workload = std::move(w);
  return app;
}

const char* kApps[] = {"mm", "lu", "cg", "bt"};

std::string solo_key(const std::string& a) { return "solo." + a; }
std::string pair_key(const std::string& a, const std::string& b) {
  return a + "+" + b;
}

void register_all() {
  auto& res = Results::instance();
  for (const char* a : kApps) {
    register_run(solo_key(a), [a] {
      core::Machine m{core::MachineConfig{}};
      App app = make_app(a, m, 0);
      m.load_program(CpuId::kCpu0, app.program);
      m.run();
      const bool ok = app.workload->verify(m);
      SMT_CHECK(ok);
      Results::instance().put(solo_key(a), stats_from(m, solo_key(a), ok));
      Results::instance().put_value(
          solo_key(a),
          static_cast<double>(
              m.counters().get(CpuId::kCpu0, Event::kCyclesActive)) /
              m.counters().get(CpuId::kCpu0, Event::kInstrRetired));
    });
  }
  for (const char* a : kApps) {
    for (const char* b : kApps) {
      const std::string k = pair_key(a, b);
      if (res.has_value(k)) continue;
      res.put_value(k, -1.0);
      register_run(k, [a, b, k] {
        core::Machine m{core::MachineConfig{}};
        App app_a = make_app(a, m, 0);
        App app_b = make_app(b, m, 1);
        m.load_program(CpuId::kCpu0, app_a.program);
        m.load_program(CpuId::kCpu1, app_b.program);
        // Measure over the fully-overlapped window (first finisher), like
        // the stream pair experiments; CPI of app A is the victim metric.
        const cpu::RunResult run =
            m.try_run(cpu::kDefaultMaxCycles, cpu::StopWhen::kAnyDone);
        SMT_CHECK_MSG(run.ok(), run.message.c_str());
        Results::instance().put(k, stats_from(m, k, /*verified=*/true));
        Results::instance().put_value(
            k, static_cast<double>(
                   m.counters().get(CpuId::kCpu0, Event::kCyclesActive)) /
                   m.counters().get(CpuId::kCpu0, Event::kInstrRetired));
      });
    }
  }
}

void print_all() {
  auto& res = Results::instance();
  std::vector<std::string> header{"app \\ beside"};
  for (const char* b : kApps) header.push_back(b);
  header.push_back("solo CPI");
  TextTable t(header);
  for (const char* a : kApps) {
    std::vector<std::string> row{a};
    const double solo = res.value(solo_key(a));
    for (const char* b : kApps) {
      const double cpi = res.value(pair_key(a, b));
      row.push_back(fmt(100.0 * (cpi / solo - 1.0), 0) + "%");
    }
    row.push_back(fmt(solo, 2));
    t.add_row(std::move(row));
  }
  print_table("Extension: multiprogrammed kernel pairs (CPI slowdown of the row app)",
              t);
  std::printf(
      "\nReading: each cell is how much slower the row application runs\n"
      "when the column application occupies the sibling hardware context\n"
      "(both serial, disjoint address windows). Complementary mixes (fp-\n"
      "dense beside load-heavy) interfere less than identical pairs — the\n"
      "application-level analogue of Figure 2.\n");
}

}  // namespace
}  // namespace smt::bench

int main(int argc, char** argv) {
  return smt::bench::bench_main(argc, argv, smt::bench::register_all,
                                smt::bench::print_all);
}

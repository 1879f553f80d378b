// Pin-analog dynamic instruction-mix profiler (paper §5.3, Table 1).
//
// The paper instruments application binaries with Pin and breaks the
// dynamic instruction mix down by the execution subunit each instruction
// uses, explaining e.g. the ALU0 serialization of the mask-heavy MM code.
// Here the profiler observes the simulator's retire stage (the core's
// on_retire event) and performs the same classification on the uop stream.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "cpu/observer.h"
#include "isa/opcode.h"

namespace smt::profile {

/// Table-1 row categories.
enum class Subunit : uint8_t {
  kAlus,     // simple int ALU + logical/shift + branches
  kIntMul,
  kIntDiv,
  kFpAdd,
  kFpMul,
  kFpDiv,
  kFpMove,
  kLoad,     // demand loads + software prefetches
  kStore,
  kOther,    // pause/halt/ipi/nop
  kNumSubunits,
};

const char* name(Subunit s);

/// Maps an execution-unit class to its Table-1 category.
Subunit subunit_of(isa::UnitClass u);

class MixProfiler final : public cpu::Observer {
 public:
  uint32_t interests() const override { return kRetire; }
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override;

  uint64_t total(CpuId cpu) const { return total_[idx(cpu)]; }
  uint64_t count(CpuId cpu, Subunit s) const {
    return counts_[idx(cpu)][static_cast<int>(s)];
  }
  /// Percentage of this context's retired instructions in category `s`.
  double pct(CpuId cpu, Subunit s) const;

  void reset();

  /// One Table-1-style column for a context: utilization percentages of the
  /// busiest subunits plus the total instruction count.
  std::string column(CpuId cpu) const;

 private:
  std::array<std::array<uint64_t, static_cast<int>(Subunit::kNumSubunits)>,
             kNumLogicalCpus>
      counts_{};
  std::array<uint64_t, kNumLogicalCpus> total_{};
};

}  // namespace smt::profile

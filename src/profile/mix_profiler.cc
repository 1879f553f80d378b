#include "profile/mix_profiler.h"

#include <cstdio>

#include "common/check.h"

namespace smt::profile {

namespace {
constexpr const char* kSubunitNames[] = {
    "ALUs",   "INT_MUL", "INT_DIV", "FP_ADD", "FP_MUL",
    "FP_DIV", "FP_MOVE", "LOAD",    "STORE",  "OTHER",
};
}

const char* name(Subunit s) {
  return kSubunitNames[static_cast<int>(s)];
}

Subunit subunit_of(isa::UnitClass u) {
  using isa::UnitClass;
  switch (u) {
    case UnitClass::kAlu:
    case UnitClass::kAlu0:
    case UnitClass::kBranch:
      return Subunit::kAlus;
    case UnitClass::kIntMul: return Subunit::kIntMul;
    case UnitClass::kIntDiv: return Subunit::kIntDiv;
    case UnitClass::kFpAdd: return Subunit::kFpAdd;
    case UnitClass::kFpMul: return Subunit::kFpMul;
    case UnitClass::kFpDiv: return Subunit::kFpDiv;
    case UnitClass::kFpMove: return Subunit::kFpMove;
    case UnitClass::kLoad: return Subunit::kLoad;
    case UnitClass::kStore: return Subunit::kStore;
    case UnitClass::kNone: return Subunit::kOther;
  }
  return Subunit::kOther;
}

void MixProfiler::on_retire(CpuId cpu, const cpu::DynUop& uop, int /*uops*/,
                            Cycle /*now*/) {
  ++counts_[idx(cpu)][static_cast<int>(subunit_of(uop.unit))];
  ++total_[idx(cpu)];
}

double MixProfiler::pct(CpuId cpu, Subunit s) const {
  const uint64_t t = total_[idx(cpu)];
  if (t == 0) return 0.0;
  return 100.0 * static_cast<double>(count(cpu, s)) / static_cast<double>(t);
}

void MixProfiler::reset() {
  counts_ = {};
  total_ = {};
}

std::string MixProfiler::column(CpuId cpu) const {
  std::string out;
  char buf[64];
  for (int s = 0; s < static_cast<int>(Subunit::kNumSubunits); ++s) {
    const auto su = static_cast<Subunit>(s);
    if (count(cpu, su) == 0) continue;
    std::snprintf(buf, sizeof buf, "%-8s %6.2f%%\n", name(su), pct(cpu, su));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "Total instr: %llu\n",
                static_cast<unsigned long long>(total(cpu)));
  out += buf;
  return out;
}

}  // namespace smt::profile

// Dynamic happens-before race detector for guest programs, attached to
// the core's observer bus as a cpu::Observer.
//
// The simulator executes guest instructions functionally at fetch time on
// one host thread, so the on_guest_access callback sequence is an exact
// sequentially consistent interleaving of both contexts' memory accesses,
// with values consistent with that order. Over that sequence the detector
// maintains FastTrack-style vector clocks, specialized to the two
// hardware contexts:
//
//   * every store to a registered sync word (barrier arrival flags, the
//     sleeper word, lock words) is a release: the word's clock joins the
//     writer's clock, and the writer's epoch advances;
//   * every load/xchg of a sync word is an acquire: the reader's clock
//     joins the word's clock (xchg is both, modelling test-and-set);
//   * an ipi instruction is a release into the target's wake channel, and
//     the halted context's wake-up joins that channel (the §3.2
//     halt/IPI barrier edge).
//
// Any two accesses to the same non-sync word, from different contexts, at
// least one a write, with no happens-before path between them, is a race.
// Additionally, when the owning workload declares its extents complete,
// every access outside the registered data/sync extents is reported as an
// extent violation (the dynamic counterpart of the lint's static check —
// computed-address stores the lint cannot see).
//
// Contract (same as profile::PcProfiler): a pure observer — zero cost
// when detached, and attaching it never changes a perf counter bit
// (regression-tested in race_detector_test).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "cpu/observer.h"
#include "isa/program.h"

namespace smt::analysis {

/// One detected conflicting access pair with no happens-before edge.
/// `first` is the earlier access in the observed interleaving.
struct RaceReport {
  CpuId first_cpu = CpuId::kCpu0;
  uint32_t first_pc = 0;
  cpu::GuestAccess first_kind = cpu::GuestAccess::kLoad;
  CpuId second_cpu = CpuId::kCpu1;
  uint32_t second_pc = 0;
  cpu::GuestAccess second_kind = cpu::GuestAccess::kLoad;
  Addr addr = 0;
};

/// A guest access outside every registered extent (only reported when the
/// workload declared its extent list complete).
struct ExtentViolation {
  CpuId cpu = CpuId::kCpu0;
  uint32_t pc = 0;
  cpu::GuestAccess kind = cpu::GuestAccess::kLoad;
  Addr addr = 0;
};

class RaceDetector final : public cpu::Observer {
 public:
  /// Distinct race reports kept verbatim (further races only count).
  static constexpr size_t kMaxReports = 32;

  /// Declares the 8-byte word at `a` a synchronization word.
  void add_sync_word(Addr a) { sync_words_.insert(a); }
  /// Registers a legal guest-memory extent.
  void add_extent(Addr base, size_t bytes) {
    if (bytes > 0) extents_.push_back({base, bytes});
  }
  /// Marks the extent list as covering every legal access, enabling the
  /// dynamic out-of-extent check.
  void set_extents_complete(bool complete) { extents_complete_ = complete; }

  // --- cpu::Observer -----------------------------------------------------
  uint32_t interests() const override {
    return kProgram | kGuestAccess | kIpiSend | kIpiWake;
  }
  /// Registers the program bound to `cpu` (for disassembly in reports);
  /// the program's annotated lock words become sync words.
  void on_program(CpuId cpu, const isa::Program& p) override;
  void on_guest_access(CpuId cpu, uint32_t pc, Addr addr,
                       cpu::GuestAccess kind, uint64_t value,
                       Cycle now) override;
  void on_ipi_send(CpuId cpu, Cycle now) override;
  void on_ipi_wake(CpuId cpu, Cycle now) override;

  // --- results -----------------------------------------------------------
  const std::vector<RaceReport>& races() const { return races_; }
  const std::vector<ExtentViolation>& extent_violations() const {
    return extent_violations_;
  }
  /// Total conflicting pairs observed, including those beyond kMaxReports.
  uint64_t total_races() const { return total_races_; }
  bool clean() const {
    return races_.empty() && extent_violations_.empty();
  }

  std::string describe(const RaceReport& r) const;
  std::string describe(const ExtentViolation& v) const;
  /// One-line failure summary (first race / violation + totals); empty
  /// when clean.
  std::string summary() const;

 private:
  struct VectorClock {
    std::array<uint64_t, kNumLogicalCpus> c{};
    void join(const VectorClock& o) {
      for (int i = 0; i < kNumLogicalCpus; ++i) {
        if (o.c[i] > c[i]) c[i] = o.c[i];
      }
    }
  };

  /// Last-access shadow state of one guest word. Epoch 0 = never.
  struct Shadow {
    uint64_t write_epoch = 0;
    int8_t write_tid = -1;
    uint32_t write_pc = 0;
    cpu::GuestAccess write_kind = cpu::GuestAccess::kStore;
    std::array<uint64_t, kNumLogicalCpus> read_epoch{};
    std::array<uint32_t, kNumLogicalCpus> read_pc{};
  };

  struct ExtentRange {
    Addr base;
    size_t bytes;
  };

  bool in_extents(Addr a) const;
  void report_race(int first_tid, uint32_t first_pc,
                   cpu::GuestAccess first_kind, CpuId second_cpu,
                   uint32_t second_pc, cpu::GuestAccess second_kind,
                   Addr addr);
  std::string access_str(CpuId cpu, uint32_t pc,
                         cpu::GuestAccess kind) const;

  std::array<std::optional<isa::Program>, kNumLogicalCpus> progs_;
  std::unordered_set<Addr> sync_words_;
  std::vector<ExtentRange> extents_;
  bool extents_complete_ = false;

  // Vector-clock state. Epochs start at 1 so 0 can mean "never".
  std::array<VectorClock, kNumLogicalCpus> clock_ = [] {
    std::array<VectorClock, kNumLogicalCpus> c{};
    for (int i = 0; i < kNumLogicalCpus; ++i) c[i].c[i] = 1;
    return c;
  }();
  std::unordered_map<Addr, VectorClock> sync_clock_;
  std::array<VectorClock, kNumLogicalCpus> ipi_channel_{};
  std::unordered_map<Addr, Shadow> shadow_;

  std::vector<RaceReport> races_;
  std::unordered_set<uint64_t> race_keys_;  // (pc, pc, kinds) de-dup
  uint64_t total_races_ = 0;
  std::vector<ExtentViolation> extent_violations_;
  std::unordered_set<uint64_t> violation_keys_;
};

}  // namespace smt::analysis

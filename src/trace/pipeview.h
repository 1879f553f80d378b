// PipeViewRecorder: per-uop pipeline lifetime traces in Kanata format.
//
// The core's observer bus stamps every dynamic uop at each stage boundary
// — fetch, dispatch (allocation into the ROB), issue (port reservation)
// and retire — and the recorder serializes the lifetimes as a Kanata 0004
// log, the format the Konata pipeline viewer renders: one lane per uop,
// stages F → Ds → X → Cm → retire, lanes colored by logical CPU (Kanata's
// thread id), with the issue port in the mouse-over label. SMT port stealing is
// directly visible as sibling-colored uops occupying X on the cycle a
// stalled uop sits in Ds.
//
// Recording is bounded two ways: only uops fetched inside the configured
// cycle window [begin, end] are captured (and only those that also retire
// by `end` are emitted, so every cycle in the file is <= end), and a
// max_uops cap backstops memory on dense windows. Like the other trace
// instruments the recorder is a pure observer — uop ids advance in the
// core whether or not one is attached, so attaching never perturbs a
// counter or a simulation artifact (asserted byte-for-byte by the sweep
// smoke test's --pipeview run).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "cpu/observer.h"
#include "isa/program.h"

namespace smt::trace {

/// Capture bounds for the pipeline trace.
struct PipeViewConfig {
  Cycle begin = 0;          ///< first cycle at which fetches are captured
  Cycle end = 100'000;      ///< last cycle; uops retiring later are dropped
  size_t max_uops = 1u << 20;  ///< memory backstop on dense windows
};

class PipeViewRecorder final : public cpu::Observer {
 public:
  explicit PipeViewRecorder(const PipeViewConfig& cfg = {}) : cfg_(cfg) {}

  // --- cpu::Observer -------------------------------------------------------
  uint32_t interests() const override {
    return kProgram | kFetch | kDispatch | kIssue | kRetire;
  }
  /// Keeps the program bound to `cpu` so emitted labels carry its
  /// disassembly. Stored by value: the recorder is shared out through
  /// RunStats and routinely outlives the Machine (and its programs) —
  /// the sweep serializes Kanata only after try_run_workload returns.
  void on_program(CpuId cpu, const isa::Program& prog) override {
    progs_[idx(cpu)] = prog;
  }
  void on_fetch(CpuId cpu, const cpu::DynUop& uop, Cycle now) override;
  void on_dispatch(CpuId cpu, const cpu::DynUop& uop, Cycle now) override;
  void on_issue(CpuId cpu, const cpu::DynUop& uop, int port, Cycle now,
                Cycle done) override;
  void on_retire(CpuId cpu, const cpu::DynUop& uop, int uops,
                 Cycle now) override;

  /// Serializes the captured lifetimes as a Kanata 0004 log. Only uops
  /// with a complete fetch→retire lifetime inside the window are emitted.
  std::string to_kanata() const;

  const PipeViewConfig& config() const { return cfg_; }
  size_t captured() const { return recs_.size(); }
  /// Uops seen inside the window but not captured (max_uops backstop).
  uint64_t dropped() const { return dropped_; }

 private:
  struct UopRecord {
    uint64_t uid = 0;
    uint32_t pc = 0;
    uint8_t cpu = 0;
    int8_t port = -1;
    bool has_dispatch = false;
    bool has_issue = false;
    bool has_retire = false;
    Cycle fetch = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle done = 0;
    Cycle retire = 0;
  };

  UopRecord* find(uint64_t uid);

  PipeViewConfig cfg_;
  std::array<std::optional<isa::Program>, kNumLogicalCpus> progs_{};
  std::vector<UopRecord> recs_;
  std::unordered_map<uint64_t, size_t> index_;
  uint64_t dropped_ = 0;
};

/// to_kanata() to `path` via write_text_file (parent dirs created).
bool write_kanata_file(const PipeViewRecorder& pv, const std::string& path);

}  // namespace smt::trace

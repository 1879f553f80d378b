// The core's observer bus: the one interface through which every read-only
// instrument (profilers, race detector, flight recorder, tracers, counter
// sampler) watches the pipeline. An observer overrides the events it
// consumes (each defaults to a no-op) and names them in its interest mask,
// which cpu::Core reads once at attach time; the core raises an event only
// when some attached observer wants it. Several observers share the core
// through a Tee. Observation is pure, and on_stall replays exactly across
// event-skip windows (DESIGN.md §7, "Observer bus").
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"
#include "isa/program.h"

namespace smt::cpu {

/// One dynamic uop flowing through the backend.
struct DynUop {
  // Monotonic per-core id, assigned at fetch in program order across both
  // contexts (deterministic: the counter advances whether or not any
  // observer is attached). Keys the pipeline-lifetime trace.
  uint64_t uid = 0;
  uint32_t pc = 0;
  isa::Opcode op = isa::Opcode::kNop;
  isa::UnitClass unit = isa::UnitClass::kNone;
  isa::RegId dst = isa::kNoReg;
  isa::RegId dep_regs[4];  // register sources (incl. address regs)
  int ndep_regs = 0;
  Addr addr = 0;
  bool is_load = false;     // holds a load-queue entry
  bool is_store = false;    // holds a store-buffer entry
  bool is_prefetch = false;
  bool prefetch_to_l1 = false;
  bool is_branch = false;
};

/// Issue ports of the modeled backend, at the granularity the paper's
/// Table 1 / Figure 6 reason about: the two double-speed ALUs (logical,
/// shift and branch uops are restricted to ALU0), the single shared FP
/// issue port (FP add/mul/div plus the complex integer unit), the FP-move
/// path, and the load / store-address ports.
enum class IssuePort : uint8_t {
  kAlu0,
  kAlu1,
  kFp,      // shared FP complex port (fadd/fmul/fdiv/imul/idiv)
  kFpMove,
  kLoad,
  kStore,   // store-address generation
};
inline constexpr int kNumIssuePorts = 6;

/// Why the backend could not make forward progress on a uop this cycle.
/// The first four mirror the allocator/frontend stall counters; the last
/// two are issue-stage conditions that have no per-CPU counter but are
/// attributable per PC (the ALU0 serialization the paper's §5.3 reasons
/// about shows up as kPortConflict on the mask instructions).
enum class BlockReason : uint8_t {
  kStoreBuffer,
  kRob,
  kLoadQueue,
  kUopQueueFull,
  kPortConflict,  // ready to issue, but the port (or issue slots) were taken
  kDividerBusy,   // ready to issue, but the unpipelined divider is occupied
};
inline constexpr int kNumBlockReasons = 6;

/// Kind of a guest memory access as seen by Observer::on_guest_access
/// (prefetches are not reported — they have no architectural effect).
enum class GuestAccess : uint8_t {
  kLoad,   // load / fload
  kStore,  // store / fstore
  kXchg,   // atomic exchange (reads and writes the word)
};

const char* name(IssuePort p);
const char* name(BlockReason r);
const char* name(GuestAccess k);

/// Sentinel cycle: no such event is scheduled (also next_event_cycle()'s
/// "every bound context is asleep with no wake-up pending").
inline constexpr Cycle kNoFutureEvent = std::numeric_limits<Cycle>::max();

class Observer {
 public:
  /// Interest bits, one per event.
  enum Interest : uint32_t {
    kProgram = 1u << 0,
    kFetch = 1u << 1,
    kDispatch = 1u << 2,
    kIssue = 1u << 3,
    kRetire = 1u << 4,
    kStall = 1u << 5,
    kDemandMiss = 1u << 6,
    kGuestAccess = 1u << 7,
    kHaltEnter = 1u << 8,
    kHaltExit = 1u << 9,
    kIpiSend = 1u << 10,
    kIpiWake = 1u << 11,
    kWindow = 1u << 12,
  };
  static constexpr int kNumInterests = 13;

  virtual ~Observer() = default;

  /// The events this observer consumes; read once when it is attached.
  virtual uint32_t interests() const = 0;

  /// `prog` was bound to `cpu` (raised by Core::load_program, and replayed
  /// for already-bound contexts when the observer is attached later).
  virtual void on_program(CpuId /*cpu*/, const isa::Program& /*prog*/) {}
  /// Fetch stage: the functional interpreter executed `uop` and queued it.
  virtual void on_fetch(CpuId /*cpu*/, const DynUop& /*uop*/, Cycle /*now*/) {}
  /// Dispatch stage: `uop` was allocated into the ROB.
  virtual void on_dispatch(CpuId /*cpu*/, const DynUop& /*uop*/,
                           Cycle /*now*/) {}
  /// Issue stage: `uop` won an issue slot on IssuePort `port` (as an int;
  /// -1 for uops with no execution unit — nop/pause/halt/ipi — which use
  /// issue bandwidth but no port); it completes at cycle `done`.
  virtual void on_issue(CpuId /*cpu*/, const DynUop& /*uop*/, int /*port*/,
                        Cycle /*now*/, Cycle /*done*/) {}
  /// Retire stage: `uop` retired; `uops` is its retired-uop count (2 for
  /// the load+store halves of xchg), matching kUopsRetired exactly.
  virtual void on_retire(CpuId /*cpu*/, const DynUop& /*uop*/, int /*uops*/,
                         Cycle /*now*/) {}
  /// The oldest blocked uop of `cpu`, from `pc`, spent `cycles` cycles
  /// blocked for `reason` (raised where the stall counters are bumped,
  /// once per event-skip window). `sibling` is true when the stall would
  /// not have happened without the other context (a partitioned structure
  /// the uop would fit into at full size, a port the sibling reserved
  /// this cycle, a divider mid-operation on a sibling divide). For
  /// kPortConflict `port` names the contended IssuePort, or -1 when the
  /// uop lost to issue-bandwidth exhaustion; -1 for every other reason.
  virtual void on_stall(CpuId /*cpu*/, BlockReason /*reason*/,
                        uint32_t /*pc*/, bool /*sibling*/, int /*port*/,
                        Cycle /*cycles*/) {}
  /// A demand access by `pc` (a load at issue, a store draining at
  /// retire) missed L1; `l2_miss` = it also missed L2. Raised where the
  /// kL1Misses counter is bumped.
  virtual void on_demand_miss(CpuId /*cpu*/, uint32_t /*pc*/,
                              bool /*l2_miss*/, Cycle /*now*/) {}
  /// A guest load/store/xchg executed functionally at `addr` (at fetch
  /// time, in exact sequentially consistent interleaving order). `value`
  /// is the value read (loads, and the old word for xchg) or stored.
  virtual void on_guest_access(CpuId /*cpu*/, uint32_t /*pc*/,
                               Addr /*addr*/, GuestAccess /*kind*/,
                               uint64_t /*value*/, Cycle /*now*/) {}
  /// `cpu` fetched a halt instruction and begins draining into sleep.
  virtual void on_halt_enter(CpuId /*cpu*/, Cycle /*now*/) {}
  /// `cpu` finished waking and runs again.
  virtual void on_halt_exit(CpuId /*cpu*/, Cycle /*now*/) {}
  /// `cpu` executed an ipi instruction (wake-up sent to the sibling).
  virtual void on_ipi_send(CpuId /*cpu*/, Cycle /*now*/) {}
  /// A halted `cpu` consumed a pending IPI and began waking.
  virtual void on_ipi_wake(CpuId /*cpu*/, Cycle /*now*/) {}
  /// The next window boundary the core must report through on_window
  /// (kNoFutureEvent for none); re-read after every on_window call.
  virtual Cycle next_window() const { return kNoFutureEvent; }
  /// Simulated time reached `boundary` with every earlier cycle fully
  /// accounted in the counters (also inside event-skip windows, which
  /// the core splits at boundaries).
  virtual void on_window(Cycle /*boundary*/) {}
};

/// Fans events out to several observers: each event goes only to the
/// children interested in it, in attach order.
class Tee final : public Observer {
 public:
  void add(Observer* obs);

  uint32_t interests() const override { return mask_; }
  void on_program(CpuId c, const isa::Program& p) override {
    for (Observer* o : to(kProgram)) o->on_program(c, p);
  }
  void on_fetch(CpuId c, const DynUop& u, Cycle now) override {
    for (Observer* o : to(kFetch)) o->on_fetch(c, u, now);
  }
  void on_dispatch(CpuId c, const DynUop& u, Cycle now) override {
    for (Observer* o : to(kDispatch)) o->on_dispatch(c, u, now);
  }
  void on_issue(CpuId c, const DynUop& u, int port, Cycle now,
                Cycle done) override {
    for (Observer* o : to(kIssue)) o->on_issue(c, u, port, now, done);
  }
  void on_retire(CpuId c, const DynUop& u, int uops, Cycle now) override {
    for (Observer* o : to(kRetire)) o->on_retire(c, u, uops, now);
  }
  void on_stall(CpuId c, BlockReason r, uint32_t pc, bool sibling, int port,
                Cycle cycles) override {
    for (Observer* o : to(kStall)) o->on_stall(c, r, pc, sibling, port, cycles);
  }
  void on_demand_miss(CpuId c, uint32_t pc, bool l2, Cycle now) override {
    for (Observer* o : to(kDemandMiss)) o->on_demand_miss(c, pc, l2, now);
  }
  void on_guest_access(CpuId c, uint32_t pc, Addr a, GuestAccess k,
                       uint64_t v, Cycle now) override {
    for (Observer* o : to(kGuestAccess)) {
      o->on_guest_access(c, pc, a, k, v, now);
    }
  }
  void on_halt_enter(CpuId c, Cycle now) override {
    for (Observer* o : to(kHaltEnter)) o->on_halt_enter(c, now);
  }
  void on_halt_exit(CpuId c, Cycle now) override {
    for (Observer* o : to(kHaltExit)) o->on_halt_exit(c, now);
  }
  void on_ipi_send(CpuId c, Cycle now) override {
    for (Observer* o : to(kIpiSend)) o->on_ipi_send(c, now);
  }
  void on_ipi_wake(CpuId c, Cycle now) override {
    for (Observer* o : to(kIpiWake)) o->on_ipi_wake(c, now);
  }
  Cycle next_window() const override {
    Cycle next = kNoFutureEvent;
    for (const Observer* o : to(kWindow)) {
      next = std::min(next, o->next_window());
    }
    return next;
  }
  void on_window(Cycle boundary) override {
    for (Observer* o : to(kWindow)) {
      if (o->next_window() <= boundary) o->on_window(boundary);
    }
  }

 private:
  const std::vector<Observer*>& to(Interest e) const {
    return lists_[std::countr_zero(static_cast<uint32_t>(e))];
  }

  std::array<std::vector<Observer*>, kNumInterests> lists_;
  uint32_t mask_ = 0;
};

}  // namespace smt::cpu

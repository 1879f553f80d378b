#include "cpu/core.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace smt::cpu {

using isa::Opcode;
using isa::UnitClass;
using perfmon::Event;

const char* name(RunTermination t) {
  switch (t) {
    case RunTermination::kDone:                return "done";
    case RunTermination::kDeadlock:            return "deadlock";
    case RunTermination::kCycleBudgetExceeded: return "cycle_budget_exceeded";
    case RunTermination::kCancelled:           return "cancelled";
  }
  return "?";
}

const char* Core::mode_name(TMode m) {
  switch (m) {
    case TMode::kIdle:      return "idle";
    case TMode::kRunning:   return "running";
    case TMode::kHalting:   return "halting";
    case TMode::kEnterHalt: return "enter_halt";
    case TMode::kHalted:    return "halted";
    case TMode::kWaking:    return "waking";
    case TMode::kExiting:   return "exiting";
    case TMode::kDone:      return "done";
  }
  return "?";
}

Core::ThreadSnapshot Core::snapshot_thread(CpuId cpu) const {
  const Thread& t = threads_[idx(cpu)];
  ThreadSnapshot s;
  s.mode = mode_name(t.mode);
  s.next_pc = t.arch.pc;
  s.rob_occupancy = t.rob_occupancy();
  s.uq_occupancy = t.uq.size();
  s.lq_used = t.lq_used;
  s.sb_used = t.sb_used;
  s.ipi_pending = t.ipi_pending;
  return s;
}

Core::Core(const CoreConfig& cfg, mem::CacheHierarchy& hierarchy,
           mem::SimMemory& memory, perfmon::PerfCounters& counters)
    : cfg_(cfg), hier_(hierarchy), mem_(memory), ctr_(counters) {
  SMT_CHECK(cfg_.rob_size >= 2 && cfg_.uop_queue_size >= 2);
  SMT_CHECK(cfg_.load_queue_size >= 2 && cfg_.store_buffer_size >= 2);
  for (Thread& t : threads_) {
    t.rob.resize(cfg_.rob_size);
  }
}

void Core::load_program(CpuId cpu, const isa::Program& prog,
                        const ArchState& init) {
  Thread& t = threads_[idx(cpu)];
  SMT_CHECK_MSG(t.mode == TMode::kIdle, "context already has a program");
  SMT_CHECK_MSG(!prog.empty(), "empty program");
  t.prog = &prog;
  t.arch = init;
  t.arch.pc = 0;
  t.mode = TMode::kRunning;
  if ((mask_ & Observer::kProgram) != 0) obs_->on_program(cpu, prog);
}

void Core::attach(Observer* obs) {
  SMT_CHECK(obs != nullptr);
  if ((obs->interests() & Observer::kProgram) != 0) {
    for (int i = 0; i < kNumLogicalCpus; ++i) {
      if (threads_[i].prog != nullptr) {
        obs->on_program(static_cast<CpuId>(i), *threads_[i].prog);
      }
    }
  }
  if (obs_ == nullptr) {
    obs_ = obs;
  } else {
    if (obs_ != &tee_) tee_.add(obs_);
    tee_.add(obs);
    obs_ = &tee_;
  }
  mask_ = obs_->interests();
  next_window_ = (mask_ & Observer::kWindow) != 0 ? obs_->next_window()
                                                  : kNoFutureEvent;
}

bool Core::finished(StopWhen stop) const {
  bool any = false, all = true;
  for (const Thread& t : threads_) {
    any |= t.mode == TMode::kDone;
    all &= t.mode == TMode::kIdle || t.mode == TMode::kDone;
  }
  return stop == StopWhen::kAllDone ? all : any;
}

bool Core::partitioned(CpuId cpu) const {
  return cfg_.static_partitioning && other_active(cpu);
}

bool Core::other_active(CpuId cpu) const {
  const Thread& o = threads_[idx(other(cpu))];
  switch (o.mode) {
    case TMode::kIdle:
    case TMode::kDone:
    case TMode::kHalted:
      return false;
    default:
      return true;
  }
}

int Core::rob_limit(CpuId cpu) const {
  return partitioned(cpu) ? cfg_.rob_size / 2 : cfg_.rob_size;
}
int Core::lq_limit(CpuId cpu) const {
  return partitioned(cpu) ? cfg_.load_queue_size / 2 : cfg_.load_queue_size;
}
int Core::sb_limit(CpuId cpu) const {
  return partitioned(cpu) ? cfg_.store_buffer_size / 2
                          : cfg_.store_buffer_size;
}
int Core::uq_limit(CpuId cpu) const {
  return partitioned(cpu) ? cfg_.uop_queue_size / 2 : cfg_.uop_queue_size;
}

int Core::sched_window_limit(CpuId cpu) const {
  // The scheduler queues are split between active contexts like the other
  // buffering structures; this is the partitioning that caps per-thread
  // lookahead (and thus per-thread IPC) in SMT mode.
  return partitioned(cpu) ? cfg_.sched_window / 2 : cfg_.sched_window;
}

bool Core::dep_ready(const Thread& t, uint64_t seq) const {
  if (seq < t.head) return true;  // already retired => result long available
  const RobEntry& e = t.rob[seq % cfg_.rob_size];
  return e.issued && e.done_at <= now_;
}

void Core::reclaim_store_buffer(Thread& t) {
  auto& v = t.sb_drain_free_at;
  for (size_t i = 0; i < v.size();) {
    if (v[i] <= now_) {
      v[i] = v.back();
      v.pop_back();
      --t.sb_used;
      SMT_DCHECK(t.sb_used >= 0);
    } else {
      ++i;
    }
  }
}

void Core::deliver_ipi(CpuId target) {
  Thread& t = threads_[idx(target)];
  ctr_.add(target, Event::kIpisReceived);
  // Sticky semantics: an IPI that arrives while the target is still on its
  // way into halt arms an immediate wake-up, so the sleep/wake protocol has
  // no lost-wakeup race.
  t.ipi_pending = true;
}

void Core::mirror_access_stats(CpuId cpu, const mem::AccessOutcome& out,
                               bool is_load, uint32_t pc) {
  if (out.served_by != mem::ServedBy::kL1) {
    ctr_.add(cpu, Event::kL1Misses);
    if ((mask_ & Observer::kDemandMiss) != 0) {
      obs_->on_demand_miss(cpu, pc, out.l2_miss, now_);
    }
  }
  if (out.served_by == mem::ServedBy::kL2 ||
      out.served_by == mem::ServedBy::kMemory) {
    ctr_.add(cpu, Event::kL2Accesses);
  }
  if (out.l2_miss) {
    ctr_.add(cpu, Event::kL2Misses);
    if (is_load) ctr_.add(cpu, Event::kL2ReadMisses);
  }
}

void Core::check_memory_order(Thread& t, CpuId cpu, Addr addr,
                              uint64_t value) {
  // Did this thread recently load a *different* value from this word?
  bool reloaded_changed = false;
  for (int i = 0; i < Thread::kRlSize; ++i) {
    const int p = (t.rl_pos - 1 - i + 2 * Thread::kRlSize) % Thread::kRlSize;
    if (!t.rl_valid[p]) break;
    if (t.rl_addr[p] == addr) {
      reloaded_changed = t.rl_val[p] != value;
      break;  // most recent observation decides
    }
  }
  if (reloaded_changed) {
    // ...and did the sibling store to it within the detection window?
    const Thread& o = threads_[idx(other(cpu))];
    const Cycle horizon =
        now_ > cfg_.machine_clear_window ? now_ - cfg_.machine_clear_window : 0;
    for (int i = 0; i < Thread::kRsSize; ++i) {
      if (o.rs_valid[i] && o.rs_addr[i] == addr && o.rs_cyc[i] >= horizon) {
        ctr_.add(cpu, Event::kMachineClears);
        t.fetch_stall_until =
            std::max(t.fetch_stall_until, now_ + cfg_.machine_clear_penalty);
        break;
      }
    }
  }
  t.rl_addr[t.rl_pos] = addr;
  t.rl_val[t.rl_pos] = value;
  t.rl_cyc[t.rl_pos] = now_;
  t.rl_valid[t.rl_pos] = true;
  t.rl_pos = (t.rl_pos + 1) % Thread::kRlSize;
}

// ---------------------------------------------------------------------------
// Stage 1: mode updates
// ---------------------------------------------------------------------------

void Core::update_modes(Thread& t, CpuId cpu) {
  switch (t.mode) {
    case TMode::kHalting:
      if (t.pipeline_empty()) {
        t.mode = TMode::kEnterHalt;
        t.mode_until = now_ + cfg_.halt_enter_cost;
        ctr_.add(cpu, Event::kHaltTransitions);
      }
      break;
    case TMode::kEnterHalt:
      if (now_ >= t.mode_until) {
        t.mode = TMode::kHalted;
      }
      break;
    case TMode::kHalted:
      if (t.ipi_pending) {
        t.ipi_pending = false;
        t.mode = TMode::kWaking;
        t.mode_until = now_ + cfg_.halt_wake_cost;
        if ((mask_ & Observer::kIpiWake) != 0) obs_->on_ipi_wake(cpu, now_);
      }
      break;
    case TMode::kWaking:
      if (now_ >= t.mode_until) {
        t.mode = TMode::kRunning;
        if ((mask_ & Observer::kHaltExit) != 0) obs_->on_halt_exit(cpu, now_);
      }
      break;
    case TMode::kExiting:
      if (t.pipeline_empty()) t.mode = TMode::kDone;
      break;
    case TMode::kRunning:
      // An IPI to a running context stays pending (x86 semantics: a HLT
      // executed with an interrupt pending falls straight through). This
      // makes the sleep/wake barrier protocol free of lost-wakeup races.
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Stage 2: retire
// ---------------------------------------------------------------------------

int Core::retire_thread(Thread& t, CpuId cpu) {
  int retired = 0;
  while (retired < cfg_.retire_width && t.head != t.next) {
    RobEntry& e = t.rob[t.head % cfg_.rob_size];
    if (!e.issued || e.done_at > now_) break;
    const DynUop& u = e.uop;

    ctr_.add(cpu, Event::kInstrRetired);
    ctr_.add(cpu, Event::kUopsRetired, u.op == Opcode::kXchg ? 2 : 1);
    if (u.is_branch) ctr_.add(cpu, Event::kBranchesRetired);
    if (u.is_load && !u.is_prefetch) ctr_.add(cpu, Event::kLoadsRetired);
    if (u.is_store) ctr_.add(cpu, Event::kStoresRetired);
    if (u.is_prefetch) ctr_.add(cpu, Event::kPrefetchesRetired);
    switch (u.unit) {
      case UnitClass::kFpAdd:
      case UnitClass::kFpMul:
      case UnitClass::kFpDiv:
      case UnitClass::kFpMove:
        ctr_.add(cpu, Event::kFpUopsRetired);
        break;
      default:
        break;
    }

    if (u.is_load && !u.is_prefetch) {
      --t.lq_used;
      SMT_DCHECK(t.lq_used >= 0);
    }
    if (u.is_store) {
      // Begin draining through the shared L1 store-commit port.
      const Cycle start = std::max(now_, store_commit_port_free_);
      store_commit_port_free_ = start + 1;
      const mem::AccessOutcome out =
          hier_.access(u.addr, /*is_write=*/true, cpu, start, u.pc);
      mirror_access_stats(cpu, out, /*is_load=*/false, u.pc);
      t.sb_drain_free_at.push_back(std::max(out.ready, start + 1));
      // The store-buffer entry stays occupied until the drain completes.
    }

    if ((mask_ & Observer::kRetire) != 0) {
      obs_->on_retire(cpu, u, u.op == Opcode::kXchg ? 2 : 1, now_);
    }

    ++t.head;
    ++retired;
  }
  return retired;
}

// ---------------------------------------------------------------------------
// Stage 3: issue / execute
// ---------------------------------------------------------------------------

bool Core::try_issue_one(Thread& t, CpuId cpu, int& budget) {
  if (budget <= 0) return false;
  const int window = sched_window_limit(cpu);
  int examined = 0;
  for (uint64_t seq = t.head; seq != t.next && examined < window;
       ++seq) {
    RobEntry& e = t.rob[seq % cfg_.rob_size];
    if (e.issued) continue;
    ++examined;

    bool ready = true;
    for (int d = 0; d < e.ndeps; ++d) {
      if (!dep_ready(t, e.dep[d])) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;

    // Structural check + reservation.
    const DynUop& u = e.uop;
    Cycle done = now_ + 1;
    IssuePort port = IssuePort::kAlu0;
    bool has_port = true;  // kNone uops take an issue slot but no port
    switch (u.unit) {
      case UnitClass::kAlu:
        if (cap_alu1_ > 0) {
          --cap_alu1_;
          port = IssuePort::kAlu1;
        } else if (cap_alu0_ > 0) {
          --cap_alu0_;
        } else {
          continue;
        }
        done = now_ + cfg_.latency(u.op);
        break;
      case UnitClass::kAlu0:
      case UnitClass::kBranch:
        if (cap_alu0_ <= 0) continue;
        --cap_alu0_;
        done = now_ + cfg_.latency(u.op);
        break;
      case UnitClass::kIntMul:
        // Integer multiplies execute in the FP complex unit on Netburst,
        // through the same single FP issue port.
        if (cap_fp_port_ <= 0) continue;
        --cap_fp_port_;
        port = IssuePort::kFp;
        done = now_ + cfg_.latency(u.op);
        break;
      case UnitClass::kIntDiv:
        // Integer divides execute in the FP complex unit (paper Table 1's
        // subunit mapping), through the same single FP issue port as
        // INT_MUL and the FP arithmetic units.
        if (cap_fp_port_ <= 0) continue;
        if (cfg_.idiv_unpipelined && idiv_busy_until_ > now_) continue;
        --cap_fp_port_;
        port = IssuePort::kFp;
        done = now_ + cfg_.latency(u.op);
        if (cfg_.idiv_unpipelined) {
          idiv_busy_until_ = done;
          idiv_owner_ = static_cast<int>(idx(cpu));
        }
        break;
      case UnitClass::kFpAdd:
      case UnitClass::kFpMul:
        if (cap_fp_port_ <= 0) continue;
        --cap_fp_port_;
        port = IssuePort::kFp;
        done = now_ + cfg_.latency(u.op);
        break;
      case UnitClass::kFpDiv:
        if (cap_fp_port_ <= 0) continue;
        if (cfg_.fdiv_unpipelined && fdiv_busy_until_ > now_) continue;
        --cap_fp_port_;
        port = IssuePort::kFp;
        done = now_ + cfg_.latency(u.op);
        if (cfg_.fdiv_unpipelined) {
          fdiv_busy_until_ = done;
          fdiv_owner_ = static_cast<int>(idx(cpu));
        }
        break;
      case UnitClass::kFpMove:
        if (cap_fpmov_ <= 0) continue;
        --cap_fpmov_;
        port = IssuePort::kFpMove;
        done = now_ + cfg_.latency(u.op);
        break;
      case UnitClass::kLoad: {
        if (cap_load_ <= 0) continue;
        --cap_load_;
        port = IssuePort::kLoad;
        if (u.is_prefetch) {
          hier_.prefetch(u.addr, u.prefetch_to_l1, cpu, now_);
          done = now_ + 1;  // fire-and-forget
        } else {
          const mem::AccessOutcome out =
              hier_.access(u.addr, /*is_write=*/false, cpu, now_, u.pc);
          mirror_access_stats(cpu, out, /*is_load=*/true, u.pc);
          done = out.ready;
        }
        break;
      }
      case UnitClass::kStore:
        // Store-address generation; the data commits at drain time.
        if (cap_store_ <= 0) continue;
        --cap_store_;
        port = IssuePort::kStore;
        done = now_ + 1;
        break;
      case UnitClass::kNone:
        has_port = false;
        done = now_ + 1;
        break;
    }

    e.issued = true;
    e.done_at = done;
    ctr_.add(cpu, Event::kIssuedUops);
    // Interference bookkeeping: who took which port this cycle (consumed
    // by scan_issue_blocks; simulation state is never read from these).
    ++uops_issued_[idx(cpu)];
    if (has_port) {
      ++port_issued_[idx(cpu)][static_cast<int>(port)];
    }
    if ((mask_ & Observer::kIssue) != 0) {
      obs_->on_issue(cpu, u, has_port ? static_cast<int>(port) : -1, now_,
                     done);
    }
    --budget;
    return true;
  }
  return false;
}

void Core::scan_issue_blocks() {
  // Attribution-only pass, run after the issue stage settles: for each
  // context, find the oldest dep-ready unissued uop still in the scheduler
  // window. It failed to issue this cycle, so it is blocked on structure —
  // either an unpipelined divider that is mid-operation, or a port taken by
  // other uops this cycle. Reads the same state try_issue_one reads and
  // writes only the Thread attribution fields, so the simulation itself is
  // unperturbed. In an event-skip window nothing issues and no divider or
  // dependency deadline expires mid-window, so the fields stay constant and
  // record_cycle_counters can replay them exactly over n cycles (a frozen
  // cycle leaves every cap full and port_issued_ all-zero, so the only
  // reachable block there is kDividerBusy — whose owner is also frozen).
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    Thread& t = threads_[i];
    const CpuId cpu = static_cast<CpuId>(i);
    const int sib = 1 - i;
    t.issue_blocked = false;
    const int window = sched_window_limit(cpu);
    int examined = 0;
    for (uint64_t seq = t.head; seq != t.next && examined < window; ++seq) {
      const RobEntry& e = t.rob[seq % cfg_.rob_size];
      if (e.issued) continue;
      ++examined;
      bool ready = true;
      for (int d = 0; d < e.ndeps; ++d) {
        if (!dep_ready(t, e.dep[d])) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      BlockReason reason = BlockReason::kPortConflict;
      bool sibling = false;
      int port = -1;
      if (e.uop.unit == UnitClass::kIntDiv && cap_fp_port_ > 0 &&
          cfg_.idiv_unpipelined && idiv_busy_until_ > now_) {
        reason = BlockReason::kDividerBusy;
        sibling = idiv_owner_ == sib;
      } else if (e.uop.unit == UnitClass::kFpDiv && cap_fp_port_ > 0 &&
                 cfg_.fdiv_unpipelined && fdiv_busy_until_ > now_) {
        reason = BlockReason::kDividerBusy;
        sibling = fdiv_owner_ == sib;
      } else {
        // Port conflict: name the exhausted candidate port, preferring
        // one the sibling actually issued onto this cycle; with no
        // candidate exhausted the uop lost to raw issue-width, blamed on
        // the sibling when it consumed any of the shared slots.
        int candidates[2];
        int ncand = 0;
        switch (e.uop.unit) {
          case UnitClass::kAlu:
            candidates[ncand++] = static_cast<int>(IssuePort::kAlu1);
            candidates[ncand++] = static_cast<int>(IssuePort::kAlu0);
            break;
          case UnitClass::kAlu0:
          case UnitClass::kBranch:
            candidates[ncand++] = static_cast<int>(IssuePort::kAlu0);
            break;
          case UnitClass::kIntMul:
          case UnitClass::kIntDiv:
          case UnitClass::kFpAdd:
          case UnitClass::kFpMul:
          case UnitClass::kFpDiv:
            candidates[ncand++] = static_cast<int>(IssuePort::kFp);
            break;
          case UnitClass::kFpMove:
            candidates[ncand++] = static_cast<int>(IssuePort::kFpMove);
            break;
          case UnitClass::kLoad:
            candidates[ncand++] = static_cast<int>(IssuePort::kLoad);
            break;
          case UnitClass::kStore:
            candidates[ncand++] = static_cast<int>(IssuePort::kStore);
            break;
          case UnitClass::kNone:
            break;  // consumed issue bandwidth only
        }
        const int caps[kNumIssuePorts] = {cap_alu0_, cap_alu1_, cap_fp_port_,
                                          cap_fpmov_, cap_load_, cap_store_};
        for (int c = 0; c < ncand && port < 0; ++c) {
          const int p = candidates[c];
          if (caps[p] <= 0 && port_issued_[sib][p] > 0) {
            port = p;
            sibling = true;
          }
        }
        for (int c = 0; c < ncand && port < 0; ++c) {
          const int p = candidates[c];
          if (caps[p] <= 0) port = p;  // exhausted by this context alone
        }
        if (port < 0) sibling = uops_issued_[sib] > 0;
      }
      t.issue_blocked = true;
      t.issue_block_reason = reason;
      t.issue_block_pc = e.uop.pc;
      t.issue_block_sibling = sibling;
      t.issue_block_port = port;
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Stage 4: dispatch (allocation)
// ---------------------------------------------------------------------------

int Core::dispatch_thread(Thread& t, CpuId cpu) {
  reclaim_store_buffer(t);
  int dispatched = 0;
  t.stall = StallReason::kNone;
  while (dispatched < cfg_.dispatch_width && !t.uq.empty()) {
    const DynUop& u = t.uq.front();
    if (t.rob_occupancy() >= static_cast<size_t>(rob_limit(cpu))) {
      t.stall = StallReason::kRob;
      t.stall_pc = u.pc;
      t.stall_sibling = partitioned(cpu) &&
                        t.rob_occupancy() < static_cast<size_t>(cfg_.rob_size);
      break;
    }
    if (u.is_load && !u.is_prefetch && t.lq_used >= lq_limit(cpu)) {
      t.stall = StallReason::kLoadQueue;
      t.stall_pc = u.pc;
      t.stall_sibling = partitioned(cpu) && t.lq_used < cfg_.load_queue_size;
      break;
    }
    if (u.is_store && t.sb_used >= sb_limit(cpu)) {
      t.stall = StallReason::kStoreBuffer;
      t.stall_pc = u.pc;
      t.stall_sibling = partitioned(cpu) && t.sb_used < cfg_.store_buffer_size;
      break;
    }

    RobEntry& e = t.rob[t.next % cfg_.rob_size];
    e.uop = u;
    e.issued = false;
    e.done_at = 0;
    e.ndeps = 0;
    auto add_dep = [&](isa::RegId r) {
      if (r == isa::kNoReg) return;
      const uint64_t w = t.last_writer[r];
      if (w == 0 || w - 1 < t.head) return;  // no in-flight producer
      const uint64_t seq = w - 1;
      for (int d = 0; d < e.ndeps; ++d) {
        if (e.dep[d] == seq) return;
      }
      SMT_DCHECK(e.ndeps < 4);
      e.dep[e.ndeps++] = seq;
    };
    // RAW dependences only: the physical register file is large enough to
    // rename away WAW/WAR (128 entries on Netburst), so a destination
    // conflict never delays issue. The paper's |T|-register ILP
    // construction still serializes because its accumulations read their
    // target (t = t op s).
    for (int i = 0; i < u.ndep_regs; ++i) add_dep(u.dep_regs[i]);

    if (u.dst != isa::kNoReg) t.last_writer[u.dst] = t.next + 1;
    if (u.is_load && !u.is_prefetch) ++t.lq_used;
    if (u.is_store) ++t.sb_used;

    ++t.next;
    t.uq.pop_front();
    ++dispatched;
    ctr_.add(cpu, Event::kDispatchedUops);
    if ((mask_ & Observer::kDispatch) != 0) {
      obs_->on_dispatch(cpu, e.uop, now_);
    }
  }
  return dispatched;
}

// ---------------------------------------------------------------------------
// Stage 5: fetch (functional execution)
// ---------------------------------------------------------------------------

int Core::fetch_thread(Thread& t, CpuId cpu) {
  int fetched = 0;
  while (fetched < cfg_.fetch_width &&
         t.uq.size() < static_cast<size_t>(uq_limit(cpu))) {
    SMT_DCHECK(t.arch.pc < t.prog->size());
    const isa::Instr& in = t.prog->at(t.arch.pc);
    const ExecResult r = exec_instr(in, t.arch, mem_);
    t.arch.pc = r.next_pc;

    if (r.special == ExecResult::Special::kExit) {
      t.mode = TMode::kExiting;
      break;
    }

    DynUop u;
    u.uid = uop_uid_next_++;
    u.pc = static_cast<uint32_t>(&in - t.prog->code().data());
    u.op = in.op;
    u.unit = isa::unit_class(in.op);
    u.is_branch = in.is_branch();
    u.is_load = in.is_load() && in.op != Opcode::kPrefetch;
    u.is_store = in.is_store();
    u.is_prefetch = in.op == Opcode::kPrefetch;
    u.prefetch_to_l1 = u.is_prefetch && in.imm != 0;
    u.addr = r.addr;
    if (isa::traits(in.op).writes_reg) u.dst = in.rd;

    auto add_dep_reg = [&u](isa::RegId reg) {
      if (reg == isa::kNoReg) return;
      SMT_DCHECK(u.ndep_regs < 4);
      u.dep_regs[u.ndep_regs++] = reg;
    };
    if (in.op != Opcode::kIMovImm && in.op != Opcode::kFMovImm) {
      add_dep_reg(in.rs1);
    }
    if (!in.use_imm && in.rs2 != isa::kNoReg) add_dep_reg(in.rs2);
    if (in.is_mem()) {
      add_dep_reg(in.mem.base);
      add_dep_reg(in.mem.index);
    }

    // Guest-access hook (race detection, sync-word watchpoints): raised
    // here because functional execution at fetch time makes the call
    // sequence an exact sequentially consistent interleaving of both
    // contexts' accesses, with the stored / exchanged value known.
    if ((mask_ & Observer::kGuestAccess) != 0 && (u.is_load || u.is_store) &&
        !u.is_prefetch) {
      const GuestAccess kind = in.op == Opcode::kXchg ? GuestAccess::kXchg
                               : u.is_store           ? GuestAccess::kStore
                                                      : GuestAccess::kLoad;
      const uint64_t value =
          kind == GuestAccess::kStore ? mem_.read_u64(r.addr) : r.loaded;
      obs_->on_guest_access(cpu, u.pc, r.addr, kind, value, now_);
    }

    // Memory-order-violation (spin-exit) modelling.
    if (u.is_load) check_memory_order(t, cpu, r.addr, r.loaded);
    if (u.is_store) {
      t.rs_addr[t.rs_pos] = r.addr;
      t.rs_cyc[t.rs_pos] = now_;
      t.rs_valid[t.rs_pos] = true;
      t.rs_pos = (t.rs_pos + 1) % Thread::kRsSize;
    }

    t.uq.push_back(u);
    ++fetched;
    if ((mask_ & Observer::kFetch) != 0) obs_->on_fetch(cpu, u, now_);

    switch (r.special) {
      case ExecResult::Special::kPause:
        ctr_.add(cpu, Event::kPausesExecuted);
        t.fetch_stall_until =
            std::max(t.fetch_stall_until, now_ + cfg_.pause_fetch_stall);
        return fetched;
      case ExecResult::Special::kHalt:
        t.mode = TMode::kHalting;
        if ((mask_ & Observer::kHaltEnter) != 0) obs_->on_halt_enter(cpu, now_);
        return fetched;
      case ExecResult::Special::kIpi:
        ctr_.add(cpu, Event::kIpisSent);
        if ((mask_ & Observer::kIpiSend) != 0) obs_->on_ipi_send(cpu, now_);
        deliver_ipi(other(cpu));
        break;
      default:
        break;
    }
  }
  return fetched;
}

// ---------------------------------------------------------------------------
// One cycle
// ---------------------------------------------------------------------------

bool Core::step_cycle() {
  bool any = false;

  for (int i = 0; i < kNumLogicalCpus; ++i) {
    Thread& t = threads_[i];
    const TMode before = t.mode;
    update_modes(t, static_cast<CpuId>(i));
    if (t.mode != before) any = true;
  }

  // Retire: one context per cycle, alternating; a context with nothing
  // retirable donates the slot.
  {
    const int pref = static_cast<int>(now_ % 2);
    for (int k = 0; k < 2; ++k) {
      const int ti = (pref + k) % 2;
      Thread& t = threads_[ti];
      if (t.head == t.next) continue;
      const RobEntry& h = t.rob[t.head % cfg_.rob_size];
      if (!h.issued || h.done_at > now_) continue;
      const int n = retire_thread(t, static_cast<CpuId>(ti));
      if (n > 0) {
        any = true;
        last_retire_cycle_ = now_;
      }
      break;  // retirement bandwidth belongs to one context per cycle
    }
  }

  // Issue: shared ports, round-robin starting with the preferred context.
  cap_alu0_ = cfg_.alu0_per_cycle;
  cap_alu1_ = cfg_.alu1_per_cycle;
  cap_fp_port_ = 1;
  cap_fpmov_ = 1;
  cap_load_ = 1;
  cap_store_ = 1;
  port_issued_ = {};
  uops_issued_ = {};
  {
    int budget = cfg_.issue_width;
    bool progress = true;
    while (progress && budget > 0) {
      progress = false;
      for (int k = 0; k < 2 && budget > 0; ++k) {
        // Round-robin arbitration: after a thread issues, the sibling gets
        // the next chance. (Cycle-parity priority would starve one thread
        // whenever an unpipelined unit's latency is even: the unit would
        // free on same-parity cycles forever.)
        const int ti = (issue_pref_ + k) % 2;
        if (try_issue_one(threads_[ti], static_cast<CpuId>(ti), budget)) {
          progress = true;
          any = true;
          issue_pref_ = 1 - ti;
        }
      }
    }
  }
  // Attribution-only: find which PC (if any) is issue-blocked this cycle.
  // Must run after the issue stage so the result reflects final port state.
  if ((mask_ & Observer::kStall) != 0) scan_issue_blocks();

  // Dispatch: the allocator serves one context per cycle (alternating); a
  // context that has nothing queued — or whose next uop cannot allocate
  // (resources full) — donates the slot to its sibling.
  {
    auto can_dispatch_one = [this](int i) {
      Thread& t = threads_[i];
      if (t.uq.empty()) return false;
      reclaim_store_buffer(t);
      const DynUop& u = t.uq.front();
      const CpuId cpu = static_cast<CpuId>(i);
      if (t.rob_occupancy() >= static_cast<size_t>(rob_limit(cpu))) {
        return false;
      }
      if (u.is_load && !u.is_prefetch && t.lq_used >= lq_limit(cpu)) {
        return false;
      }
      if (u.is_store && t.sb_used >= sb_limit(cpu)) return false;
      return true;
    };
    const int pref = static_cast<int>(now_ % 2);
    const int ti = can_dispatch_one(pref)        ? pref
                   : can_dispatch_one(1 - pref)  ? 1 - pref
                                                 : -1;
    if (ti >= 0) {
      if (dispatch_thread(threads_[ti], static_cast<CpuId>(ti)) > 0) {
        any = true;
      }
    }
    // Record resource blockage for both contexts (for stall accounting),
    // including the one not served this cycle.
    for (int i = 0; i < kNumLogicalCpus; ++i) {
      if (i == ti) continue;
      Thread& t = threads_[i];
      t.stall = StallReason::kNone;
      if (t.uq.empty()) continue;
      reclaim_store_buffer(t);
      const DynUop& u = t.uq.front();
      const CpuId cpu = static_cast<CpuId>(i);
      if (t.rob_occupancy() >= static_cast<size_t>(rob_limit(cpu))) {
        t.stall = StallReason::kRob;
        t.stall_pc = u.pc;
        t.stall_sibling =
            partitioned(cpu) &&
            t.rob_occupancy() < static_cast<size_t>(cfg_.rob_size);
      } else if (u.is_load && !u.is_prefetch && t.lq_used >= lq_limit(cpu)) {
        t.stall = StallReason::kLoadQueue;
        t.stall_pc = u.pc;
        t.stall_sibling = partitioned(cpu) && t.lq_used < cfg_.load_queue_size;
      } else if (u.is_store && t.sb_used >= sb_limit(cpu)) {
        t.stall = StallReason::kStoreBuffer;
        t.stall_pc = u.pc;
        t.stall_sibling =
            partitioned(cpu) && t.sb_used < cfg_.store_buffer_size;
      }
    }
  }

  // Fetch: one context per cycle (alternating), donated when blocked.
  {
    const int pref = static_cast<int>(now_ % 2);
    for (int i = 0; i < kNumLogicalCpus; ++i) threads_[i].uq_full = false;
    for (int k = 0; k < 2; ++k) {
      const int ti = (pref + k) % 2;
      Thread& t = threads_[ti];
      if (t.mode != TMode::kRunning) continue;
      if (t.fetch_stall_until > now_) continue;
      if (t.uq.size() >= static_cast<size_t>(uq_limit(static_cast<CpuId>(ti)))) {
        // The slot is donated; the cycle is attributed to
        // kUopQueueFullCycles in record_cycle_counters so the count
        // replays exactly across event-skip windows.
        t.uq_full = true;
        t.uq_full_pc = t.arch.pc;
        t.uq_full_sibling =
            partitioned(static_cast<CpuId>(ti)) &&
            t.uq.size() < static_cast<size_t>(cfg_.uop_queue_size);
        continue;
      }
      const TMode mode_before = t.mode;
      if (fetch_thread(t, static_cast<CpuId>(ti)) > 0 ||
          t.mode != mode_before) {
        any = true;  // a fetched uop, or an exit/halt mode transition
      }
      break;  // fetch bandwidth belongs to one context per cycle
    }
  }

  record_cycle_counters(now_, 1);
  if ((mask_ & Observer::kStall) != 0) raise_stalls(1);
  return any;
}

void Core::record_cycle_counters(Cycle first, Cycle n) {
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const Thread& t = threads_[i];
    const CpuId cpu = static_cast<CpuId>(i);
    switch (t.mode) {
      case TMode::kRunning:
      case TMode::kHalting:
      case TMode::kEnterHalt:
      case TMode::kExiting:
        ctr_.add(cpu, Event::kCyclesActive, n);
        break;
      case TMode::kHalted:
      case TMode::kWaking:
        ctr_.add(cpu, Event::kCyclesHalted, n);
        break;
      default:
        break;
    }
    if (t.mode == TMode::kRunning && t.fetch_stall_until > first) {
      // Count only the cycles of [first, first+n) the stall covers. (For a
      // skipped window the stall in fact covers all of it — fetch_stall_until
      // is a next-event candidate — but clamping keeps the math exact by
      // construction rather than by that invariant.)
      ctr_.add(cpu, Event::kFetchStallCycles,
               std::min(t.fetch_stall_until, first + n) - first);
    }
    if (t.mode == TMode::kRunning && t.uq_full) {
      ctr_.add(cpu, Event::kUopQueueFullCycles, n);
    }
    switch (t.stall) {
      case StallReason::kRob:
        ctr_.add(cpu, Event::kResourceStallCycles, n);
        ctr_.add(cpu, Event::kRobStallCycles, n);
        break;
      case StallReason::kLoadQueue:
        ctr_.add(cpu, Event::kResourceStallCycles, n);
        ctr_.add(cpu, Event::kLoadQueueStallCycles, n);
        break;
      case StallReason::kStoreBuffer:
        ctr_.add(cpu, Event::kResourceStallCycles, n);
        ctr_.add(cpu, Event::kStoreBufferStallCycles, n);
        break;
      default:
        break;
    }
  }
}

void Core::raise_stalls(Cycle n) {
  // The same predicates record_cycle_counters bumps the stall counters on,
  // so per reason the reported cycles sum to the counters exactly.
  static constexpr BlockReason kAllocStall[] = {
      BlockReason::kRob, BlockReason::kRob, BlockReason::kLoadQueue,
      BlockReason::kStoreBuffer};  // indexed by StallReason (kNone unused)
  for (int i = 0; i < kNumLogicalCpus; ++i) {
    const Thread& t = threads_[i];
    const CpuId cpu = static_cast<CpuId>(i);
    if (t.mode == TMode::kRunning && t.uq_full) {
      obs_->on_stall(cpu, BlockReason::kUopQueueFull, t.uq_full_pc,
                     t.uq_full_sibling, -1, n);
    }
    if (t.stall != StallReason::kNone) {
      obs_->on_stall(cpu, kAllocStall[static_cast<int>(t.stall)], t.stall_pc,
                     t.stall_sibling, -1, n);
    }
    if (t.issue_blocked) {
      obs_->on_stall(cpu, t.issue_block_reason, t.issue_block_pc,
                     t.issue_block_sibling, t.issue_block_port, n);
    }
  }
}

void Core::record_skipped_window(Cycle first, Cycle n) {
  // One on_stall per reason for the whole window, whatever window
  // observers are attached: every blocking predicate is frozen inside it.
  if ((mask_ & Observer::kStall) != 0) raise_stalls(n);
  // Chunk the bulk counter accumulation at window boundaries. Within a
  // skipped window every per-cycle predicate is constant and
  // record_cycle_counters is linear in n, so the split is exact: each
  // window sees precisely the cycles it covers, bit-identical to
  // single-stepping. Without a window observer this is one chunk.
  const Cycle end = first + n;
  Cycle cur = first;
  while (cur < end) {
    sample_up_to(cur);  // a boundary may fall exactly on the chunk start
    const Cycle stop = std::min(end, next_window_);
    record_cycle_counters(cur, stop - cur);
    cur = stop;
  }
  sample_up_to(end);  // ... or on the very end of the skipped range
}

Cycle Core::next_event_cycle() const {
  Cycle cand = std::numeric_limits<Cycle>::max();
  auto consider = [&cand, this](Cycle c) {
    if (c > now_ && c < cand) cand = c;
  };
  for (const Thread& t : threads_) {
    switch (t.mode) {
      case TMode::kEnterHalt:
      case TMode::kWaking:
        consider(t.mode_until);
        break;
      case TMode::kRunning:
        consider(t.fetch_stall_until);
        break;
      default:
        break;
    }
    for (uint64_t seq = t.head; seq != t.next; ++seq) {
      const RobEntry& e = t.rob[seq % cfg_.rob_size];
      if (e.issued && e.done_at > now_) consider(e.done_at);
    }
    for (const Cycle c : t.sb_drain_free_at) consider(c);
  }
  consider(fdiv_busy_until_);
  consider(idiv_busy_until_);
  return cand;
}

namespace {

// The abort/report texts shared by run() and try_run(); run()'s SMT_CHECK
// messages are the historical strings death tests match against.
constexpr const char* kDeadlockAsleepMsg =
    "no future event: all contexts asleep (lost wake-up?)";
constexpr const char* kDeadlockWatchdogMsg =
    "watchdog: no retirement progress (deadlocked sync?)";
constexpr const char* kMaxCyclesMsg = "max_cycles exceeded";

// try_run polls the host cancel predicate once per this many run-loop
// iterations — rare enough to stay off the hot path, frequent enough
// (each iteration advances at least one cycle) for a sweep watchdog.
constexpr uint64_t kCancelPollPeriod = 4096;

}  // namespace

RunResult Core::try_run(Cycle max_cycles, StopWhen stop) {
  const Cycle deadline = now_ + max_cycles;
  last_retire_cycle_ = now_;
  uint64_t iter = 0;
  while (!finished(stop)) {
    if (cancel_ && (++iter % kCancelPollPeriod) == 0 && cancel_()) {
      return {RunTermination::kCancelled, "cancelled by host watchdog"};
    }
    const bool any = step_cycle();
    if (!any && cfg_.event_skip) {
      const Cycle next = next_event_cycle();
      if (next == kNoFutureEvent) {
        return {RunTermination::kDeadlock, kDeadlockAsleepMsg};
      }
      if (next > now_ + 1) {
        record_skipped_window(now_ + 1, next - now_ - 1);
        now_ = next;
        continue;
      }
    }
    ++now_;
    sample_up_to(now_);
    if (now_ - last_retire_cycle_ >= cfg_.watchdog_cycles) {
      return {RunTermination::kDeadlock, kDeadlockWatchdogMsg};
    }
    if (now_ >= deadline) {
      return {RunTermination::kCycleBudgetExceeded, kMaxCyclesMsg};
    }
  }
  return {};
}

void Core::run(Cycle max_cycles) {
  const RunResult r = try_run(max_cycles);
  SMT_CHECK_MSG(r.ok(), r.message.c_str());
}

}  // namespace smt::cpu

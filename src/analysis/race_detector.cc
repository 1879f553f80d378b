#include "analysis/race_detector.h"

#include <sstream>

#include "isa/disasm.h"

namespace smt::analysis {

using cpu::GuestAccess;

void RaceDetector::on_program(CpuId cpu, const isa::Program& p) {
  progs_[idx(cpu)] = p;
  for (const isa::LockOp& op : p.lock_ops()) add_sync_word(op.addr);
}

bool RaceDetector::in_extents(Addr a) const {
  for (const ExtentRange& e : extents_) {
    if (a >= e.base && a + 8 <= e.base + e.bytes) return true;
  }
  return false;
}

std::string RaceDetector::access_str(CpuId cpu, uint32_t pc,
                                     GuestAccess kind) const {
  std::ostringstream os;
  os << "cpu" << idx(cpu) << " pc " << pc << " (" << cpu::name(kind);
  const auto& prog = progs_[idx(cpu)];
  if (prog.has_value() && pc < prog->size()) {
    os << " `" << isa::disasm(prog->at(pc)) << "`";
  }
  os << ")";
  return os.str();
}

std::string RaceDetector::describe(const RaceReport& r) const {
  std::ostringstream os;
  os << "data race on word 0x" << std::hex << r.addr << std::dec << ": "
     << access_str(r.first_cpu, r.first_pc, r.first_kind)
     << " is concurrent with "
     << access_str(r.second_cpu, r.second_pc, r.second_kind);
  return os.str();
}

std::string RaceDetector::describe(const ExtentViolation& v) const {
  std::ostringstream os;
  os << "access outside registered extents at 0x" << std::hex << v.addr
     << std::dec << ": " << access_str(v.cpu, v.pc, v.kind);
  return os.str();
}

std::string RaceDetector::summary() const {
  if (clean()) return "";
  std::ostringstream os;
  if (!races_.empty()) {
    os << describe(races_.front());
    if (total_races_ > 1) {
      os << " (+" << total_races_ - 1 << " further conflicting pair(s))";
    }
  }
  if (!extent_violations_.empty()) {
    if (!races_.empty()) os << "; ";
    os << describe(extent_violations_.front());
    if (extent_violations_.size() > 1) {
      os << " (+" << extent_violations_.size() - 1 << " more)";
    }
  }
  return os.str();
}

void RaceDetector::report_race(int first_tid, uint32_t first_pc,
                               GuestAccess first_kind, CpuId second_cpu,
                               uint32_t second_pc, GuestAccess second_kind,
                               Addr addr) {
  ++total_races_;
  if (races_.size() >= kMaxReports) return;
  const uint64_t key = (static_cast<uint64_t>(first_pc) << 32) ^
                       (static_cast<uint64_t>(second_pc) << 8) ^
                       (static_cast<uint64_t>(first_kind) << 4) ^
                       (static_cast<uint64_t>(second_kind) << 2) ^
                       static_cast<uint64_t>(first_tid);
  if (!race_keys_.insert(key).second) return;
  RaceReport r;
  r.first_cpu = static_cast<CpuId>(first_tid);
  r.first_pc = first_pc;
  r.first_kind = first_kind;
  r.second_cpu = second_cpu;
  r.second_pc = second_pc;
  r.second_kind = second_kind;
  r.addr = addr;
  races_.push_back(std::move(r));
}

void RaceDetector::on_guest_access(CpuId cpu, uint32_t pc, Addr addr,
                                   GuestAccess kind, uint64_t /*value*/,
                                   Cycle /*now*/) {
  const int t = idx(cpu);
  const int u = 1 - t;

  if (extents_complete_ && !in_extents(addr)) {
    const uint64_t key =
        (static_cast<uint64_t>(pc) << 2) | static_cast<uint64_t>(t);
    if (extent_violations_.size() < kMaxReports &&
        violation_keys_.insert(key).second) {
      extent_violations_.push_back({cpu, pc, kind, addr});
    }
  }

  if (sync_words_.count(addr) != 0) {
    VectorClock& word = sync_clock_[addr];
    if (kind != GuestAccess::kStore) clock_[t].join(word);  // acquire
    if (kind != GuestAccess::kLoad) {                       // release
      word.join(clock_[t]);
      ++clock_[t].c[t];
    }
    return;
  }

  Shadow& s = shadow_[addr];
  const bool is_write = kind != GuestAccess::kLoad;  // xchg writes too
  // A prior write by the sibling races with this access unless it
  // happened-before it (its epoch is covered by our clock).
  if (s.write_tid == u && s.write_epoch > clock_[t].c[u]) {
    report_race(u, s.write_pc, s.write_kind, cpu, pc, kind, addr);
  }
  // A write additionally races with the sibling's prior un-ordered read.
  if (is_write && s.read_epoch[u] > clock_[t].c[u]) {
    report_race(u, s.read_pc[u], GuestAccess::kLoad, cpu, pc, kind, addr);
  }
  if (is_write) {
    s.write_tid = static_cast<int8_t>(t);
    s.write_epoch = clock_[t].c[t];
    s.write_pc = pc;
    s.write_kind = kind;
  }
  if (kind != GuestAccess::kStore) {  // loads and the read half of xchg
    s.read_epoch[t] = clock_[t].c[t];
    s.read_pc[t] = pc;
  }
}

void RaceDetector::on_ipi_send(CpuId cpu, Cycle /*now*/) {
  const int t = idx(cpu);
  // Release into the sibling's wake channel: the IPI carries everything
  // the sender did before it.
  ipi_channel_[1 - t].join(clock_[t]);
  ++clock_[t].c[t];
}

void RaceDetector::on_ipi_wake(CpuId cpu, Cycle /*now*/) {
  const int t = idx(cpu);
  clock_[t].join(ipi_channel_[t]);  // acquire the wake-up edge
}

}  // namespace smt::analysis

#include "trace/recorder.h"

#include <algorithm>

#include "common/check.h"

namespace smt::trace {

const char* name(TraceKind k) {
  switch (k) {
    case TraceKind::kHaltSpan: return "halt";
    case TraceKind::kIpiSend: return "ipi_send";
    case TraceKind::kIpiWake: return "ipi_wake";
    case TraceKind::kBarrierWait: return "barrier_wait";
    case TraceKind::kBarrierEpisode: return "barrier_episode";
    case TraceKind::kSprHandoff: return "spr_handoff";
    case TraceKind::kLockHeld: return "lock_held";
    case TraceKind::kL2MissBurst: return "l2_miss_burst";
  }
  return "?";
}

TraceRecorder::TraceRecorder(size_t capacity, Cycle l2_burst_gap)
    : cap_(capacity), l2_burst_gap_(l2_burst_gap) {
  SMT_CHECK_MSG(capacity > 0, "trace ring capacity must be positive");
  ring_.reserve(std::min<size_t>(capacity, 4096));
}

void TraceRecorder::push(const TraceEvent& e) {
  if (ring_.size() < cap_) {
    ring_.push_back(e);
    return;
  }
  // Bounded ring: overwrite the oldest event.
  ring_[head_] = e;
  head_ = (head_ + 1) % cap_;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

int TraceRecorder::annotate_barrier(Addr flag0, Addr flag1, std::string name,
                                    bool spr) {
  const int id = static_cast<int>(anns_.size());
  Annotation a;
  a.kind = Annotation::Kind::kBarrier;
  a.name = std::move(name);
  a.spr = spr;
  anns_.push_back(std::move(a));
  barriers_.resize(anns_.size());
  locks_.resize(anns_.size());
  watch_[flag0] = WatchSlot{id, 0};
  watch_[flag1] = WatchSlot{id, 1};
  return id;
}

int TraceRecorder::annotate_lock(Addr lock_addr, std::string name) {
  const int id = static_cast<int>(anns_.size());
  Annotation a;
  a.kind = Annotation::Kind::kLock;
  a.name = std::move(name);
  anns_.push_back(std::move(a));
  barriers_.resize(anns_.size());
  locks_.resize(anns_.size());
  watch_[lock_addr] = WatchSlot{id, 0};
  return id;
}

void TraceRecorder::on_halt_enter(CpuId cpu, Cycle now) {
  HaltState& h = halt_[idx(cpu)];
  h.open = true;
  h.begin = now;
}

void TraceRecorder::on_halt_exit(CpuId cpu, Cycle now) {
  HaltState& h = halt_[idx(cpu)];
  if (!h.open) return;
  h.open = false;
  push({h.begin, now, 0, static_cast<int16_t>(idx(cpu)), -1,
        TraceKind::kHaltSpan});
}

void TraceRecorder::on_ipi_send(CpuId cpu, Cycle now) {
  push({now, now, 0, static_cast<int16_t>(idx(cpu)), -1, TraceKind::kIpiSend});
}

void TraceRecorder::on_ipi_wake(CpuId cpu, Cycle now) {
  push({now, now, 0, static_cast<int16_t>(idx(cpu)), -1, TraceKind::kIpiWake});
}

void TraceRecorder::close_burst(int cpu) {
  BurstState& b = burst_[cpu];
  if (!b.open) return;
  b.open = false;
  push({b.begin, b.last + 1, b.count, static_cast<int16_t>(cpu), -1,
        TraceKind::kL2MissBurst});
}

void TraceRecorder::on_demand_miss(CpuId cpu, uint32_t /*pc*/, bool l2_miss,
                                   Cycle now) {
  if (!l2_miss) return;
  BurstState& b = burst_[idx(cpu)];
  if (b.open && now >= b.last && now - b.last <= l2_burst_gap_) {
    b.last = now;
    ++b.count;
    return;
  }
  close_burst(idx(cpu));
  b.open = true;
  b.begin = now;
  b.last = now;
  b.count = 1;
}

void TraceRecorder::on_guest_access(CpuId cpu, uint32_t /*pc*/, Addr addr,
                                    cpu::GuestAccess kind, uint64_t value,
                                    Cycle now) {
  if (kind == cpu::GuestAccess::kLoad) return;
  const auto it = watch_.find(addr);
  if (it == watch_.end()) return;
  const WatchSlot& slot = it->second;
  const Annotation& ann = anns_[slot.ann];
  if (kind == cpu::GuestAccess::kXchg) {
    if (ann.kind != Annotation::Kind::kLock) return;
    // Test-and-set acquire: the exchange that reads 0 owns the lock.
    LockState& l = locks_[slot.ann];
    if (value == 0 && !l.held) {
      l.held = true;
      l.since = now;
      l.owner = static_cast<int16_t>(idx(cpu));
    }
    return;
  }
  if (ann.kind == Annotation::Kind::kLock) {
    // Only the release path stores to a lock word directly (acquisition
    // goes through xchg); a zero store while held closes the span.
    LockState& l = locks_[slot.ann];
    if (value == 0 && l.held) {
      l.held = false;
      push({l.since, now, 0, l.owner, static_cast<int16_t>(slot.ann),
            TraceKind::kLockHeld});
    }
    return;
  }

  // Barrier arrival: the store publishes this thread's episode counter.
  BarrierState& b = barriers_[slot.ann];
  const int s = slot.side;
  b.ep[s] = value;
  b.arrive[s] = now;
  b.arrive_cpu[s] = static_cast<int16_t>(idx(cpu));
  const uint64_t e = value;
  if (b.ep[1 - s] >= e && e > b.completed) {
    // Both flags reached episode e: the episode completes now. The other
    // side arrived first and is the one that actually waited.
    b.completed = e;
    push({b.arrive[1 - s], now, e, -1, static_cast<int16_t>(slot.ann),
          TraceKind::kBarrierEpisode});
    if (now > b.arrive[1 - s]) {
      push({b.arrive[1 - s], now, e, b.arrive_cpu[1 - s],
            static_cast<int16_t>(slot.ann), TraceKind::kBarrierWait});
    }
    if (ann.spr) {
      push({now, now, e, -1, static_cast<int16_t>(slot.ann),
            TraceKind::kSprHandoff});
    }
  }
}

void TraceRecorder::finalize(Cycle end) {
  for (int c = 0; c < kNumLogicalCpus; ++c) {
    close_burst(c);
    HaltState& h = halt_[c];
    if (h.open) {
      h.open = false;
      push({h.begin, end, 0, static_cast<int16_t>(c), -1,
            TraceKind::kHaltSpan});
    }
  }
  for (size_t i = 0; i < locks_.size(); ++i) {
    LockState& l = locks_[i];
    if (l.held) {
      l.held = false;
      push({l.since, end, 0, l.owner, static_cast<int16_t>(i),
            TraceKind::kLockHeld});
    }
  }
}

}  // namespace smt::trace

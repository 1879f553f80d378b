#include "cpu/observer.h"

#include "common/check.h"

namespace smt::cpu {

const char* name(IssuePort p) {
  switch (p) {
    case IssuePort::kAlu0:   return "alu0";
    case IssuePort::kAlu1:   return "alu1";
    case IssuePort::kFp:     return "fp";
    case IssuePort::kFpMove: return "fp_move";
    case IssuePort::kLoad:   return "load";
    case IssuePort::kStore:  return "store";
  }
  return "?";
}

const char* name(BlockReason r) {
  switch (r) {
    case BlockReason::kStoreBuffer:  return "store_buffer";
    case BlockReason::kRob:          return "rob";
    case BlockReason::kLoadQueue:    return "load_queue";
    case BlockReason::kUopQueueFull: return "uop_queue_full";
    case BlockReason::kPortConflict: return "port_conflict";
    case BlockReason::kDividerBusy:  return "divider_busy";
  }
  return "?";
}

const char* name(GuestAccess k) {
  switch (k) {
    case GuestAccess::kLoad:  return "load";
    case GuestAccess::kStore: return "store";
    case GuestAccess::kXchg:  return "xchg";
  }
  return "?";
}

void Tee::add(Observer* obs) {
  SMT_CHECK(obs != nullptr && obs != this);
  const uint32_t want = obs->interests();
  for (int e = 0; e < kNumInterests; ++e) {
    if ((want & (1u << e)) != 0) lists_[e].push_back(obs);
  }
  mask_ |= want;
}

}  // namespace smt::cpu

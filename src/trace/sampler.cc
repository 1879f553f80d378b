#include "trace/sampler.h"

#include "common/check.h"

namespace smt::trace {

CounterSampler::CounterSampler(const perfmon::PerfCounters& ctr, Cycle window,
                               Cycle start)
    : ctr_(ctr), window_(window), next_(start + window), last_(start) {
  SMT_CHECK_MSG(window > 0, "sampler window must be positive");
  prev_ = ctr_.snapshot();
}

void CounterSampler::push_window(Cycle end) {
  const perfmon::Snapshot cur = ctr_.snapshot();
  CounterWindow w;
  w.begin = last_;
  w.end = end;
  w.delta = cur - prev_;
  windows_.push_back(w);
  prev_ = cur;
  last_ = end;
}

void CounterSampler::on_window(Cycle cycle) {
  while (next_ <= cycle) {
    push_window(next_);
    next_ += window_;
  }
}

void CounterSampler::finalize(Cycle end) {
  // Catch up on full windows first (a machine driven by hand, without the
  // core's run loop, never raises on_window), then flush the partial tail.
  on_window(end);
  if (end > last_) push_window(end);
  // next_ stays on the regular grid: if the machine keeps running, the
  // following window is the (shorter) remainder [end, next_).
}

}  // namespace smt::trace

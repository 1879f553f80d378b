// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around the benchmark's own calls into each
// simulator layer (never inside the simulator): name, start, end, the
// enclosing span and the job the span belongs to. They stay in memory
// until the run ends; self_ms() then reports each span name's self time
// (its duration minus what its child spans cover) and write_chrome_trace()
// dumps them as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// A null Tracer* turns every Scope into a no-op, so the untraced and the
// traced runs execute the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal: lives as long as the program
    int64_t begin_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 at the top level
    uint32_t job;
  };

  /// Starts a new job: spans opened from now on carry a fresh job id.
  void begin_job() { ++job_; }

  int32_t open(const char* name);
  void close(int32_t idx);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed self time per span name, in milliseconds, over the spans
  /// whose index is at least `first` (spans recorded after a mark()).
  std::map<std::string, double> self_ms(size_t first = 0) const;

  /// Index the next span will get; pass to self_ms() to skip earlier
  /// spans.
  size_t mark() const { return spans_.size(); }

  /// Writes every span as a Chrome trace "X" event; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint32_t job_ = 0;
};

/// RAII span; records nothing when `t` is null.
class Scope {
 public:
  Scope(Tracer* t, const char* name)
      : t_(t), idx_(t != nullptr ? t->open(name) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int32_t idx_;
};

}  // namespace hostbench

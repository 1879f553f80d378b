#include "tracer.h"

#include "common/check.h"
#include "common/io.h"
#include "common/json.h"

namespace hostbench {

namespace {

int64_t since(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

int32_t Tracer::open(const char* name) {
  const int32_t parent = stack_.empty() ? -1 : stack_.back();
  const int32_t idx = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, since(epoch_), 0, parent, job_});
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int32_t idx) {
  SMT_CHECK_MSG(!stack_.empty() && stack_.back() == idx,
                "spans must close innermost first");
  stack_.pop_back();
  spans_[static_cast<size_t>(idx)].end_ns = since(epoch_);
}

std::map<std::string, double> Tracer::self_ms(size_t first) const {
  // Children are recorded after their parent, so one pass over the spans
  // can charge each child's duration against its parent.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int32_t>(first)) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.begin_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.begin_ns - child_ns[i]) /
                   1e6;
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  smt::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("ts", static_cast<double>(s.begin_ns) / 1e3);
    w.kv("dur", static_cast<double>(s.end_ns - s.begin_ns) / 1e3);
    w.key("args").begin_object();
    w.kv("id", static_cast<int64_t>(i));
    w.kv("parent", static_cast<int64_t>(s.parent));
    w.kv("job", static_cast<uint64_t>(s.job));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return smt::write_text_file(path, w.str());
}

}  // namespace hostbench

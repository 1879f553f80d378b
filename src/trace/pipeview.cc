#include "trace/pipeview.h"

#include <algorithm>
#include <cstdio>

#include "common/io.h"
#include "isa/disasm.h"
#include "isa/program.h"

namespace smt::trace {

void PipeViewRecorder::on_fetch(CpuId cpu, const cpu::DynUop& uop,
                                Cycle now) {
  if (now < cfg_.begin || now > cfg_.end) return;
  if (recs_.size() >= cfg_.max_uops) {
    ++dropped_;
    return;
  }
  UopRecord r;
  r.uid = uop.uid;
  r.pc = uop.pc;
  r.cpu = static_cast<uint8_t>(idx(cpu));
  r.fetch = now;
  index_.emplace(uop.uid, recs_.size());
  recs_.push_back(r);
}

PipeViewRecorder::UopRecord* PipeViewRecorder::find(uint64_t uid) {
  const auto it = index_.find(uid);
  return it == index_.end() ? nullptr : &recs_[it->second];
}

void PipeViewRecorder::on_dispatch(CpuId /*cpu*/, const cpu::DynUop& uop,
                                   Cycle now) {
  UopRecord* r = find(uop.uid);
  if (r == nullptr) return;
  r->has_dispatch = true;
  r->dispatch = now;
}

void PipeViewRecorder::on_issue(CpuId /*cpu*/, const cpu::DynUop& uop,
                                int port, Cycle now, Cycle done) {
  UopRecord* r = find(uop.uid);
  if (r == nullptr) return;
  r->has_issue = true;
  r->port = static_cast<int8_t>(port);
  r->issue = now;
  r->done = done;
}

void PipeViewRecorder::on_retire(CpuId /*cpu*/, const cpu::DynUop& uop,
                                 int /*uops*/, Cycle now) {
  UopRecord* r = find(uop.uid);
  if (r == nullptr) return;
  r->has_retire = true;
  r->retire = now;
}

namespace {

struct KEvent {
  Cycle cycle = 0;
  uint64_t order = 0;  // stable tiebreak: emission sequence
  std::string text;    // one or more newline-terminated Kanata commands
};

void emit(std::vector<KEvent>& out, Cycle cycle, std::string text) {
  out.push_back({cycle, out.size(), std::move(text)});
}

}  // namespace

std::string PipeViewRecorder::to_kanata() const {
  std::vector<KEvent> events;
  char buf[256];
  uint64_t retire_id = 0;
  for (const UopRecord& r : recs_) {
    // Emit only complete lifetimes inside the window: every stage stamp of
    // a uop that retired by cfg_.end is itself <= cfg_.end, which is what
    // makes the log window-bounded.
    if (!r.has_retire || r.retire > cfg_.end) continue;
    std::string intro;
    std::snprintf(buf, sizeof buf, "I\t%llu\t%llu\t%u\n",
                  static_cast<unsigned long long>(r.uid),
                  static_cast<unsigned long long>(r.uid),
                  static_cast<unsigned>(r.cpu));
    intro += buf;
    const std::optional<isa::Program>& prog = progs_[r.cpu];
    std::string text;
    if (prog.has_value() && r.pc < prog->size()) {
      text = isa::disasm(prog->at(r.pc));
    }
    std::snprintf(buf, sizeof buf, "L\t%llu\t0\t[cpu%u] %04u: %s\n",
                  static_cast<unsigned long long>(r.uid),
                  static_cast<unsigned>(r.cpu), r.pc, text.c_str());
    intro += buf;
    std::snprintf(buf, sizeof buf, "S\t%llu\t0\tF\n",
                  static_cast<unsigned long long>(r.uid));
    intro += buf;
    emit(events, r.fetch, std::move(intro));

    if (r.has_dispatch) {
      std::snprintf(buf, sizeof buf, "S\t%llu\t0\tDs\n",
                    static_cast<unsigned long long>(r.uid));
      emit(events, r.dispatch, buf);
    }
    if (r.has_issue) {
      std::string x;
      std::snprintf(buf, sizeof buf, "S\t%llu\t0\tX\n",
                    static_cast<unsigned long long>(r.uid));
      x += buf;
      const char* port =
          r.port >= 0 && r.port < cpu::kNumIssuePorts
              ? cpu::name(static_cast<cpu::IssuePort>(r.port))
              : "none";
      std::snprintf(buf, sizeof buf, "L\t%llu\t1\tport=%s issue=%llu done=%llu\n",
                    static_cast<unsigned long long>(r.uid), port,
                    static_cast<unsigned long long>(r.issue),
                    static_cast<unsigned long long>(r.done));
      x += buf;
      emit(events, r.issue, std::move(x));
      if (r.done > r.issue && r.done < r.retire) {
        std::snprintf(buf, sizeof buf, "S\t%llu\t0\tCm\n",
                      static_cast<unsigned long long>(r.uid));
        emit(events, r.done, buf);
      }
    }
    std::snprintf(buf, sizeof buf, "R\t%llu\t%llu\t0\n",
                  static_cast<unsigned long long>(r.uid),
                  static_cast<unsigned long long>(retire_id++));
    emit(events, r.retire, buf);
  }

  std::string out = "Kanata\t0004\n";
  if (events.empty()) return out;
  std::sort(events.begin(), events.end(), [](const KEvent& a, const KEvent& b) {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.order < b.order;
  });
  Cycle cur = events.front().cycle;
  std::snprintf(buf, sizeof buf, "C=\t%llu\n",
                static_cast<unsigned long long>(cur));
  out += buf;
  for (const KEvent& e : events) {
    if (e.cycle > cur) {
      std::snprintf(buf, sizeof buf, "C\t%llu\n",
                    static_cast<unsigned long long>(e.cycle - cur));
      out += buf;
      cur = e.cycle;
    }
    out += e.text;
  }
  return out;
}

bool write_kanata_file(const PipeViewRecorder& pv, const std::string& path) {
  return write_text_file(path, pv.to_kanata());
}

}  // namespace smt::trace

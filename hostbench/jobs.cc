#include "jobs.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "kernels/bt.h"
#include "kernels/cg.h"
#include "kernels/lu.h"
#include "kernels/matmul.h"

namespace hostbench {

namespace fs = std::filesystem;
using smt::core::Workload;

std::string JobSpec::label() const {
  std::string s = experiment;
  if (cg_iters != 0) s += "[iters=" + std::to_string(cg_iters) + "]";
  if (bt_lines != 0) s += "[lines=" + std::to_string(bt_lines) + "]";
  return s;
}

const std::vector<WorkloadDef>& workloads() {
  // CG and BT run scaled down so one pass of a workload fits a run: the
  // registry's CG (6 iterations) alone takes about 45 s of host time for
  // three modes. One CG iteration and 32 BT lines keep what makes them
  // memory-bound — CG streams its 2.1 MiB matrix every iteration, BT's
  // 640 KiB of line systems still exceed the 512 KiB L2.
  static const std::vector<WorkloadDef> defs = {
      {"issue-bound",
       Kind::kIssueBound,
       {{"mm.serial.n64"},
        {"mm.tlp-fine.n64"},
        {"mm.tlp-coarse.n64"},
        {"mm.tlp-pfetch.n64"},
        {"mm.tlp-pfetch+work.n64"},
        {"lu.serial.n64"},
        {"lu.tlp-coarse.n64"},
        {"lu.tlp-pfetch.n64"}}},
      {"memory-bound",
       Kind::kMemoryBound,
       {{"cg.serial", 1},
        {"cg.tlp-pfetch", 1},
        {"cg.tlp-pfetch+work", 1},
        {"bt.serial", 0, 32},
        {"bt.tlp-pfetch", 0, 32}}},
      {"observed",
       Kind::kObserved,
       {{"lu.tlp-pfetch.n64"},
        {"mm.tlp-pfetch.n64"},
        {"cg.tlp-pfetch", 1},
        {"bt.tlp-pfetch", 0, 32}}},
      {"replay", Kind::kReplay, {}},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workloads()) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::unique_ptr<Workload> make_job(const smt::host::ExperimentDef& def,
                                   const JobSpec& spec, uint64_t seed) {
  std::unique_ptr<Workload> w = def.make();
  if (seed == 0 && spec.registry_params()) return w;
  if (const auto* mm = dynamic_cast<smt::kernels::MatMulWorkload*>(w.get())) {
    smt::kernels::MatMulParams p = mm->params();
    p.seed += seed;
    return std::make_unique<smt::kernels::MatMulWorkload>(p);
  }
  if (const auto* lu = dynamic_cast<smt::kernels::LuWorkload*>(w.get())) {
    smt::kernels::LuParams p = lu->params();
    p.seed += seed;
    return std::make_unique<smt::kernels::LuWorkload>(p);
  }
  if (const auto* cg = dynamic_cast<smt::kernels::CgWorkload*>(w.get())) {
    smt::kernels::CgParams p = cg->params();
    p.seed += seed;
    if (spec.cg_iters != 0) p.iters = spec.cg_iters;
    return std::make_unique<smt::kernels::CgWorkload>(p);
  }
  if (const auto* bt = dynamic_cast<smt::kernels::BtWorkload*>(w.get())) {
    smt::kernels::BtParams p = bt->params();
    p.seed += seed;
    if (spec.bt_lines != 0) p.lines = spec.bt_lines;
    return std::make_unique<smt::kernels::BtWorkload>(p);
  }
  return w;  // not a seeded kernel: nothing to vary
}

void TracedWorkload::setup(smt::core::Machine& m) {
  Scope s(t_, "kernels.setup");
  machine_ = &m;
  inner_->setup(m);
}

std::vector<smt::isa::Program> TracedWorkload::programs() const {
  Scope s(t_, "kernels.programs");
  return inner_->programs();
}

bool TracedWorkload::verify(const smt::core::Machine& m) const {
  if (machine_ == &m) {
    mem_stats_ = {};
    for (smt::CpuId c : {smt::CpuId::kCpu0, smt::CpuId::kCpu1}) {
      const auto& st = machine_->hierarchy().stats(c);
      mem_stats_.accesses += st.accesses;
      mem_stats_.l1_misses += st.l1_misses;
      mem_stats_.l2_accesses += st.l2_accesses;
      mem_stats_.l2_misses += st.l2_misses;
      mem_stats_.prefetch_fills += st.prefetch_fills;
    }
  }
  Scope s(t_, "kernels.verify");
  return inner_->verify(m);
}

std::map<std::string, Baseline> load_baselines(
    const std::string& dir, const std::string& config_hash,
    const std::string& report_schema) {
  std::map<std::string, Baseline> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    const auto doc = smt::parse_json(ss.str());
    if (!doc.has_value()) continue;
    const smt::JsonValue* exp = doc->find("experiment");
    const smt::JsonValue* trajs = doc->find("trajectories");
    if (exp == nullptr || !exp->is_string() || trajs == nullptr ||
        !trajs->is_array()) {
      continue;
    }
    for (const smt::JsonValue& t : trajs->array) {
      const smt::JsonValue* hash = t.find("config_hash");
      const smt::JsonValue* schema = t.find("report_schema");
      const smt::JsonValue* runs = t.find("runs");
      if (hash == nullptr || schema == nullptr || runs == nullptr ||
          hash->string != config_hash || schema->string != report_schema ||
          !runs->is_array() || runs->array.empty()) {
        continue;
      }
      const smt::JsonValue* m = runs->array.back().find("metrics");
      if (m == nullptr) continue;
      const smt::JsonValue* cycles = m->find("cycles");
      const smt::JsonValue* instr = m->find("totals.instr_retired");
      if (cycles == nullptr || instr == nullptr || !cycles->is_number() ||
          !instr->is_number()) {
        continue;
      }
      out[exp->string] = {static_cast<uint64_t>(cycles->number),
                          static_cast<uint64_t>(instr->number)};
    }
  }
  return out;
}

std::map<std::string, Baseline> load_scaled_baselines(
    const std::string& path) {
  std::map<std::string, Baseline> out;
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = smt::parse_json(ss.str());
  const smt::JsonValue* schema = doc ? doc->find("schema") : nullptr;
  const smt::JsonValue* jobs = doc ? doc->find("jobs") : nullptr;
  if (schema == nullptr || schema->string != "hostbench-scaled-baselines/1" ||
      jobs == nullptr || !jobs->is_object()) {
    return out;
  }
  for (const auto& [label, v] : jobs->object) {
    const smt::JsonValue* cycles = v.find("cycles");
    const smt::JsonValue* instr = v.find("instr_retired");
    if (cycles == nullptr || instr == nullptr || !cycles->is_number() ||
        !instr->is_number()) {
      continue;
    }
    out[label] = {static_cast<uint64_t>(cycles->number),
                  static_cast<uint64_t>(instr->number)};
  }
  return out;
}

}  // namespace hostbench

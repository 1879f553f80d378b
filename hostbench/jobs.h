// The benchmark's workloads: which registry experiments each one runs,
// how the benchmark seed reaches the kernels' inputs, and the committed
// baselines the correctness gate compares against (bench/history for
// registry parameters, hostbench/scaled_baselines.json for scaled jobs).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/workload.h"
#include "host/experiments.h"
#include "mem/hierarchy.h"
#include "tracer.h"

namespace hostbench {

/// One job of a workload: a registry experiment, optionally scaled down.
struct JobSpec {
  std::string experiment;  // registry name (host::find_experiment)
  int cg_iters = 0;        // CgParams::iters override; 0 keeps the registry's
  size_t bt_lines = 0;     // BtParams::lines override; 0 keeps the registry's

  /// True when the job runs the registry parameterization unchanged.
  bool registry_params() const { return cg_iters == 0 && bt_lines == 0; }
  /// Display name: the experiment plus any override.
  std::string label() const;
};

enum class Kind { kIssueBound, kMemoryBound, kObserved, kReplay };

struct WorkloadDef {
  const char* name;
  Kind kind;
  std::vector<JobSpec> jobs;  // empty for replay: the default manifest
};

const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(const std::string& name);

/// The fixed job every traced run measures the observers' cost on: a
/// short two-context SPR job with barriers and IPIs.
inline constexpr char kProbeExperiment[] = "lu.tlp-pfetch.n64";

/// The job the traced replay run re-simulates to audit the store and to
/// measure the simulated layers: registry parameters and seeds (so its
/// report is in the warm store), with halting SPR helpers and prefetches.
inline constexpr char kAuditExperiment[] = "mm.tlp-pfetch.n64";

/// Builds a fresh workload for `spec`: ExperimentDef::make, then the
/// registry's parameters with the kernel seed offset by `seed` and the
/// spec's overrides applied. Seed 0 without overrides is the registry
/// instance itself.
std::unique_ptr<smt::core::Workload> make_job(
    const smt::host::ExperimentDef& def, const JobSpec& spec, uint64_t seed);

/// Forwards to a workload while recording spans around setup, programs
/// and verify, and keeps the cache-hierarchy statistics of the machine
/// it was set up on as they stood when verify() ran (after the run).
class TracedWorkload final : public smt::core::Workload {
 public:
  TracedWorkload(std::unique_ptr<smt::core::Workload> inner, Tracer* t)
      : inner_(std::move(inner)), t_(t) {}

  const std::string& name() const override { return inner_->name(); }
  void setup(smt::core::Machine& m) override;
  std::vector<smt::isa::Program> programs() const override;
  bool verify(const smt::core::Machine& m) const override;
  smt::core::MemInfo mem_info() const override { return inner_->mem_info(); }

  /// Hierarchy statistics summed over both logical CPUs at verify time.
  const smt::mem::CacheHierarchy::CpuStats& mem_stats() const {
    return mem_stats_;
  }

 private:
  std::unique_ptr<smt::core::Workload> inner_;
  Tracer* t_;
  smt::core::Machine* machine_ = nullptr;
  mutable smt::mem::CacheHierarchy::CpuStats mem_stats_{};
};

/// Committed simulated results of one job at seed 0.
struct Baseline {
  uint64_t cycles = 0;
  uint64_t instr_retired = 0;
};

/// Reads every bench/history file under `dir` and returns, per
/// experiment, the newest run of the trajectory recorded under
/// `config_hash` and `report_schema`. Empty on an unreadable directory.
std::map<std::string, Baseline> load_baselines(
    const std::string& dir, const std::string& config_hash,
    const std::string& report_schema);

/// Reads the pinned seed-0 results of the scaled jobs, keyed by
/// JobSpec::label(), from a `hostbench-scaled-baselines/1` document.
/// Empty on an unreadable or malformed file.
std::map<std::string, Baseline> load_scaled_baselines(const std::string& path);

}  // namespace hostbench

// hostbench: host-performance benchmark of the smtlimits simulator.
//
//   hostbench --workload W --seed N --seconds S --trace 0|1
//             --history DIR --scaled-baselines FILE --state DIR
//   hostbench --warm --state DIR
//
// One process, one simulating thread: every measured job runs on the
// calling thread through the simulator's public entry points, each on a
// fresh Machine (modelled caches start empty). The last stdout line is
// one JSON object {"correct","attempted","failed","metrics"}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from spans recorded around each call into a layer.
// Every job is checked (verify(); at seed 0 bench/history, or for a
// scaled job the pinned scaled baselines, and bench/history on every
// replay; observed == plain counters; replay hits with exact bytes); any
// failed check makes the exit code 1.
//
// --warm fills <state>/store the way `smt_sweep --lint --cache` does for
// the default manifest, simulating only the jobs not stored yet, and
// rewrites each stored report's bytes under <state>/expected/ for the
// replay workload's byte comparison. It is benchmark preparation: it
// runs jobs on a few threads and reports nothing.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/json.h"
#include "core/run_report.h"
#include "core/runner.h"
#include "host/experiments.h"
#include "host/job_pool.h"
#include "host/result_store.h"
#include "isa/serialize.h"
#include "jobs.h"
#include "perfmon/events.h"
#include "tracer.h"
#include "trace/telemetry.h"

namespace hostbench {
namespace {

namespace fs = std::filesystem;
using smt::core::MachineConfig;
using smt::core::RunOptions;
using smt::core::RunOutcome;
using smt::core::Workload;
using smt::host::ExperimentDef;
using smt::perfmon::Event;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// Per-job host times and simulated instruction counts, keyed by job.
struct JobTimes {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, uint64_t> instr;

  void add(const std::string& job, double job_ms, uint64_t job_instr) {
    ms[job].push_back(job_ms);
    instr[job] = job_instr;
  }
  /// Each job's fastest host time, in key order. A job repeats the same
  /// deterministic work every time, so the host can only add to its time
  /// (other tenants' cache and memory traffic, descheduling); the fastest
  /// run is the estimate of the job's own cost that such interference
  /// disturbs least. On a shared 4-vCPU VM the host alternates between
  /// stretches in which the same replay pass takes 140 and 230 ms, and a
  /// per-job median takes whichever stretch held most of the run.
  std::vector<double> bests() const {
    std::vector<double> out;
    for (const auto& [job, v] : ms) {
      out.push_back(*std::min_element(v.begin(), v.end()));
    }
    return out;
  }
  /// Instructions summed over the jobs / their fastest times summed, so a
  /// job weighs the same however often it ran.
  double mips() const {
    double total_ms = 0.0;
    for (const double m : bests()) total_ms += m;
    uint64_t total_instr = 0;
    for (const auto& [job, n] : instr) total_instr += n;
    return static_cast<double>(total_instr) / (total_ms * 1e3);
  }
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// High-water mark of this process image's resident set (VmHWM). Unlike
/// getrusage's ru_maxrss it starts afresh at exec, so the launcher's own
/// footprint never shows up here.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Runs `once` repeatedly, at least `min_reps` times and for at least
/// `min_ms`, and appends each call's duration in seconds to `samples`.
void sample_seconds(const std::function<void()>& once, size_t min_reps,
                    double min_ms, std::vector<double>* samples) {
  const Clock::time_point t0 = Clock::now();
  for (size_t n = 0; n < min_reps || ms_since(t0) < min_ms; ++n) {
    const Clock::time_point r0 = Clock::now();
    once();
    samples->push_back(ms_since(r0) / 1e3);
  }
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string history;
  std::string scaled_baselines;
  std::string state;
  bool warm = false;
};

std::string store_dir(const Options& o) { return o.state + "/store"; }
std::string expected_path(const Options& o, const std::string& experiment) {
  return o.state + "/expected/" + smt::sanitize_artifact_key(experiment) +
         ".report.json";
}

/// The options smt_sweep runs every job with; replay keys must match.
RunOptions sweep_options(const ExperimentDef& def) {
  RunOptions ro;
  ro.race_detect = def.race_detect;
  ro.flight_recorder = true;
  return ro;
}

/// smt_history's config hash: the canonical form of a report's "config".
std::string history_config_hash(const MachineConfig& cfg) {
  const auto doc = smt::parse_json(smt::core::machine_config_json(cfg));
  return smt::fnv1a64_hex(smt::to_canonical_string(*doc));
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

/// Counts operations (one per job executed) and the ones with any failed
/// check; every failure is explained on stderr.
class Gate {
 public:
  /// Starts one operation; check() failures until the next begin() fail it.
  void begin(std::string what) {
    finish();
    what_ = std::move(what);
    ok_ = true;
    open_ = true;
  }
  void check(bool cond, const std::string& msg) {
    if (cond) return;
    std::fprintf(stderr, "hostbench: FAIL %s: %s\n", what_.c_str(),
                 msg.c_str());
    ok_ = false;
  }
  void finish() {
    if (!open_) return;
    ++attempted_;
    if (!ok_) ++failed_;
    open_ = false;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  std::string what_;
  bool ok_ = true;
  bool open_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // shown on the human-readable line only
};

// ---------------------------------------------------------------------------
// Kernel workloads: issue-bound, memory-bound, observed
// ---------------------------------------------------------------------------

/// Observer sets a job can run with.
enum class Observers {
  kNone,
  kAll,  // the observed workload: every observer at once
  kPcProfiler,
  kInterference,
  kTelemetry,
  kRaceDetector,
  kFlightRecorder,
};

/// Applies the process-global half of `obs` (consulted by Machine's
/// constructor) and returns the per-run half.
RunOptions select_observers(Observers obs) {
  smt::trace::TelemetryConfig tc;
  RunOptions ro;
  const bool all = obs == Observers::kAll;
  tc.enabled = all || obs == Observers::kTelemetry;
  tc.pc_profile = all || obs == Observers::kPcProfiler;
  tc.interference = all || obs == Observers::kInterference;
  ro.race_detect = all || obs == Observers::kRaceDetector;
  ro.flight_recorder = all || obs == Observers::kFlightRecorder;
  smt::trace::set_global_telemetry(tc);
  return ro;
}

struct JobResult {
  double ms = 0.0;  // make() through report serialization
  RunOutcome outcome;
  std::string report;
  smt::mem::CacheHierarchy::CpuStats mem{};  // traced runs only
};

/// Runs one job as smt_sweep does: make(), try_run_workload, report
/// serialization. With a tracer the workload is wrapped so setup,
/// programs and verify get their own spans inside try_run_workload.
JobResult run_job(const JobSpec& spec, uint64_t seed, Observers obs,
                  Tracer* t) {
  const RunOptions ro = select_observers(obs);
  JobResult r;
  const Clock::time_point t0 = Clock::now();
  const ExperimentDef* def = nullptr;
  {
    Scope s(t, "host.find_experiment");
    def = smt::host::find_experiment(spec.experiment);
  }
  std::unique_ptr<Workload> w;
  {
    Scope s(t, "kernels.make");
    w = make_job(*def, spec, seed);
  }
  TracedWorkload* traced = nullptr;
  if (t != nullptr) {
    auto tw = std::make_unique<TracedWorkload>(std::move(w), t);
    traced = tw.get();
    w = std::move(tw);
  }
  {
    Scope s(t, "core.try_run_workload");
    r.outcome = smt::core::try_run_workload(MachineConfig{}, *w,
                                            def->cycle_budget, nullptr, ro);
  }
  {
    Scope s(t, "core.report");
    r.report = smt::core::RunReport::from(r.outcome.stats).to_json();
  }
  r.ms = ms_since(t0);
  if (traced != nullptr) r.mem = traced->mem_stats();
  return r;
}

/// The static pre-run gate smt_sweep --lint applies to a job.
size_t lint_errors(const std::vector<smt::isa::Program>& programs,
                   const smt::core::MemInfo& mi, Tracer* t) {
  Scope s(t, "analysis.lint");
  smt::analysis::LintOptions lo;
  for (const auto& r : mi.data) lo.extents.push_back({r.base, r.bytes, r.name});
  for (const auto& r : mi.sync) lo.extents.push_back({r.base, r.bytes, r.name});
  lo.extents_complete = mi.complete;
  std::vector<std::vector<smt::analysis::Diagnostic>> diags =
      smt::analysis::lint_concurrency(programs);
  diags.resize(programs.size());
  size_t errors = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    const auto d = smt::analysis::lint_program(programs[i], lo);
    diags[i].insert(diags[i].end(), d.begin(), d.end());
    errors += smt::analysis::count_severity(diags[i],
                                            smt::analysis::Severity::kError);
  }
  return errors;
}

void digest_programs(const std::vector<smt::isa::Program>& programs,
                     Tracer* t) {
  Scope s(t, "isa.digest");
  for (const auto& p : programs) (void)smt::isa::program_digest(p);
}

uint64_t total(const RunOutcome& o, Event e) { return o.stats.total(e); }

/// Sums over the simulated jobs of a pass (on replay: the audit job), for
/// the per-layer counts.
struct PassCounts {
  uint64_t uops = 0, cycles = 0, halted = 0, rob = 0, sb = 0, issued = 0,
           report_bytes = 0;
  smt::mem::CacheHierarchy::CpuStats mem{};

  void add(const JobResult& r) {
    const RunOutcome& o = r.outcome;
    uops += total(o, Event::kUopsRetired);
    cycles += o.stats.cycles;
    halted += total(o, Event::kCyclesHalted);
    rob += total(o, Event::kRobStallCycles);
    sb += total(o, Event::kStoreBufferStallCycles);
    issued += total(o, Event::kIssuedUops);
    report_bytes += r.report.size();
    mem.accesses += r.mem.accesses;
    mem.l1_misses += r.mem.l1_misses;
    mem.l2_accesses += r.mem.l2_accesses;
    mem.l2_misses += r.mem.l2_misses;
    mem.prefetch_fills += r.mem.prefetch_fills;
  }
};

/// A traced job's simulated character: IPC; the shares of context cycles
/// (active + halted, both CPUs) spent halted, in any allocator stall and
/// in a ROB stall; the L1 and L2 miss ratios.
std::string job_profile(const std::string& label, const JobResult& r) {
  const RunOutcome& o = r.outcome;
  const double context_cycles = static_cast<double>(
      total(o, Event::kCyclesActive) + total(o, Event::kCyclesHalted));
  const auto pct = [&](Event e) {
    return context_cycles == 0.0
               ? 0.0
               : 100.0 * static_cast<double>(total(o, e)) / context_cycles;
  };
  const double ipc = o.stats.cycles == 0
                         ? 0.0
                         : static_cast<double>(total(o, Event::kInstrRetired)) /
                               static_cast<double>(o.stats.cycles);
  const auto ratio = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "  job %-30s IPC %4.2f  halted %4.1f%%  stalled %4.1f%%  "
                "rob-stall %4.1f%%  L1/L2 miss ratio %.3f/%.3f",
                label.c_str(), ipc, pct(Event::kCyclesHalted),
                pct(Event::kResourceStallCycles), pct(Event::kRobStallCycles),
                ratio(r.mem.l1_misses, r.mem.accesses),
                ratio(r.mem.l2_misses, r.mem.l2_accesses));
  return line;
}

class Bench {
 public:
  Bench(Options opt, const WorkloadDef& wl) : opt_(std::move(opt)), wl_(wl) {
    baselines_ = load_baselines(opt_.history,
                                history_config_hash(MachineConfig{}),
                                "smt-run-report/1");
    scaled_baselines_ = load_scaled_baselines(opt_.scaled_baselines);
  }

  int run();

 private:
  // --- kernel workloads ---
  Observers observers() const {
    return wl_.kind == Kind::kObserved ? Observers::kAll : Observers::kNone;
  }
  /// Appends set-up times of every job, for about 50 ms, to `samples`.
  void kernel_setup_slice(std::vector<double>* samples);
  void plain_reference();
  /// Simulated results against a committed baseline; `b` is null when
  /// `source` has none for the job.
  void check_baseline(const Baseline* b, const std::string& source,
                      uint64_t cycles, uint64_t instr);
  /// Against bench/history.
  void check_history(const std::string& experiment, uint64_t cycles,
                     uint64_t instr);
  /// A seed-0 job against bench/history, or the scaled baselines when the
  /// job is scaled down from the registry.
  void check_seed0(const JobSpec& spec, uint64_t cycles, uint64_t instr);
  void check_job(const JobSpec& spec, const JobResult& r);
  /// One checked job; with a tracer also the host layers around it.
  JobResult kernel_job(const JobSpec& spec, Tracer* t);
  /// One pass over the workload's jobs; returns the pass's MIPS.
  double kernel_pass(Tracer* t, PassCounts* counts);
  std::vector<Metric> kernel_end_to_end();
  std::vector<Metric> kernel_per_layer();

  // --- replay ---
  struct ReplayJob {
    const ExperimentDef* def;
    const std::string* expected;  // into expected_
  };
  void load_expected();
  std::vector<ReplayJob> replay_jobs() const;
  void replay_setup_slice(std::vector<double>* samples);
  /// Replays every job once, adding each replay's latency and the
  /// simulated instructions its report delivers to `times`; returns the
  /// simulated cycles of the pass.
  uint64_t replay_pass(const std::vector<ReplayJob>& jobs, Tracer* t,
                       JobTimes* times);
  std::vector<Metric> replay_end_to_end();
  std::vector<Metric> replay_per_layer();

  // --- shared ---
  /// Runs the observer probe rounds for about `budget_ms`.
  std::map<std::string, double> observer_probe(double budget_ms);
  /// `sim` says where the simulated layers' numbers come from.
  std::vector<Metric> layer_metrics(std::map<std::string, double> pass_ms,
                                    const PassCounts& c, const std::string& sim,
                                    double mips_untraced,
                                    double mips_traced,
                                    const std::map<std::string, double>& obs);
  void write_spans(const Tracer& t) const;
  void print(const std::vector<Metric>& metrics) const;

  Options opt_;
  const WorkloadDef& wl_;
  std::map<std::string, Baseline> baselines_;         // per experiment
  std::map<std::string, Baseline> scaled_baselines_;  // per job label
  Gate gate_;
  // Plain-run reference counters per job label (observed workload).
  std::map<std::string, smt::perfmon::Snapshot> plain_;
  std::map<std::string, uint64_t> plain_cycles_;
  // job_profile() of every job of the traced pass, printed with the
  // metrics.
  std::vector<std::string> job_profiles_;
  // Simulated cycles per job label from the first pass (determinism).
  std::map<std::string, uint64_t> first_cycles_;
  uint64_t lookups_ = 0;
  uint64_t hits_ = 0;
  // Store the traced kernel jobs write to and reload from (removed at
  // exit); the warm store of the replay workload.
  std::optional<smt::host::ResultStore> scratch_store_;
  std::optional<smt::host::ResultStore> store_;
  // Stored report bytes per default-manifest experiment, read before
  // anything is timed.
  std::map<std::string, std::string> expected_;
  std::vector<ReplayJob> jobs_;
};

void Bench::kernel_setup_slice(std::vector<double>* samples) {
  // make + setup + programs on a fresh Machine for every job.
  select_observers(observers());
  const auto set_up_every_job = [this] {
    for (const JobSpec& spec : wl_.jobs) {
      const ExperimentDef* def = smt::host::find_experiment(spec.experiment);
      std::unique_ptr<Workload> w = make_job(*def, spec, opt_.seed);
      smt::core::Machine m;
      w->setup(m);
      const std::vector<smt::isa::Program> progs = w->programs();
    }
  };
  sample_seconds(set_up_every_job, 1, 50.0, samples);
}

void Bench::check_baseline(const Baseline* b, const std::string& source,
                           uint64_t cycles, uint64_t instr) {
  gate_.check(b != nullptr, "no " + source + " baseline (simulated cycles " +
                                std::to_string(cycles) + ", instr_retired " +
                                std::to_string(instr) + ")");
  if (b == nullptr) return;
  gate_.check(b->cycles == cycles, "cycles " + std::to_string(cycles) +
                                       " != " + source + " " +
                                       std::to_string(b->cycles));
  gate_.check(b->instr_retired == instr,
              "instr_retired " + std::to_string(instr) + " != " + source +
                  " " + std::to_string(b->instr_retired));
}

void Bench::check_history(const std::string& experiment, uint64_t cycles,
                          uint64_t instr) {
  const auto b = baselines_.find(experiment);
  check_baseline(b == baselines_.end() ? nullptr : &b->second,
                 "bench/history", cycles, instr);
}

void Bench::check_seed0(const JobSpec& spec, uint64_t cycles,
                        uint64_t instr) {
  if (spec.registry_params()) {
    check_history(spec.experiment, cycles, instr);
    return;
  }
  const auto b = scaled_baselines_.find(spec.label());
  check_baseline(b == scaled_baselines_.end() ? nullptr : &b->second,
                 "hostbench/scaled_baselines.json", cycles, instr);
}

void Bench::check_job(const JobSpec& spec, const JobResult& r) {
  const RunOutcome& o = r.outcome;
  // kOk means the run completed, verify() passed and no race was seen.
  gate_.check(o.ok(), std::string("outcome ") + smt::core::name(o.status) +
                          (o.message.empty() ? "" : ": " + o.message));
  const uint64_t instr = total(o, Event::kInstrRetired);
  // Simulated results repeat exactly: every run must match the first.
  const auto [it, fresh] = first_cycles_.emplace(spec.label(), o.stats.cycles);
  gate_.check(fresh || it->second == o.stats.cycles,
              "cycles differ between runs: " + std::to_string(it->second) +
                  " vs " + std::to_string(o.stats.cycles));
  if (observers() == Observers::kNone && opt_.seed == 0) {
    check_seed0(spec, o.stats.cycles, instr);
  }
  if (observers() == Observers::kAll) {
    const auto p = plain_.find(spec.label());
    gate_.check(p != plain_.end() && p->second.v == o.stats.events.v &&
                    plain_cycles_[spec.label()] == o.stats.cycles,
                "counters with every observer attached differ from the "
                "plain run");
  }
}

void Bench::plain_reference() {
  // The observed workload's counters must equal a plain run's: one plain
  // pass first (checked like the issue-bound jobs, not timed).
  for (const JobSpec& spec : wl_.jobs) {
    gate_.begin("plain " + spec.label());
    const JobResult r = run_job(spec, opt_.seed, Observers::kNone, nullptr);
    gate_.check(r.outcome.ok(), std::string("outcome ") +
                                    smt::core::name(r.outcome.status));
    if (opt_.seed == 0) {
      check_seed0(spec, r.outcome.stats.cycles,
                  total(r.outcome, Event::kInstrRetired));
    }
    plain_[spec.label()] = r.outcome.stats.events;
    plain_cycles_[spec.label()] = r.outcome.stats.cycles;
  }
  gate_.finish();
}

JobResult Bench::kernel_job(const JobSpec& spec, Tracer* t) {
  gate_.begin(spec.label());
  if (t != nullptr) t->begin_job();
  std::optional<smt::host::ResultKey> key;
  if (t != nullptr) {
    // The host layers a cold `smt_sweep --lint --cache` job adds around
    // the simulation: lint gate and content key before, store and reload
    // after. Outside the job's timed region.
    const ExperimentDef* def = smt::host::find_experiment(spec.experiment);
    std::unique_ptr<Workload> w = make_job(*def, spec, opt_.seed);
    smt::core::Machine m;
    w->setup(m);
    const std::vector<smt::isa::Program> programs = w->programs();
    gate_.check(lint_errors(programs, w->mem_info(), t) == 0, "lint errors");
    digest_programs(programs, t);
    ExperimentDef seeded = *def;
    seeded.make = [def, spec, seed = opt_.seed] {
      return make_job(*def, spec, seed);
    };
    Scope s(t, "host.result_key");
    key = smt::host::result_key(seeded, MachineConfig{}, def->cycle_budget,
                                select_observers(observers()));
  }
  JobResult r = run_job(spec, opt_.seed, observers(), t);
  check_job(spec, r);
  if (t != nullptr) {
    std::optional<smt::JsonValue> doc;
    {
      Scope s(t, "common.parse_json");
      doc = smt::parse_json(r.report);
    }
    gate_.check(doc.has_value(), "report does not parse");
    smt::host::CachedResult entry;
    entry.outcome = smt::core::name(r.outcome.status);
    entry.cycles = r.outcome.stats.cycles;
    entry.verified = r.outcome.stats.verified;
    entry.report_json = r.report;
    {
      Scope s(t, "host.store");
      scratch_store_->store(*key, entry);
    }
    std::optional<smt::host::CachedResult> hit;
    {
      Scope s(t, "host.load");
      hit = scratch_store_->load(*key);
    }
    ++lookups_;
    if (hit.has_value()) ++hits_;
    gate_.check(hit.has_value() && hit->report_json == r.report,
                "stored report does not reload byte-identically");
  }
  gate_.finish();
  return r;
}

double Bench::kernel_pass(Tracer* t, PassCounts* counts) {
  double ms = 0.0;
  uint64_t instr = 0;
  for (const JobSpec& spec : wl_.jobs) {
    const JobResult r = kernel_job(spec, t);
    ms += r.ms;
    instr += total(r.outcome, Event::kInstrRetired);
    if (counts != nullptr) {
      counts->add(r);
      job_profiles_.push_back(job_profile(spec.label(), r));
    }
  }
  return static_cast<double>(instr) / (ms * 1e3);  // instr per us = MIPS
}

std::vector<Metric> Bench::kernel_end_to_end() {
  // Set-up is sampled in slices between the jobs: host speed drifts over
  // seconds, and one block of samples would take setup_s from whichever
  // stretch it fell in.
  std::vector<double> setup_samples;
  kernel_setup_slice(&setup_samples);
  if (wl_.kind == Kind::kObserved) plain_reference();
  // Jobs round-robin until the time is up, every job at least once.
  JobTimes times;
  std::map<std::string, uint64_t> cycles;
  const Clock::time_point t0 = Clock::now();
  size_t runs = 0;
  do {
    const JobSpec& spec = wl_.jobs[runs % wl_.jobs.size()];
    const JobResult r = kernel_job(spec, nullptr);
    times.add(spec.label(), r.ms, total(r.outcome, Event::kInstrRetired));
    cycles[spec.label()] = r.outcome.stats.cycles;
    kernel_setup_slice(&setup_samples);
    ++runs;
  } while (runs < wl_.jobs.size() || ms_since(t0) / 1e3 < opt_.seconds);
  uint64_t sum_cycles = 0;
  for (const auto& [job, c] : cycles) sum_cycles += c;
  const std::vector<double> job_ms = times.bests();
  const std::string n = " (" + std::to_string(job_ms.size()) + " jobs, " +
                        std::to_string(runs) + " runs)";
  return {
      {"sim_mips", times.mips(), "MIPS",
       "instructions / sum of per-job fastest times" + n},
      {"sim_cycles", static_cast<double>(sum_cycles), "cycles",
       "sum over jobs"},
      {"setup_s", median(setup_samples), "s",
       "median of " + std::to_string(setup_samples.size()) +
           " set-ups of every job, taken between the runs"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
      {"job_ms_p50", percentile(job_ms, 0.5), "ms",
       "over per-job fastest times" + n},
      {"job_ms_p99", percentile(job_ms, 0.99), "ms",
       "over per-job fastest times" + n},
  };
}

std::map<std::string, double> Bench::observer_probe(double budget_ms) {
  // Extra try_run_workload time with one observer attached against none,
  // on the probe job; rounds repeat while the budget lasts, medians win.
  static const std::pair<const char*, Observers> kObs[] = {
      {"profile.pc_profiler_ms", Observers::kPcProfiler},
      {"profile.interference_ms", Observers::kInterference},
      {"trace.telemetry_ms", Observers::kTelemetry},
      {"analysis.race_detector_ms", Observers::kRaceDetector},
      {"core.flight_recorder_ms", Observers::kFlightRecorder},
  };
  const JobSpec probe{kProbeExperiment};
  const ExperimentDef* def = smt::host::find_experiment(kProbeExperiment);
  std::map<std::string, std::vector<double>> deltas;
  const Clock::time_point t0 = Clock::now();
  const auto timed_run = [&](Observers obs) {
    const RunOptions ro = select_observers(obs);
    std::unique_ptr<Workload> w = make_job(*def, probe, 0);
    const Clock::time_point r0 = Clock::now();
    const RunOutcome o = smt::core::try_run_workload(
        MachineConfig{}, *w, def->cycle_budget, nullptr, ro);
    const double ms = ms_since(r0);
    gate_.begin(std::string("observer probe ") + kProbeExperiment);
    gate_.check(o.ok(), std::string("outcome ") + smt::core::name(o.status));
    gate_.finish();
    return ms;
  };
  // At least three rounds, more while the budget lasts; each delta pairs
  // runs of the same round.
  size_t rounds = 0;
  do {
    const double base = timed_run(Observers::kNone);
    for (const auto& [name, obs] : kObs) {
      deltas[name].push_back(timed_run(obs) - base);
    }
    ++rounds;
  } while (rounds < 3 || ms_since(t0) * (rounds + 1) / rounds <= budget_ms);
  select_observers(Observers::kNone);
  std::map<std::string, double> out;
  for (const auto& [name, v] : deltas) out[name] = median(v);
  return out;
}

std::vector<Metric> Bench::layer_metrics(
    std::map<std::string, double> pass_ms, const PassCounts& c,
    const std::string& sim, double mips_untraced, double mips_traced,
    const std::map<std::string, double>& obs) {
  const auto per_pass = [&](std::initializer_list<const char*> names) {
    double ms = 0.0;
    for (const char* n : names) ms += pass_ms[n];
    return ms;
  };
  const double run_ms = per_pass({"core.try_run_workload"});
  const double ratio = c.mem.l2_accesses == 0
                           ? 0.0
                           : static_cast<double>(c.mem.l2_misses) /
                                 static_cast<double>(c.mem.l2_accesses);
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"kernels.setup_ms", per_pass({"kernels.make", "kernels.setup",
                                     "kernels.programs"}),
       "ms", "per pass"},
      {"kernels.verify_ms", per_pass({"kernels.verify"}), "ms", sim},
      {"cpu.run_ms", run_ms, "ms", sim},
      {"cpu.ns_per_uop", run_ms * 1e6 / count(std::max<uint64_t>(c.uops, 1)),
       "ns", ""},
      {"cpu.ns_per_cycle",
       run_ms * 1e6 / count(std::max<uint64_t>(c.cycles, 1)), "ns", ""},
      {"cpu.uops_retired", count(c.uops), "count", sim},
      {"cpu.cycles", count(c.cycles), "cycles", sim},
      {"perfmon.cycles_halted", count(c.halted), "cycles", sim},
      {"perfmon.rob_stall_cycles", count(c.rob), "cycles", sim},
      {"perfmon.store_buffer_stall_cycles", count(c.sb), "cycles", sim},
      {"perfmon.issued_uops", count(c.issued), "count", sim},
      {"mem.accesses", count(c.mem.accesses), "count", sim},
      {"mem.l1_misses", count(c.mem.l1_misses), "count", sim},
      {"mem.l2_misses", count(c.mem.l2_misses), "count", sim},
      {"mem.l2_miss_ratio", ratio, "ratio", "l2_misses / l2_accesses"},
      {"mem.prefetch_fills", count(c.mem.prefetch_fills), "count", sim},
      {"core.report_ms", per_pass({"core.report"}), "ms", sim},
      {"core.report_kb", count(c.report_bytes) / 1024.0, "KiB", sim},
      {"analysis.lint_ms", per_pass({"analysis.lint"}), "ms", "per pass"},
      {"isa.digest_ms", per_pass({"isa.digest"}), "ms", "per pass"},
      {"host.key_ms", per_pass({"host.result_key"}), "ms", "per pass"},
      {"host.load_ms", per_pass({"host.load"}), "ms", "per pass"},
      {"host.hit_ratio",
       lookups_ == 0 ? 0.0
                     : static_cast<double>(hits_) /
                           static_cast<double>(lookups_),
       "ratio", std::to_string(hits_) + "/" + std::to_string(lookups_)},
      {"common.json_parse_ms", per_pass({"common.parse_json"}), "ms",
       "per pass"},
      {"tracing.sim_mips_untraced", mips_untraced, "MIPS", ""},
      {"tracing.sim_mips_traced", mips_traced, "MIPS", ""},
      {"tracing.overhead_pct", (mips_untraced / mips_traced - 1.0) * 100.0,
       "%", "untraced / traced sim_mips - 1"},
  };
  for (const auto& [name, v] : obs) {
    m.push_back({name, v, "ms",
                 std::string("per run of ") + kProbeExperiment +
                     ", median of paired rounds"});
  }
  return m;
}

void Bench::write_spans(const Tracer& t) const {
  const std::string path = opt_.state + "/spans/" + wl_.name + ".seed" +
                           std::to_string(opt_.seed) + ".trace.json";
  if (!t.write_chrome_trace(path)) {
    std::fprintf(stderr, "hostbench: could not write spans to %s\n",
                 path.c_str());
  }
}

std::vector<Metric> Bench::kernel_per_layer() {
  if (wl_.kind == Kind::kObserved) plain_reference();
  const std::string scratch =
      opt_.state + "/scratch-store-" + std::to_string(getpid());
  scratch_store_.emplace(scratch);
  const double mips_untraced = kernel_pass(nullptr, nullptr);
  Tracer t;
  PassCounts c;
  const double mips_traced = kernel_pass(&t, &c);
  const auto obs = observer_probe(opt_.seconds * 1e3 / 3.0);
  std::error_code ec;
  fs::remove_all(scratch, ec);
  write_spans(t);
  return layer_metrics(t.self_ms(), c, "per pass", mips_untraced,
                       mips_traced, obs);
}

// ---------------------------------------------------------------------------
// Replay: warm-cache replay of the default manifest
// ---------------------------------------------------------------------------

void Bench::load_expected() {
  for (const std::string& name : smt::host::default_manifest()) {
    expected_[name] = read_file(expected_path(opt_, name)).value_or("");
  }
}

std::vector<Bench::ReplayJob> Bench::replay_jobs() const {
  std::vector<ReplayJob> jobs;
  for (const std::string& name : smt::host::default_manifest()) {
    jobs.push_back({smt::host::find_experiment(name), &expected_.at(name)});
  }
  std::mt19937_64 rng(opt_.seed);
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

void Bench::replay_setup_slice(std::vector<double>* samples) {
  // Open the store and build the job list the passes then replay.
  const auto open_store = [this] {
    store_.emplace(store_dir(opt_));
    jobs_ = replay_jobs();
  };
  sample_seconds(open_store, 1, 5.0, samples);
}

uint64_t Bench::replay_pass(const std::vector<ReplayJob>& jobs, Tracer* t,
                            JobTimes* times) {
  uint64_t cycles = 0;
  for (const ReplayJob& j : jobs) {
    const ExperimentDef& def = *j.def;
    gate_.begin("replay " + def.name);
    if (t != nullptr) t->begin_job();
    const Clock::time_point t0 = Clock::now();
    // The smt_sweep --lint gate, then the cache lookup of the job.
    std::unique_ptr<Workload> w;
    {
      Scope s(t, "kernels.make");
      w = def.make();
    }
    std::optional<smt::core::Machine> m;
    {
      Scope s(t, "kernels.setup");
      m.emplace();
      w->setup(*m);
    }
    std::vector<smt::isa::Program> programs;
    {
      Scope s(t, "kernels.programs");
      programs = w->programs();
    }
    const size_t errors = lint_errors(programs, w->mem_info(), t);
    smt::host::ResultKey key;
    {
      Scope s(t, "host.result_key");
      key = smt::host::result_key(def, MachineConfig{}, def.cycle_budget,
                                  sweep_options(def));
    }
    std::optional<smt::host::CachedResult> hit;
    {
      Scope s(t, "host.load");
      hit = store_->load(key);
    }
    const bool same_bytes = hit.has_value() && hit->report_json == *j.expected;
    std::optional<smt::JsonValue> doc;
    if (hit.has_value()) {
      Scope s(t, "common.parse_json");
      doc = smt::parse_json(hit->report_json);
    }
    const double job = ms_since(t0);
    if (t != nullptr) digest_programs(programs, t);

    ++lookups_;
    if (hit.has_value()) ++hits_;
    gate_.check(errors == 0, std::to_string(errors) + " lint error(s)");
    gate_.check(hit.has_value(), "cache miss (run with a warm store)");
    gate_.check(!hit.has_value() || same_bytes,
                "replayed bytes differ from the stored report");
    gate_.check(!hit.has_value() || hit->outcome == "ok",
                "stored outcome " + (hit ? hit->outcome : std::string()));
    const smt::JsonValue* c = doc ? doc->find("cycles") : nullptr;
    const smt::JsonValue* totals = doc ? doc->find("totals") : nullptr;
    const smt::JsonValue* ir =
        totals != nullptr ? totals->find("instr_retired") : nullptr;
    gate_.check(!hit.has_value() || (c != nullptr && ir != nullptr),
                "replayed report does not parse");
    uint64_t instr = 0;
    if (c != nullptr && ir != nullptr) {
      const auto cyc = static_cast<uint64_t>(c->number);
      instr = static_cast<uint64_t>(ir->number);
      check_history(def.name, cyc, instr);
      cycles += cyc;
    }
    times->add(def.name, job, instr);
  }
  gate_.finish();
  return cycles;
}

std::vector<Metric> Bench::replay_end_to_end() {
  load_expected();
  // Set-up is sampled in slices between the passes, as on the kernel
  // workloads, so that no single stretch of host speed decides it.
  std::vector<double> setup_samples;
  replay_setup_slice(&setup_samples);
  const Clock::time_point t0 = Clock::now();
  JobTimes times;
  uint64_t cycles = 0;
  size_t passes = 0;
  do {
    cycles = replay_pass(jobs_, nullptr, &times);
    replay_setup_slice(&setup_samples);
    ++passes;
  } while (ms_since(t0) / 1e3 < opt_.seconds);
  // Percentiles over the jobs' fastest latencies: pooled samples would
  // put p50 on the edge between two jobs' sample clouds.
  const std::vector<double> job_ms = times.bests();
  const std::string n = " (" + std::to_string(job_ms.size()) + " jobs, " +
                        std::to_string(passes) + " replays each)";
  return {
      {"sim_mips", times.mips(), "MIPS",
       "instructions the replayed reports deliver / sum of per-job fastest "
       "times" + n},
      {"sim_cycles", static_cast<double>(cycles), "cycles", "per pass"},
      {"setup_s", median(setup_samples), "s",
       "median of " + std::to_string(setup_samples.size()) +
           " store opens + job lists, taken between the passes"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", ""},
      {"job_ms_p50", percentile(job_ms, 0.5), "ms",
       "replay latency over per-job fastest times" + n},
      {"job_ms_p99", percentile(job_ms, 0.99), "ms",
       "replay latency over per-job fastest times" + n},
  };
}

std::vector<Metric> Bench::replay_per_layer() {
  load_expected();
  store_.emplace(store_dir(opt_));
  const std::vector<ReplayJob> jobs = replay_jobs();
  const double phase_s = opt_.seconds / 3.0;
  JobTimes untraced;
  Clock::time_point t0 = Clock::now();
  do {
    replay_pass(jobs, nullptr, &untraced);
  } while (ms_since(t0) / 1e3 < phase_s);
  Tracer t;
  JobTimes traced;
  size_t passes = 0;
  t0 = Clock::now();
  do {
    replay_pass(jobs, &t, &traced);
    ++passes;
  } while (ms_since(t0) / 1e3 < phase_s);
  std::map<std::string, double> pass_ms = t.self_ms();
  for (auto& [name, ms] : pass_ms) ms /= static_cast<double>(passes);

  // smt_sweep --cache-verify: re-simulate one hit under the sweep's
  // options (flight recorder on) and demand the stored bytes. It is the
  // only simulation of this workload, so the simulated layers' numbers
  // come from it.
  const size_t mark = t.mark();
  gate_.begin(std::string("audit ") + kAuditExperiment);
  const JobResult r = run_job(JobSpec{kAuditExperiment}, 0,
                              Observers::kFlightRecorder, &t);
  gate_.check(r.outcome.ok(), std::string("outcome ") +
                                  smt::core::name(r.outcome.status));
  gate_.check(expected_.at(kAuditExperiment) == r.report,
              "re-simulation differs from the stored report");
  gate_.finish();
  const std::map<std::string, double> audit_ms = t.self_ms(mark);
  for (const char* n : {"core.try_run_workload", "kernels.verify",
                        "core.report"}) {
    const auto it = audit_ms.find(n);
    pass_ms[n] = it == audit_ms.end() ? 0.0 : it->second;
  }
  PassCounts c;
  c.add(r);
  const auto obs = observer_probe(phase_s * 1e3);
  write_spans(t);
  return layer_metrics(pass_ms, c, std::string("audit of ") + kAuditExperiment,
                       untraced.mips(), traced.mips(), obs);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void Bench::print(const std::vector<Metric>& metrics) const {
  std::printf("hostbench %s seed=%llu seconds=%g trace=%d\n", wl_.name,
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& line : job_profiles_) {
    std::printf("%s\n", line.c_str());
  }
  const double error_rate =
      gate_.attempted() == 0
          ? 1.0
          : static_cast<double>(gate_.failed()) /
                static_cast<double>(gate_.attempted());
  std::printf("  %-36s %16.6g %-6s (%llu of %llu operations failed)\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(gate_.failed()),
              static_cast<unsigned long long>(gate_.attempted()));

  smt::JsonWriter w;
  w.begin_object();
  w.kv("correct", gate_.failed() == 0 && gate_.attempted() > 0);
  w.kv("attempted", gate_.attempted());
  w.kv("failed", gate_.failed());
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.kv("value", std::isfinite(m.value) ? m.value : 0.0);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int Bench::run() {
  std::vector<Metric> m;
  if (wl_.kind == Kind::kReplay) {
    m = opt_.trace ? replay_per_layer() : replay_end_to_end();
  } else {
    m = opt_.trace ? kernel_per_layer() : kernel_end_to_end();
  }
  gate_.finish();
  print(m);
  return gate_.failed() == 0 && gate_.attempted() > 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Store warm-up (benchmark preparation)
// ---------------------------------------------------------------------------

int warm(const Options& opt) {
  constexpr int kWorkers = 3;
  const smt::host::ResultStore store(store_dir(opt));
  const std::vector<std::string> names = smt::host::default_manifest();
  std::vector<smt::host::Job> jobs(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    jobs[i].name = names[i];
    jobs[i].fn = [&opt, &store, name = names[i]](
                     const smt::host::CancelToken&, int, std::string* msg) {
      const ExperimentDef& def = *smt::host::find_experiment(name);
      const RunOptions ro = sweep_options(def);
      const smt::host::ResultKey key =
          smt::host::result_key(def, MachineConfig{}, def.cycle_budget, ro);
      std::optional<smt::host::CachedResult> hit = store.load(key);
      if (!hit.has_value()) {
        const std::unique_ptr<Workload> w = def.make();
        const RunOutcome o = smt::core::try_run_workload(
            MachineConfig{}, *w, def.cycle_budget, nullptr, ro);
        smt::host::CachedResult e;
        e.outcome = smt::core::name(o.status);
        e.message = o.message;
        e.cycles = o.stats.cycles;
        e.verified = o.stats.verified;
        e.report_json = smt::core::RunReport::from(o.stats).to_json();
        e.dump_json = o.core_dump;
        store.store(key, e);
        hit = store.load(key);
      }
      if (!hit.has_value() ||
          !smt::write_text_file(expected_path(opt, name), hit->report_json)) {
        *msg = "could not store " + name;
        return smt::host::JobStatus::kFailed;
      }
      return smt::host::JobStatus::kOk;
    };
  }
  smt::host::JobPoolConfig cfg;
  cfg.workers = kWorkers;
  int failed = 0;
  const std::vector<smt::host::JobResult> results =
      smt::host::run_jobs(cfg, jobs);
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].status != smt::host::JobStatus::kOk) {
      std::fprintf(stderr, "hostbench: warm-up of %s failed: %s\n",
                   names[i].c_str(), results[i].message.c_str());
      ++failed;
    }
  }
  return failed == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload W --seed N --seconds S "
               "--trace 0|1 --history DIR --scaled-baselines FILE "
               "--state DIR\n"
               "       hostbench --warm --state DIR\n"
               "workloads:");
  for (const WorkloadDef& d : workloads()) std::fprintf(stderr, " %s", d.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using hostbench::usage;
  hostbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--warm") {
      opt.warm = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--history") {
      opt.history = argv[++i];
    } else if (a == "--state") {
      opt.state = argv[++i];
    } else if (a == "--scaled-baselines") {
      opt.scaled_baselines = argv[++i];
    } else {
      return usage();
    }
  }
  if (opt.state.empty()) return usage();
  if (opt.warm) return hostbench::warm(opt);
  const hostbench::WorkloadDef* wl = hostbench::find_workload(opt.workload);
  if (wl == nullptr || opt.history.empty() || opt.scaled_baselines.empty() ||
      !(opt.seconds > 0)) {
    return usage();
  }
  return hostbench::Bench(opt, *wl).run();
}

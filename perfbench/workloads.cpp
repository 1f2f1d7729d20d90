// Workload program of the repository benchmark (see perfbench/README.md).
//
//   perfbench_workloads --workload fig7_wireline|fig9_wireline|serve_growth
//                       --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one workload through the library's public entry points and prints
// one JSON object: hardware context, the end-to-end metrics (--trace 0) or
// the per-layer metrics (--trace 1), output fingerprints for cross-run
// comparison, correctness checks and the attempted/failed operation counts.
// run.py builds this binary, runs it in a child process with a deadline and
// turns the object into the benchmark's result line.

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/chosen_victim.hpp"
#include "core/experiment.hpp"
#include "detect/detector.hpp"
#include "obs/obs.hpp"
#include "service/session.hpp"
#include "service/supervisor.hpp"
#include "simnet/load_gen.hpp"
#include "spans.hpp"
#include "testkit/golden.hpp"
#include "tomography/monitor_placement.hpp"
#include "topology/isp.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using scapegoat::derive_seed;
using scapegoat::Rng;
using scapegoat::Scenario;
using scapegoat::TopologyKind;
namespace obs = scapegoat::obs;
namespace service = scapegoat::service;
namespace simnet = scapegoat::simnet;

// ------------------------------------------------------------ workloads --
//
// Sizes are fixed here, not derived from the machine, so that two commits
// run the same work; --seconds sizes only the service stream. Each figure
// workload makes one entry-point call over many topologies drawn from a
// seed derived from --seed: the cost of one ISP draw varies severalfold,
// so a call over few draws would measure the seed rather than the code,
// and the slowest of several smaller calls would measure the worst draw.

// Worker threads of the library's global pool (capped by nproc and recorded
// in the report). The figure workloads run two, so their trials run on the
// pool's helper tasks and a hang or abort in the pool shows as a failed run.
// The service runs one, so each shard computes its growth-forced
// pseudo-inverses on its own thread: with two, both shards' recomputes
// shared the pool and the latency tail moved between two levels from run to
// run.
constexpr std::size_t kFigWorkers = 2;
constexpr std::size_t kServeWorkers = 1;

// fig7_wireline: chosen-victim trials on ISP topologies. Trial-dominated:
// the serial scenario set-up is about a third of the call. Its cost per
// draw is heavy-tailed (some draws take seconds), so a larger share of
// set-up would make the throughput follow the draws rather than the trials.
constexpr std::size_t kFig7Topologies = 12;
constexpr std::size_t kFig7Trials = 1200;  // per topology

// fig9_wireline: detection cells (chosen-victim, max-damage, obfuscation
// under perfect and imperfect cuts) plus the clean false-alarm baseline on
// ISP topologies. The wireless variant is not used: one geometric build
// takes 5-10 s and whether its perfect-cut cells can fill at all depends on
// the draw, so a run cannot average enough draws to be steady.
constexpr std::size_t kFig9Topologies = 10;
// Successful attacks per cell over all topologies (about four from each);
// trial budget per cell and topology.
constexpr std::size_t kFig9Quota = 4 * kFig9Topologies;
constexpr std::size_t kFig9MaxTrials = 8;

// serve_growth: open-loop probe stream into the ingest service.
constexpr std::size_t kServeTopologies = 4;
constexpr std::size_t kServeShards = 2;
constexpr double kServeRate = 20000.0;       // offered batches per second
constexpr std::uint64_t kServeAttackEvery = 16;
constexpr std::size_t kServeMaxGrowth = 48;  // appended paths per topology

// Set-up is timed this often per run (the same work each time).
constexpr int kFigSetupRepeats = 3;
constexpr int kServeSetupRepeats = 5;
constexpr std::uint64_t kCallSalt = 0x7e4fbe4c11ull;

// Seed of a run's entry-point calls and scenario catalog.
std::uint64_t input_seed(std::uint64_t seed) {
  return derive_seed(seed ^ kCallSalt, 0);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

// FNV-1a over raw bytes, for digests of results the testkit has no
// fingerprint for.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void add(const T& v) {
    add(&v, sizeof v);
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::map<std::string, std::string> fingerprints;  // key → digest
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::size_t checks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> notes;  // context numbers for the report

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  bool check(const std::string& name, bool ok, const std::string& detail) {
    ++checks;
    if (!ok) failed_checks.emplace_back(name, detail);
    return ok;
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_report(const Report& r, std::ostream& os) {
  using obs::json_escape;
  os << "{\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"checks\":" << r.checks << ",\"failed_checks\":[";
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i)
    os << (i ? "," : "") << "{\"name\":\""
       << json_escape(r.failed_checks[i].first) << "\",\"detail\":\""
       << json_escape(r.failed_checks[i].second) << "\"}";
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(r.metrics[i].name)
       << "\":{\"value\":" << json_number(r.metrics[i].value)
       << ",\"unit\":\"" << json_escape(r.metrics[i].unit) << "\"}";
  os << "},\"fingerprints\":{";
  bool first = true;
  for (const auto& [k, v] : r.fingerprints) {
    os << (first ? "" : ",") << "\"" << json_escape(k) << "\":\""
       << json_escape(v) << "\"";
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : r.notes) {
    os << (first ? "" : ",") << "\"" << json_escape(k)
       << "\":" << json_number(v);
    first = false;
  }
  os << "}}";
}

// ----------------------------------------------------------- calibration --

// Fixed integer burn kernel: the same instruction stream on every run, so
// the ratio of N-thread to 1-thread throughput is the number of cores the
// machine actually granted, whatever nproc says.
std::uint64_t burn(std::uint64_t iterations, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // one dependent step per iteration
  }
  return x;
}

struct Calibration {
  double effective_cores = 0.0;
  double single_gops = 0.0;  // one thread's burn rate, 1e9 steps per second
};

// Median of three rounds. The burn touches no memory, so it does not see
// contention for caches or memory bandwidth; single_gops only says whether
// the core itself ran at its usual speed.
Calibration calibrate(std::size_t threads) {
  constexpr std::uint64_t kIterations = 40'000'000;
  std::vector<double> ratios, rates;
  std::uint64_t sink = 0;
  for (int round = 0; round < 3; ++round) {
    double t0 = now_s();
    sink += burn(kIterations, round);
    const double single = now_s() - t0;
    std::vector<std::thread> pool;
    std::vector<std::uint64_t> out(threads);
    t0 = now_s();
    for (std::size_t i = 0; i < threads; ++i)
      pool.emplace_back([&out, i] { out[i] = burn(kIterations, i); });
    for (std::thread& t : pool) t.join();
    const double parallel = now_s() - t0;
    for (std::uint64_t v : out) sink += v;
    ratios.push_back(static_cast<double>(threads) * single / parallel);
    rates.push_back(static_cast<double>(kIterations) / single / 1e9);
  }
  asm volatile("" : : "r"(sink));
  return {median(ratios), median(rates)};
}

// ----------------------------------------------------------------- trace --

// Linear-algebra time the library measures with its own timers. lstsq and
// pinv are disjoint (both contain a QR factorization, reported separately
// as linalg.qr.factorize_s); ridge is its own entry point.
double linalg_seconds(const obs::MetricsSnapshot& s) {
  double us = 0.0;
  for (const char* name : {"linalg.lstsq.solve_us", "linalg.pinv.compute_us",
                           "linalg.lstsq.ridge_us"})
    if (const auto* h = s.histogram(name)) us += h->sum;
  return us / 1e6;
}

double histogram_seconds(const obs::MetricsSnapshot& s, const char* name) {
  const auto* h = s.histogram(name);
  return h ? h->sum / 1e6 : 0.0;
}

// The traced run's instrumentation: an in-memory span recorder and a
// metrics registry installed for the traced phase. The registry is never
// destroyed: pool helper tasks may still record their epilogue counters
// after the call that queued them returned.
class Tracer {
 public:
  Tracer() : registry_(new obs::MetricsRegistry) {}

  void start() {
    scope_ = std::make_unique<obs::ScopedInstrumentation>(*registry_,
                                                         &recorder_);
    driving_thread_ = obs::this_thread_id();
    t0_ = now_s();
  }
  void stop() {
    wall_s_ = now_s() - t0_;
    scope_.reset();
  }

  obs::MetricsSnapshot snapshot() const { return registry_->snapshot(); }

  // Benchmark-side span around one call into a module. Records the
  // library-timed linalg seconds spent inside it, so the layer table can
  // move them from the caller's layer to linalg.
  class Call {
   public:
    // `linalg` = false skips the registry snapshots, for per-batch calls
    // that run no linear algebra.
    Call(Tracer* t, const char* name, bool linalg = true)
        : tracer_(linalg ? t : nullptr), name_(name),
          linalg0_(tracer_ ? linalg_seconds(tracer_->snapshot()) : 0.0),
          span_(name) {}
    ~Call() {
      if (tracer_ == nullptr) return;
      tracer_->linalg_inside_[name_] +=
          linalg_seconds(tracer_->snapshot()) - linalg0_;
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    Tracer* tracer_;
    std::string name_;
    double linalg0_;
    obs::ScopedSpan span_;
  };

  std::vector<Span> finish() { return recorder_.finish(driving_thread_); }
  double wall_s() const { return wall_s_; }
  double linalg_inside(const std::string& span) const {
    auto it = linalg_inside_.find(span);
    return it == linalg_inside_.end() ? 0.0 : it->second;
  }
  double linalg_inside_calls() const {
    double t = 0.0;
    for (const auto& [name, v] : linalg_inside_) t += v;
    return t;
  }

 private:
  obs::MetricsRegistry* registry_;
  SpanRecorder recorder_;
  std::unique_ptr<obs::ScopedInstrumentation> scope_;
  int driving_thread_ = 0;
  double t0_ = 0.0;
  double wall_s_ = 0.0;
  std::map<std::string, double> linalg_inside_;
};

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Sums over recorded spans.
struct SpanSums {
  std::map<std::string, double> total;  // by span name
  std::map<std::string, double> self;
  std::map<std::string, std::vector<double>> durations;

  explicit SpanSums(const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      total[s.name] += s.seconds();
      self[s.name] += s.self_s;
      durations[s.name].push_back(s.seconds());
    }
  }
  double self_with_prefix(const char* prefix) const {
    double t = 0.0;
    for (const auto& [name, v] : self)
      if (starts_with(name, prefix)) t += v;
    return t;
  }
  double total_of(const std::string& name) const {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  }
  std::vector<double> durations_of(const std::string& name) const {
    auto it = durations.find(name);
    return it == durations.end() ? std::vector<double>{} : it->second;
  }
};

// --------------------------------------------------------- layer pass --

// Re-does one scenario build of make_scenario(kWireline, rng) step by step,
// each step under its own span: topology generator → place_monitors →
// Scenario::restore + resample_metrics → pseudo_inverse.
struct LayerPass {
  std::optional<Scenario> scenario;
  std::size_t monitors = 0;
  std::size_t paths = 0;
};

LayerPass layer_pass(Tracer* tr, std::uint64_t seed) {
  Rng rng(seed);
  scapegoat::Graph g;
  {
    Tracer::Call c(tr, "topology.generate");
    g = scapegoat::isp_topology(scapegoat::IspParams{}, rng);
  }
  scapegoat::MonitorPlacementResult placement;
  {
    Tracer::Call c(tr, "tomography.place_monitors");
    scapegoat::MonitorPlacementOptions opt;
    opt.path_options.redundant_paths = 8;  // make_scenario's default
    placement = scapegoat::place_monitors(g, opt, rng);
  }
  LayerPass out;
  out.monitors = placement.monitors.size();
  out.paths = placement.paths.size();
  if (!placement.identifiable) return out;
  {
    Tracer::Call c(tr, "tomography.estimator_build");
    const std::size_t links = g.num_links();
    out.scenario = Scenario::restore(std::move(g), placement.monitors,
                                     placement.paths,
                                     scapegoat::Vector(links));
    if (out.scenario) out.scenario->resample_metrics(rng);
  }
  if (out.scenario) {
    Tracer::Call c(tr, "linalg.pseudo_inverse");
    out.scenario->estimator().pseudo_inverse();
  }
  return out;
}

bool same_paths(const std::vector<scapegoat::Path>& a,
                const std::vector<scapegoat::Path>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].nodes != b[i].nodes || a[i].links != b[i].links) return false;
  return true;
}

bool same_bits(const scapegoat::Vector& a, const scapegoat::Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = a[i], y = b[i];
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

// Fidelity gate: the layer pass must rebuild exactly what make_scenario
// builds on the same seed, so its per-layer set-up times describe the work
// the entry points do.
void check_layer_fidelity(Report& r, std::uint64_t seed,
                          const LayerPass& pass) {
  Rng rng(seed);
  std::optional<Scenario> ref =
      scapegoat::make_scenario(TopologyKind::kWireline, rng);
  r.check("layer_pass.identifiable",
          ref.has_value() == pass.scenario.has_value(),
          "layer pass and make_scenario disagree on identifiability");
  if (!ref || !pass.scenario) return;
  r.check("layer_pass.monitors",
          ref->monitors() == pass.scenario->monitors(),
          "monitor sets differ from make_scenario");
  r.check("layer_pass.paths",
          same_paths(ref->estimator().paths(),
                     pass.scenario->estimator().paths()),
          "measurement paths differ from make_scenario");
  r.check("layer_pass.x_true",
          same_bits(ref->x_true(), pass.scenario->x_true()),
          "ground-truth link metrics differ from make_scenario");
}

// ------------------------------------------------------ per-layer table --

// Per-call times the benchmark measures itself instead of recording a span
// per call (the serve workload makes hundreds of thousands of calls).
struct TimedCalls {
  double service_s = 0.0;  // ProbeIngestService::submit
  double simnet_s = 0.0;   // OpenLoopLoadGen::make_batch
  double own_s = 0.0;      // waiting for due times, polling stats()
};

// Folds the traced phase into per-layer numbers. Layer self times are busy
// thread-seconds; `unattributed_s` is the traced phase's busy time that no
// layer claims, benchmark bookkeeping (bench.* spans, waiting) excluded. Busy
// time is the driving thread's wall, plus pool-worker task time, plus the
// service shards' timed batch work (service.batch.solve_us, which contains
// the pseudo-inverse recomputes that path growth forces).
void layer_table(Report& r, Tracer& tr, const std::vector<Span>& spans,
                 const obs::MetricsSnapshot& m, const TimedCalls& timed) {
  const SpanSums ss(spans);
  auto counter = [&](const char* n) {
    return static_cast<double>(m.counter_value(n));
  };
  auto hist_q = [&](const char* n, double q) {
    const auto* h = m.histogram(n);
    return h ? h->quantile(q) / 1e6 : 0.0;
  };

  // Benchmark-side layer spans: self time minus library-timed linalg.
  // Entry points that build scenarios inside have no spans there yet; their
  // self time stays unattributed rather than counting as their module's.
  auto layer_self = [&](const char* prefix) {
    double t = 0.0;
    for (const auto& [name, v] : ss.self)
      if (starts_with(name, prefix) && name != "service.make_session_catalog")
        t += v - tr.linalg_inside(name);
    return t;
  };
  const double topology_s = layer_self("topology.");
  const double tomography_s = layer_self("tomography.");
  const double detect_s = layer_self("detect.");
  const double linalg_s = linalg_seconds(m);
  const double shard_busy = histogram_seconds(m, "service.batch.solve_us");
  // Linalg time outside the benchmark's calls ran on service shards.
  const double shard_linalg =
      std::max(0.0, linalg_s - tr.linalg_inside_calls());
  const double service_s = layer_self("service.") + timed.service_s +
                           std::max(0.0, shard_busy - shard_linalg);
  const double simnet_s = timed.simnet_s;
  const double bench_s = ss.self_with_prefix("bench.") + timed.own_s;

  const double lp_tableau_s = histogram_seconds(m, "lp.simplex.solve_us");
  const double lp_revised_s = histogram_seconds(m, "lp.revised.solve_us");
  const double lp_s = lp_tableau_s + lp_revised_s;

  // Attack self time: the Fig. 7 trial spans (the program's own) minus the
  // LP solves and least-squares solves inside them, plus the benchmark's own
  // attack calls minus theirs.
  double attack_s = layer_self("attack.");
  const double trial_s = ss.total_of("core.fig7.trial");
  if (trial_s > 0.0) {
    double in_trials = 0.0;
    for (const Span& s : spans)
      if (starts_with(s.name, "lp.") && s.parent >= 0 &&
          spans[static_cast<std::size_t>(s.parent)].name == "core.fig7.trial")
        in_trials += s.seconds();
    // Every least-squares solve of the Fig. 7 phase happens inside a trial.
    attack_s += trial_s - in_trials -
                histogram_seconds(m, "linalg.lstsq.solve_us");
  }

  const double worker_busy = histogram_seconds(m, "pool.task.run_us");
  const double busy = tr.wall_s() + worker_busy + shard_busy;
  const double attributed = topology_s + tomography_s + linalg_s + lp_s +
                            attack_s + detect_s + service_s + simnet_s;
  r.notes["trace.busy_s"] = busy;
  r.notes["trace.own_s"] = bench_s;

  r.metric("topology.generate_s", topology_s, "s");
  r.metric("tomography.place_monitors_s",
           layer_self("tomography.place_monitors"), "s");
  r.metric("tomography.estimator_build_s",
           layer_self("tomography.estimator_build"), "s");
  r.metric("linalg.qr.factorize_s",
           histogram_seconds(m, "linalg.qr.factorize_us"), "s");
  r.metric("linalg.qr.factorizations", counter("linalg.qr.factorizations"),
           "count");
  r.metric("linalg.qr.flops", counter("linalg.qr.flops"), "count");
  r.metric("linalg.lstsq.solves", counter("linalg.lstsq.solves"), "count");
  r.metric("linalg.pinv.compute_s.p50",
           hist_q("linalg.pinv.compute_us", 0.5), "s");
  r.metric("linalg.pinv.compute_s.p99",
           hist_q("linalg.pinv.compute_us", 0.99), "s");
  r.metric("linalg.pinv.computes", counter("linalg.pinv.computes"), "count");
  r.metric("linalg.pinv.flops", counter("linalg.pinv.flops"), "count");

  const double tableau_solves = counter("lp.simplex.solves");
  const double revised_solves = counter("lp.revised.solves");
  const double tableau_pivots = counter("lp.simplex.pivots");
  const double revised_pivots = counter("lp.revised.pivots");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.metric("lp.solve_s", lp_s, "s");
  r.metric("lp.solves", tableau_solves + revised_solves, "count");
  r.metric("lp.pivots", tableau_pivots + revised_pivots, "count");
  r.metric("lp.pivots_per_solve",
           ratio(tableau_pivots + revised_pivots,
                 tableau_solves + revised_solves),
           "count");
  r.metric("lp.tableau.solve_s", lp_tableau_s, "s");
  r.metric("lp.tableau.solves", tableau_solves, "count");
  r.metric("lp.tableau.pivots_per_solve",
           ratio(tableau_pivots, tableau_solves), "count");
  r.metric("lp.revised.solve_s", lp_revised_s, "s");
  r.metric("lp.revised.solves", revised_solves, "count");
  r.metric("lp.revised.pivots_per_solve",
           ratio(revised_pivots, revised_solves), "count");

  r.metric("attack.self_s", attack_s, "s");
  r.metric("detect.checks", counter("detect.checks"), "count");
  r.metric("detect.alarms", counter("detect.alarms"), "count");
  r.metric("detect.self_s", detect_s, "s");

  const std::vector<double> trials = ss.durations_of("core.fig7.trial");
  r.metric("core.trial_s.p50", median(trials), "s");
  r.metric("core.trial_s.p99", percentile(trials, 0.99), "s");
  r.notes["core.trial_samples"] = static_cast<double>(trials.size());

  r.metric("pool.tasks_run", counter("pool.tasks_run"), "count");
  r.metric("pool.parallel_for.inline_runs",
           counter("pool.parallel_for.inline_runs"), "count");
  r.metric("unattributed_s", busy - attributed - bench_s, "s");
  r.notes["layer.service_s"] = service_s;
  r.notes["layer.simnet_s"] = simnet_s;
}

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& run_id) {
  if (path.empty()) return;
  std::ofstream out(path);
  write_spans(out, spans, run_id);
}

// --------------------------------------------------------- fig workloads --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// Correctness of one Fig. 7 series: complete, nothing quarantined, and the
// bins add up. Returns false (and records why) on any violation.
bool check_fig7(Report& r, const scapegoat::PresenceRatioSeries& s,
                std::size_t trials) {
  std::size_t bin_trials = 0;
  bool bins_ok = true;
  for (const auto& b : s.bins) {
    bin_trials += b.trials;
    bins_ok = bins_ok && b.successes <= b.trials;
  }
  bool ok = r.check("fig7.complete", !s.interrupted && s.trials_replayed == 0,
                    "series interrupted or replayed");
  ok &= r.check("fig7.no_quarantine", s.trials_quarantined == 0,
                std::to_string(s.trials_quarantined) + " trials quarantined");
  ok &= r.check("fig7.bins", bins_ok && bin_trials == s.total_trials,
                "bin counts do not add up to total_trials");
  ok &= r.check("fig7.trials_counted",
                trials == 0 ? s.total_trials == 0
                            : s.total_trials > 0 &&
                                  s.total_trials <= kFig7Topologies * trials,
                "counted trials out of range");
  return ok;
}

// Fig. 9 series: complete, no false alarms on clean measurements, cells
// within quota.
bool check_fig9(Report& r, const scapegoat::DetectionSeries& s,
                std::size_t quota) {
  bool ok = r.check("fig9.complete", !s.interrupted && s.trials_replayed == 0,
                    "series interrupted or replayed");
  ok &= r.check("fig9.no_quarantine", s.trials_quarantined == 0,
                std::to_string(s.trials_quarantined) + " trials quarantined");
  ok &= r.check("fig9.no_false_alarms", s.false_alarms == 0,
                std::to_string(s.false_alarms) + " false alarms");
  // The entry point feeds 20 clean measurement sets per topology to the
  // detector.
  ok &= r.check("fig9.clean_trials",
                s.clean_trials == 20 * kFig9Topologies,
                "clean baseline incomplete");
  for (const auto& c : s.cells) {
    const std::string cell = scapegoat::to_string(c.strategy) +
                             (c.perfect_cut ? "/perfect" : "/imperfect");
    ok &= r.check("fig9.quota", c.attacks <= quota && c.detected <= c.attacks,
                  cell + " over quota");
  }
  return ok;
}

// One entry-point call of a figure workload.
struct FigCall {
  double wall = 0.0;
  std::uint64_t trials = 0;     // trials the returned series counts
  std::uint64_t attacks = 0;    // successful attacks it counts
  std::uint64_t attempted = 0;  // operations attempted
  std::uint64_t failed = 0;
  std::string fingerprint;
};

FigCall fig_call(Report& r, Tracer* tr, bool fig7, std::uint64_t cs,
                 bool setup_only) {
  FigCall out;
  const TopologyKind kind = TopologyKind::kWireline;
  if (fig7) {
    scapegoat::PresenceRatioOptions o;
    o.threads = 0;  // the global pool, sized by kFigWorkers
    o.seed = cs;
    o.topologies = kFig7Topologies;
    o.trials_per_topology = setup_only ? 0 : kFig7Trials;
    scapegoat::PresenceRatioSeries s;
    const double t0 = now_s();
    {
      Tracer::Call c(tr, "core.run_presence_ratio_experiment");
      s = scapegoat::run_presence_ratio_experiment(kind, o);
    }
    out.wall = now_s() - t0;
    out.trials = s.total_trials;
    for (const auto& b : s.bins) out.attacks += b.successes;
    out.attempted = kFig7Topologies * o.trials_per_topology;
    out.failed = s.trials_quarantined;
    if (!check_fig7(r, s, o.trials_per_topology))
      out.failed = std::max<std::uint64_t>(out.attempted, 1);
    out.fingerprint = hex32(scapegoat::testkit::fingerprint(s));
  } else {
    scapegoat::DetectionOptionsExperiment o;
    o.threads = 0;
    o.seed = cs;
    o.topologies = kFig9Topologies;
    o.successful_attacks_per_cell = setup_only ? 0 : kFig9Quota;
    o.max_trials_per_cell = kFig9MaxTrials;
    scapegoat::DetectionSeries s;
    const double t0 = now_s();
    {
      Tracer::Call c(tr, "core.run_detection_experiment");
      s = scapegoat::run_detection_experiment(kind, o);
    }
    out.wall = now_s() - t0;
    out.trials = s.clean_trials;
    for (const auto& c : s.cells) out.attacks += c.attacks;
    out.trials += out.attacks;
    out.attempted = s.clean_trials + s.trials_quarantined + out.attacks;
    out.failed = s.trials_quarantined;
    if (!check_fig9(r, s, o.successful_attacks_per_cell))
      out.failed = std::max<std::uint64_t>(out.attempted, 1);
    out.fingerprint = hex32(scapegoat::testkit::fingerprint(s));
  }
  return out;
}

std::string fig_key(bool w, std::uint64_t cs, bool setup_only) {
  return std::string(w ? "fig7" : "fig9") + "/seed=" + std::to_string(cs) +
         "/topologies=" +
         std::to_string(w ? kFig7Topologies : kFig9Topologies) + "/" +
         (setup_only ? "setup"
                     : (w ? "trials=" + std::to_string(kFig7Trials)
                          : "quota=" + std::to_string(kFig9Quota) +
                                "/max_trials=" +
                                std::to_string(kFig9MaxTrials)));
}

void run_figure(const Options& opt, Report& r) {
  const bool fig7 = opt.workload == "fig7_wireline";
  auto record = [&](const FigCall& c, std::uint64_t cs, bool setup_only,
                    const char* tag) {
    r.attempted += c.attempted;
    r.failed += c.failed;
    const std::string key = fig_key(fig7, cs, setup_only);
    auto [it, fresh] = r.fingerprints.emplace(key, c.fingerprint);
    if (!fresh)
      r.check(std::string("fingerprint.") + tag, it->second == c.fingerprint,
              key + ": " + it->second + " vs " + c.fingerprint);
  };

  const std::uint64_t cs = input_seed(opt.seed);
  if (!opt.trace) {
    // Set-up: zero-trial calls on the same seed, so the same draws.
    std::vector<double> setup;
    for (int i = 0; i < kFigSetupRepeats; ++i) {
      const FigCall c = fig_call(r, nullptr, fig7, cs, /*setup_only=*/true);
      record(c, cs, true, "setup");
      setup.push_back(c.wall);
    }
    const FigCall c = fig_call(r, nullptr, fig7, cs, false);
    record(c, cs, false, "run");
    r.metric("setup_s", median(setup), "s");
    r.metric("trials_per_s", static_cast<double>(c.trials) / c.wall, "1/s");
    r.metric("attacks_per_s", static_cast<double>(c.attacks) / c.wall, "1/s");
    // One call per run: its wall is both latency figures.
    r.metric("latency_p50_ms", 1e3 * c.wall, "ms");
    r.metric("latency_p99_ms", 1e3 * c.wall, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.notes["trials"] = static_cast<double>(c.trials);
    r.notes["attacks"] = static_cast<double>(c.attacks);
    return;
  }

  // Traced run on the same seed: an untraced control call, then the traced
  // phase (layer pass, set-up call, full call) under the recorder, then the
  // layer-pass fidelity gate.
  const std::uint64_t layer_seed = derive_seed(cs, 0);
  const FigCall control = fig_call(r, nullptr, fig7, cs, false);
  record(control, cs, false, "untraced");

  Tracer tr;
  tr.start();
  LayerPass pass;
  {
    obs::ScopedSpan phase("bench.layer_pass");
    pass = layer_pass(&tr, layer_seed);
  }
  double success_ratio = 0.0;
  if (!fig7 && pass.scenario) {
    // The Fig. 9 entry point has no attack or detect spans yet, so the
    // benchmark times its own calls on the layer-pass scenario: imperfect-cut
    // chosen-victim attacks, each success fed to the Eq. 23 detector.
    Scenario& sc = *pass.scenario;
    Rng rng(derive_seed(layer_seed, 1));
    std::uint64_t tried = 0, won = 0;
    for (int i = 0; i < 8; ++i) {
      const std::size_t na = static_cast<std::size_t>(rng.uniform_int(1, 4));
      auto ctx = sc.context(
          rng.sample_without_replacement(sc.graph().num_nodes(), na));
      const auto controlled = ctx.controlled_links();
      const scapegoat::LinkId victim = rng.index(sc.graph().num_links());
      if (std::find(controlled.begin(), controlled.end(), victim) !=
          controlled.end())
        continue;
      scapegoat::AttackResult res;
      {
        Tracer::Call c(&tr, "attack.chosen_victim_attack");
        res = scapegoat::chosen_victim_attack(ctx, {victim});
      }
      ++tried;
      if (!res.success) continue;
      ++won;
      Tracer::Call c(&tr, "detect.detect_scapegoating");
      scapegoat::detect_scapegoating(sc.estimator(), res.y_observed);
    }
    r.notes["attack.own_attempts"] = static_cast<double>(tried);
    success_ratio = tried ? static_cast<double>(won) / tried : 0.0;
  }
  const FigCall setup = fig_call(r, &tr, fig7, cs, true);
  const FigCall traced = fig_call(r, &tr, fig7, cs, false);
  tr.stop();
  record(setup, cs, true, "setup");
  record(traced, cs, false, "traced");

  const obs::MetricsSnapshot m = tr.snapshot();
  const std::vector<Span> spans = tr.finish();
  layer_table(r, tr, spans, m, TimedCalls{});
  // Fig. 7: every counted trial is one chosen-victim attempt.
  if (fig7 && traced.trials > 0)
    success_ratio = static_cast<double>(traced.attacks) /
                    static_cast<double>(traced.trials);
  r.metric("attack.success_ratio", success_ratio, "ratio");
  r.metric("tomography.paths_selected", static_cast<double>(pass.paths),
           "count");
  r.metric("tomography.monitors_placed", static_cast<double>(pass.monitors),
           "count");
  r.metric("core.setup_share", setup.wall / traced.wall, "ratio");
  r.metric("trace.overhead_pct", 100.0 * (traced.wall / control.wall - 1.0),
           "%");
  // The figure entry points never touch the service or the load generator.
  for (const char* name :
       {"service.backlog_mean", "service.max_queue_depth", "service.rejected",
        "service.shed", "service.windows", "service.alarms",
        "service.paths_grown"})
    r.metric(name, 0.0, "count");
  r.metric("service.submit_us.p50", 0.0, "us");
  r.metric("service.submit_us.p99", 0.0, "us");
  r.metric("simnet.make_batch_us", 0.0, "us");
  r.metric("simnet.gen_late_ms", 0.0, "ms");
  write_trace(opt.trace_out, spans,
              opt.workload + "-" + std::to_string(opt.seed));

  // Fidelity gate outside the traced phase, so it costs no attributed time.
  check_layer_fidelity(r, layer_seed, pass);
}

}  // namespace
}  // namespace perfbench

namespace perfbench {
namespace {

// ------------------------------------------------------- serve workload --

service::ServiceOptions serve_options(std::uint64_t seed,
                                      std::uint64_t batches_per_topology) {
  service::ServiceOptions o;
  o.shards = kServeShards;
  // Queues deep enough that an on-schedule stream is never pushed back:
  // a rejection here means the service fell seconds behind, a real failure.
  o.queue_capacity = 1 << 16;
  o.high_water = 1 << 16;
  o.shed.mode = service::ShedPolicy::Mode::kOff;
  o.seed = seed;
  // Growth spread over the whole stream: the last path lands near its end.
  o.growth.every = std::max<std::size_t>(
      1,
      static_cast<std::size_t>(batches_per_topology / (kServeMaxGrowth + 1)));
  o.growth.max_extra = kServeMaxGrowth;
  return o;
}

struct Session {
  double wall = 0.0;  // first due time → last batch processed
  std::vector<double> latency_ms;  // due → processed, per admitted batch
  std::vector<double> late_ms;     // generator lateness, per batch
  std::vector<double> submit_us;
  std::vector<double> make_us;
  double waiting_s = 0.0;  // producer time spent waiting and polling
  double backlog_sum = 0.0;
  std::uint64_t attack_batches = 0;  // admitted attack batches
  bool caught_up = false;
  service::ServiceStats stats;
  std::string digest;  // window means + alarm flags, per topology
  std::size_t decisions = 0;
};

// One open-loop session against a started service. A single thread offers
// batch i at t0 + i / kServeRate and, while waiting for the next due time,
// polls stats() for completions; the k-th completion is matched to the k-th
// admitted batch. That matching is exact while shards finish batches in
// admission order and otherwise pairs the same sets of times, as seen from
// outside. Per-batch calls are timed, not spanned: a span per call would
// cost more than the calls.
Session run_session(Tracer* tr, service::ProbeIngestService& svc,
                    const simnet::OpenLoopLoadGen& gen,
                    std::uint64_t total_batches) {
  Session out;
  const std::size_t topologies = gen.num_topologies();
  std::vector<double> due_of_admitted;
  due_of_admitted.reserve(total_batches);
  out.latency_ms.reserve(total_batches);
  out.late_ms.reserve(total_batches);
  out.submit_us.reserve(total_batches);
  out.make_us.reserve(total_batches);
  std::size_t done = 0;
  double last_poll = now_s();
  // stats() takes every queue's lock, so polling is throttled to keep the
  // observer from contending with the shards. A batch first seen done at
  // this poll finished after the previous poll (and after its due time),
  // so its completion is taken as the middle of that interval: unbiased
  // however long the interval was, which keeps the figures independent of
  // how promptly the machine wakes the producer.
  auto poll = [&](double t) {
    if (t - last_poll < 25e-6) return;
    const std::uint64_t processed = svc.stats().processed;
    for (; done < processed && done < due_of_admitted.size(); ++done) {
      const double due = due_of_admitted[done];
      const double done_at = 0.5 * (std::max(last_poll, due) + t);
      out.latency_ms.push_back(1e3 * (done_at - due));
    }
    last_poll = t;
  };
  // Sleeps in short slices, not spins, between offers, so the producer
  // leaves the cores to the shards; the fine timer slack makes such short
  // sleeps land on time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  auto wait_until = [&](double due) {
    for (double t = now_s(); t < due; t = now_s()) {
      poll(t);
      const double left = due - now_s();
      if (left > 20e-6)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(left - 10e-6, 25e-6)));
    }
  };

  const double t0 = now_s() + 0.01;
  for (std::uint64_t i = 0; i < total_batches; ++i) {
    const double due = t0 + static_cast<double>(i) / kServeRate;
    const double wait_start = now_s();
    wait_until(due);
    const double start = now_s();
    out.waiting_s += start - wait_start;
    out.late_ms.push_back(1e3 * (start - due));
    const auto topology = static_cast<std::uint32_t>(i % topologies);
    const std::uint64_t seq = i / topologies;
    service::ProbeBatch batch = gen.make_batch(topology, seq);
    const double made = now_s();
    const service::AdmitResult res = svc.submit(std::move(batch));
    const double submitted = now_s();
    out.make_us.push_back(1e6 * (made - start));
    out.submit_us.push_back(1e6 * (submitted - made));
    if (res.outcome == service::Admission::kAdmitted) {
      due_of_admitted.push_back(due);
      if (gen.is_attack_batch(seq)) ++out.attack_batches;
    }
    out.backlog_sum += static_cast<double>(due_of_admitted.size() - done);
  }
  const double tail_start = now_s();
  const double deadline = tail_start + 30.0;
  while (done < due_of_admitted.size() && now_s() < deadline) {
    poll(now_s());
    std::this_thread::sleep_for(std::chrono::microseconds(25));
  }
  out.waiting_s += now_s() - tail_start;
  out.wall = now_s() - t0;
  out.caught_up = done == due_of_admitted.size();
  {
    Tracer::Call c(tr, "service.drain", false);
    svc.drain();
  }
  out.stats = svc.stats();
  Digest d;
  for (std::uint32_t t = 0; t < topologies; ++t) {
    for (const auto& w : svc.decisions(t)) {
      d.add(w.topology);
      d.add(w.window_index);
      d.add(w.mean_residual_ms);
      d.add(w.alarm);
      ++out.decisions;
    }
  }
  out.digest = d.hex();
  return out;
}

// p99 of each of kLatencyWindows consecutive slices of the stream (in
// offer order), then the median of those. At 25 s a slice is one second of
// stream: 200 samples past its p99 and about two path-growth moments (every
// topology grows at the same offer index), so a slice's p99 is the queueing
// behind those pseudo-inverse recomputes, and the median is that of a
// typical growth moment. A machine pause that inflates some slices' tails
// does not decide the run's figure.
constexpr std::size_t kLatencyWindows = 25;

double windowed_p99(const std::vector<double>& latency) {
  std::vector<double> p99s;
  const std::size_t n = latency.size();
  for (std::size_t w = 0; w < kLatencyWindows; ++w) {
    const auto lo =
        latency.begin() + static_cast<long>(w * n / kLatencyWindows);
    const auto hi =
        latency.begin() + static_cast<long>((w + 1) * n / kLatencyWindows);
    if (lo != hi) p99s.push_back(percentile(std::vector<double>(lo, hi), 0.99));
  }
  return median(p99s);
}

double sum_us(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t / 1e6;
}

// Catalog + started service: the serve workload's set-up.
struct ServeSetup {
  std::vector<Scenario> catalog;
  std::unique_ptr<service::ProbeIngestService> svc;
  double wall = 0.0;
};

ServeSetup serve_setup(Tracer* tr, std::uint64_t seed,
                       const service::ServiceOptions& so) {
  ServeSetup s;
  const double t0 = now_s();
  {
    Tracer::Call c(tr, "service.make_session_catalog");
    s.catalog = service::make_session_catalog(TopologyKind::kWireline,
                                              kServeTopologies, seed);
  }
  std::vector<const Scenario*> refs;
  for (const Scenario& sc : s.catalog) refs.push_back(&sc);
  s.svc = std::make_unique<service::ProbeIngestService>(refs, so);
  {
    Tracer::Call c(tr, "service.start");
    if (!s.svc->start().ok()) s.svc.reset();
  }
  s.wall = now_s() - t0;
  return s;
}

simnet::OpenLoopLoadGen make_gen(const ServeSetup& s, std::uint64_t seed,
                                 std::uint64_t batches_per_topology,
                                 const service::ServiceOptions& so) {
  std::vector<simnet::OpenLoopLoadGen::TopologyRef> refs;
  for (const Scenario& sc : s.catalog)
    refs.push_back({&sc.estimator(), &sc.x_true()});
  simnet::LoadGenOptions lo;
  lo.seed = seed;
  lo.batches_per_topology = batches_per_topology;
  lo.attack_every = kServeAttackEvery;
  lo.growth = so.growth;
  return simnet::OpenLoopLoadGen(std::move(refs), lo);
}

void check_session(Report& r, const Session& s) {
  const auto& st = s.stats;
  r.check("serve.accounting",
          st.offered == st.admitted + st.rejected + st.shed + st.closed,
          "offered != admitted + rejected + shed + closed");
  r.check("serve.processed", st.processed == st.admitted,
          std::to_string(st.processed) + " processed of " +
              std::to_string(st.admitted) + " admitted");
  r.check("serve.lost_in_flight", st.lost_in_flight() == 0,
          std::to_string(st.lost_in_flight()) + " lost in flight");
  r.check("serve.clean_batches",
          st.duplicates + st.malformed + st.quarantined + st.restarts == 0,
          "duplicates, malformed, quarantined batches or shard restarts");
  r.check("serve.caught_up", s.caught_up,
          "backlog not processed within 30 s of the last offer");
  r.check("serve.decisions", s.decisions == st.windows,
          "window decisions differ from the windows counter");
  r.check("serve.alarms", s.attack_batches == 0 || st.alarms > 0,
          "attack batches offered but no window alarmed");
}

void run_serve(const Options& opt, Report& r) {
  const std::uint64_t total = static_cast<std::uint64_t>(
      std::llround(kServeRate * opt.seconds));
  const std::uint64_t per_topology =
      (total + kServeTopologies - 1) / kServeTopologies;
  const std::uint64_t batches = per_topology * kServeTopologies;
  const std::uint64_t scenario_seed = input_seed(opt.seed);
  const service::ServiceOptions so = serve_options(opt.seed, per_topology);
  const std::string key = "serve/seed=" + std::to_string(opt.seed) +
                          "/batches=" + std::to_string(batches);

  auto record = [&](const Session& s) {
    check_session(r, s);
    r.attempted += s.stats.offered;
    r.failed += s.stats.rejected + s.stats.shed + s.stats.closed +
                s.stats.lost_in_flight();
    auto [it, fresh] = r.fingerprints.emplace(key, s.digest);
    if (!fresh)
      r.check("fingerprint.serve", it->second == s.digest,
              key + ": " + it->second + " vs " + s.digest);
  };
  auto started = [&](const ServeSetup& s) {
    return r.check("serve.started",
                   s.svc != nullptr && s.catalog.size() == kServeTopologies,
                   "catalog incomplete or service failed to start");
  };

  if (!opt.trace) {
    std::vector<double> setup;
    ServeSetup s;
    for (int i = 0; i < kServeSetupRepeats; ++i) {
      s.svc.reset();  // drains; the service goes before its catalog
      s = serve_setup(nullptr, scenario_seed, so);
      setup.push_back(s.wall);
      if (!started(s)) return;
    }
    const simnet::OpenLoopLoadGen gen = make_gen(s, opt.seed, per_topology, so);
    const Session run = run_session(nullptr, *s.svc, gen, batches);
    record(run);
    r.metric("setup_s", median(setup), "s");
    r.metric("trials_per_s",
             static_cast<double>(run.stats.processed) / run.wall, "1/s");
    r.metric("attacks_per_s",
             static_cast<double>(run.attack_batches) / run.wall, "1/s");
    r.metric("latency_p50_ms", median(run.latency_ms), "ms");
    r.metric("latency_p99_ms", windowed_p99(run.latency_ms), "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.notes["latency_samples"] = static_cast<double>(run.latency_ms.size());
    r.notes["simnet.gen_late_ms.p99"] = percentile(run.late_ms, 0.99);
    r.notes["offered_rate"] = kServeRate;
    return;
  }

  // Untraced control session, then the traced phase: layer pass on the
  // catalog's first topology draw, set-up and the same session.
  Session control;
  {
    ServeSetup s = serve_setup(nullptr, scenario_seed, so);
    if (!started(s)) return;
    const simnet::OpenLoopLoadGen gen = make_gen(s, opt.seed, per_topology, so);
    control = run_session(nullptr, *s.svc, gen, batches);
    record(control);
  }
  const std::uint64_t layer_seed = derive_seed(scenario_seed, 0);
  Tracer tr;
  tr.start();
  LayerPass pass;
  {
    obs::ScopedSpan phase("bench.layer_pass");
    pass = layer_pass(&tr, layer_seed);
  }
  ServeSetup s = serve_setup(&tr, scenario_seed, so);
  if (!started(s)) return;
  const simnet::OpenLoopLoadGen gen = make_gen(s, opt.seed, per_topology, so);
  const Session run = run_session(&tr, *s.svc, gen, batches);
  tr.stop();
  record(run);

  const obs::MetricsSnapshot m = tr.snapshot();
  const std::vector<Span> spans = tr.finish();
  layer_table(r, tr, spans, m,
              TimedCalls{sum_us(run.submit_us), sum_us(run.make_us),
                         run.waiting_s});
  r.metric("attack.success_ratio", 0.0, "ratio");
  r.metric("tomography.paths_selected", static_cast<double>(pass.paths),
           "count");
  r.metric("tomography.monitors_placed", static_cast<double>(pass.monitors),
           "count");
  r.metric("core.setup_share", s.wall / (s.wall + run.wall), "ratio");
  r.metric("trace.overhead_pct",
           100.0 * (median(run.latency_ms) / median(control.latency_ms) - 1.0),
           "%");
  r.metric("service.submit_us.p50", median(run.submit_us), "us");
  r.metric("service.submit_us.p99", percentile(run.submit_us, 0.99), "us");
  r.metric("service.backlog_mean",
           run.backlog_sum / static_cast<double>(batches), "count");
  r.metric("service.max_queue_depth",
           static_cast<double>(run.stats.max_queue_depth), "count");
  r.metric("service.rejected", static_cast<double>(run.stats.rejected),
           "count");
  r.metric("service.shed", static_cast<double>(run.stats.shed), "count");
  r.metric("service.windows", static_cast<double>(run.stats.windows), "count");
  r.metric("service.alarms", static_cast<double>(run.stats.alarms), "count");
  r.metric("service.paths_grown",
           static_cast<double>(m.counter_value("service.paths.grown")),
           "count");
  r.metric("simnet.make_batch_us", median(run.make_us), "us");
  r.metric("simnet.gen_late_ms", percentile(run.late_ms, 0.99), "ms");
  r.notes["latency_samples"] = static_cast<double>(run.latency_ms.size());
  write_trace(opt.trace_out, spans,
              opt.workload + "-" + std::to_string(opt.seed));
  check_layer_fidelity(r, layer_seed, pass);
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return (o.workload == "fig7_wireline" || o.workload == "fig9_wireline" ||
          o.workload == "serve_growth") &&
         o.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (argc % 2 == 0 || !parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench_workloads --workload fig7_wireline|"
                 "fig9_wireline|serve_growth --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  Report r;
  r.notes["nproc"] = static_cast<double>(nproc);
  const std::size_t workers = std::min(
      opt.workload == "serve_growth" ? kServeWorkers : kFigWorkers, nproc);
  r.notes["workers"] = static_cast<double>(workers);
  const Calibration cal = calibrate(nproc);
  r.notes["effective_cores"] = cal.effective_cores;
  r.notes["burn_gops"] = cal.single_gops;

  scapegoat::ThreadPool::set_global_threads(workers);
  const double t0 = now_s();
  if (opt.workload == "serve_growth")
    run_serve(opt, r);
  else
    run_figure(opt, r);
  r.notes["run_s"] = now_s() - t0;
  // Quiesce the pool before reporting, so no helper task outlives the run.
  scapegoat::ThreadPool::set_global_threads(workers);
  std::cout << "{\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\",\"report\":";
  print_report(r, std::cout);
  std::cout << "}\n";
  return 0;
}

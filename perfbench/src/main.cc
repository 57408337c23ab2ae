// chtbench: runs one benchmark workload and prints its metrics.
//
//   chtbench --workload NAME --seed N --seconds T [--trace 0|1]
//            [--trace-dir DIR] [--setup-only]
//
// Untraced (--trace 0): every seed goes through chaos::run_one with the Probe
// adapter; prints the end-to-end metrics. Traced (--trace 1): every seed runs
// twice, through run_one and through the benchmark's own span-recording
// driver, whose history and fingerprint must match; prints the per-layer
// metrics and writes the first reference seeds' spans as Chrome trace JSON.
//
// Either way a run first makes one pass over the reference seeds of --seed
// (see workloads.h), checking every seed against the invariant registry;
// simulated-time metrics, counts and the fingerprint digest come from this
// pass. It then repeats them, in order, while less than --seconds of
// measurement has passed, and each repeat must reproduce its seed's
// fingerprint. Wall-clock metrics take each seed's median run, with
// every run's time scaled to a nominal host speed (see calibrate.h). The last
// stdout line is "RESULT <json>"; run.py turns it into the benchmark's result
// line.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "chaos/sweep.h"
#include "driver.h"
#include "probe.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace chtbench {
namespace {

using Clock = std::chrono::steady_clock;

// A reference set that cannot finish in this long is an error: the run must
// exit within 180 s.
constexpr double kReferenceDeadlineS = 150;
constexpr int kWarmupSeeds = 3;
// Calibration kernel runs after a set-up-only launch.
constexpr int kSetupCalibrations = 9;
// Runs on each side of a run whose calibration times set its host speed.
constexpr std::size_t kCalibrationHalfWindow = 4;
// Leading reference seeds whose spans go to the trace file.
constexpr std::uint64_t kTraceFileSeeds = 50;
// Reference seeds the memory pass runs (p90 needs 100).
constexpr std::uint64_t kMemorySeeds = 100;

// Message types the traced run reports one by one; any other type is summed
// into net.sent_per_op.other.
const std::vector<std::string> kMessageTypes = {
    "omega.hb",         "els.support",        "core.prepare",
    "core.prepareack",  "core.commit",        "core.leasegrant",
    "core.leaserequest", "core.rmw",          "core.batchrequest",
    "core.batchreply",  "core.estreq",        "core.estreply",
    "raft.appendentries", "raft.appendreply", "raft.requestvote",
    "raft.votereply",   "raft.clientread",    "raft.readreply",
    "client.request",   "client.reply",       "client.redirect",
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string trace_dir = ".";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--trace-dir") a.trace_dir = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif

// Peak resident set of this process image since the last reset_peak_rss(),
// from /proc/self/status VmHWM. (getrusage's ru_maxrss survives exec, so it
// can report the parent's peak.)
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

// Returns freed heap to the kernel and restarts VmHWM from the current
// resident set, so the next peak_rss_mb() is the peak of what runs between.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
  bool supported = true;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_.push_back({name, value, unit, samples, true});
  }
  void add(const std::string& name, const Percentile& p,
           const std::string& unit) {
    metrics_.push_back({name, p.value, unit, p.samples, p.supported});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void print_table(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      os << "  " << std::left << std::setw(34) << m.name << std::right
         << std::setw(16) << json_number(m.value) << " " << std::left
         << std::setw(8) << m.unit << " n=" << m.samples
         << (m.supported ? "" : "  (too few samples: reported as 0)") << "\n";
    }
  }

  std::string metrics_json() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i ? "," : "") << json_string(m.name)
         << ":{\"value\":" << json_number(m.value)
         << ",\"unit\":" << json_string(m.unit)
         << ",\"samples\":" << m.samples
         << ",\"supported\":" << (m.supported ? "true" : "false") << "}";
    }
    os << "}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
};

// One seed through run_one with the Probe; fills `sample` and returns the
// fingerprint. `join_ok` turns false if the latency join rule fails.
cht::chaos::RunResult run_probed(const cht::chaos::RunSpec& spec,
                                 SeedSample& sample, bool& join_ok) {
  Capture capture;
  const bool client_path = spec.client_path;
  cht::chaos::RunResult result = cht::chaos::run_one(
      spec, [&capture, client_path](
                std::unique_ptr<cht::chaos::ClusterAdapter> inner)
                -> std::unique_ptr<cht::chaos::ClusterAdapter> {
        return std::make_unique<Probe>(std::move(inner), client_path, capture);
      });
  sample.violated = !result.ok();
  sample.undecided = !result.checker_decided;
  sample.submitted = result.submitted;
  sample.run_end_us = capture.run_end_us;
  sample.sent = capture.sent;
  sample.fsyncs = capture.fsyncs;
  auto joined = join_submissions(capture.submissions, capture.recorded);
  if (joined) {
    sample.ops = std::move(*joined);
  } else {
    join_ok = false;
  }
  return result;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

// Totals of one span name over the traced runs.
struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

// Per-layer accumulators. Counts cover the reference pass; timings cover
// every traced run.
struct LayerTotals {
  // The reference pass.
  std::size_t seeds = 0;
  std::size_t ops_completed = 0;
  std::size_t rmws_completed = 0;
  std::int64_t sim_us = 0;
  std::int64_t driver_events = 0;
  std::int64_t stall_us = 0;
  std::int64_t sent = 0;
  std::int64_t dropped = 0;
  std::map<std::string, std::int64_t> sent_by_type;
  std::int64_t sync_stall_us = 0;
  std::int64_t flush_width_sum = 0;
  std::int64_t flush_width_count = 0;
  std::int64_t leadership_changes = 0;
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  std::size_t undecided = 0;
  cht::metrics::Registry registry;
  // Every traced run, repeats included.
  std::size_t traced_runs = 0;
  std::int64_t traced_events = 0;
  std::int64_t traced_sim_us = 0;
  double untraced_wall_s = 0;
  std::map<std::string, SpanTotals> spans;
};

void add_spans(LayerTotals& t, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& s = t.spans[spans[i].name];
    ++s.count;
    s.total_ns += spans[i].end_ns - spans[i].start_ns;
    s.self_ns += self[i];
  }
}

void add_reference(LayerTotals& t, const TracedSeed& s) {
  ++t.seeds;
  t.ops_completed += s.completed;
  t.rmws_completed += s.rmws_completed;
  t.sim_us += s.sim_end_us;
  t.driver_events += s.driver_events;
  t.stall_us += s.stall_us;
  t.sent += s.sent;
  t.dropped += s.dropped;
  for (const auto& [type, sent] : s.sent_by_type) t.sent_by_type[type] += sent;
  t.sync_stall_us += s.sync_stall_us;
  t.flush_width_sum += s.flush_width_sum;
  t.flush_width_count += s.flush_width_count;
  t.leadership_changes += s.leadership_changes;
  t.crashes += s.crashes;
  t.restarts += s.restarts;
  if (s.undecided) ++t.undecided;
}

Percentile registry_percentile(const cht::metrics::Registry& r,
                               const std::string& name, double q) {
  const cht::metrics::Histogram* h = r.find_histogram(name);
  if (h == nullptr) return Percentile{};
  return percentile_of_histogram(static_cast<double>(h->percentile(q)),
                                 h->count(), q);
}

void layer_report(const LayerTotals& t, Report& r) {
  const auto span = [&t](const char* name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? SpanTotals{} : it->second;
  };
  const double ops = static_cast<double>(t.ops_completed);
  const double rmws = static_cast<double>(t.rmws_completed);
  const double ref_seeds = static_cast<double>(t.seeds);
  const std::size_t n_ops = t.ops_completed;
  const std::size_t n_ref = t.seeds;
  const std::size_t n_runs = t.traced_runs;
  const SpanTotals seed = span("seed");
  const SpanTotals step = span("sim.step");
  const SpanTotals checker = span("checker");
  const double seed_ns = static_cast<double>(seed.total_ns);

  // sim
  r.add("sim.events_per_op", ratio(static_cast<double>(t.driver_events), ops),
        "events/op", n_ops);
  r.add("sim.step_ns_per_event",
        ratio(static_cast<double>(step.total_ns),
              static_cast<double>(t.traced_events)),
        "ns", static_cast<std::size_t>(t.traced_events));
  r.add("sim.step_share", ratio(static_cast<double>(step.total_ns), seed_ns),
        "ratio", n_runs);
  r.add("sim.sim_s_per_wall_s",
        ratio(static_cast<double>(t.traced_sim_us) / 1e6, seed_ns / 1e9),
        "s/s", n_runs);
  // sim/network
  r.add("net.sent_per_op", ratio(static_cast<double>(t.sent), ops), "msgs/op",
        n_ops);
  std::int64_t other = t.sent;
  for (const std::string& type : kMessageTypes) {
    const auto it = t.sent_by_type.find(type);
    const std::int64_t sent = it == t.sent_by_type.end() ? 0 : it->second;
    other -= sent;
    r.add("net.sent_per_op." + type, ratio(static_cast<double>(sent), ops),
          "msgs/op", n_ops);
  }
  r.add("net.sent_per_op.other", ratio(static_cast<double>(other), ops),
        "msgs/op", n_ops);
  r.add("net.dropped_per_op", ratio(static_cast<double>(t.dropped), ops),
        "msgs/op", n_ops);
  // sim/storage
  r.add("storage.sync_stall_ms_per_rmw",
        ratio(static_cast<double>(t.sync_stall_us) / 1e3, rmws), "ms",
        t.rmws_completed);
  r.add("storage.flush_width.mean",
        ratio(static_cast<double>(t.flush_width_sum),
              static_cast<double>(t.flush_width_count)),
        "writes", static_cast<std::size_t>(t.flush_width_count));
  // leader
  std::int64_t fd = 0;
  for (const auto& [type, sent] : t.sent_by_type) {
    if (type.rfind("omega.", 0) == 0 || type.rfind("els.", 0) == 0) fd += sent;
  }
  r.add("leader.fd_sends_per_sim_s",
        ratio(static_cast<double>(fd), static_cast<double>(t.sim_us) / 1e6),
        "msgs/s", n_ref);
  r.add("leader.fd_share",
        ratio(static_cast<double>(fd), static_cast<double>(t.sent)), "ratio",
        static_cast<std::size_t>(t.sent));
  r.add("leader.changes_per_seed",
        ratio(static_cast<double>(t.leadership_changes), ref_seeds), "count",
        n_ref);
  r.add("span.leader.init_us.p50",
        registry_percentile(t.registry, "span.leader.init_us", 0.50), "us");
  // core
  const auto value = [&t](const char* name) {
    return static_cast<double>(t.registry.value(name));
  };
  r.add("core.ops_per_batch",
        ratio(value("rmws_submitted"), value("batches_committed_as_leader")),
        "ops", static_cast<std::size_t>(value("batches_committed_as_leader")));
  r.add("core.reads_blocked_ratio",
        ratio(value("reads_blocked"), value("reads_submitted")), "ratio",
        static_cast<std::size_t>(value("reads_submitted")));
  r.add("span.doops.prepare_us.p50",
        registry_percentile(t.registry, "span.doops.prepare_us", 0.50), "us");
  r.add("span.doops.gate_us.p99",
        registry_percentile(t.registry, "span.doops.gate_us", 0.99), "us");
  r.add("span.read.block_us.p99",
        registry_percentile(t.registry, "span.read.block_us", 0.99), "us");
  r.add("span.recovery_us.p50",
        registry_percentile(t.registry, "span.recovery_us", 0.50), "us");
  // client
  const double client_ops = value("client.reads") + value("client.rmws");
  const auto client_n = static_cast<std::size_t>(client_ops);
  r.add("client.retries_per_op", ratio(value("client.retries"), client_ops),
        "count", client_n);
  r.add("client.redirects_per_op",
        ratio(value("client.redirects"), client_ops), "count", client_n);
  const cht::metrics::Histogram* attempts =
      t.registry.find_histogram("client.attempts_per_op");
  r.add("client.attempts_per_op.mean",
        attempts ? ratio(static_cast<double>(attempts->sum()),
                         static_cast<double>(attempts->count()))
                 : 0,
        "count", attempts ? static_cast<std::size_t>(attempts->count()) : 0);
  // checker
  r.add("checker.ms_per_seed",
        ratio(static_cast<double>(checker.total_ns) / 1e6,
              static_cast<double>(n_runs)),
        "ms", n_runs);
  r.add("checker.share",
        ratio(static_cast<double>(checker.total_ns), seed_ns), "ratio",
        n_runs);
  r.add("checker.undecided_ratio",
        ratio(static_cast<double>(t.undecided), ref_seeds), "ratio", n_ref);
  // chaos
  r.add("chaos.driver_share", ratio(static_cast<double>(seed.self_ns), seed_ns),
        "ratio", n_runs);
  r.add("chaos.driver_stall_ms_per_seed",
        ratio(static_cast<double>(t.stall_us) / 1e3, ref_seeds), "ms", n_ref);
  r.add("chaos.crashes_per_seed",
        ratio(static_cast<double>(t.crashes), ref_seeds), "count", n_ref);
  r.add("chaos.restarts_per_seed",
        ratio(static_cast<double>(t.restarts), ref_seeds), "count", n_ref);
  // harness
  const SpanTotals make = span("harness.make_adapter");
  const SpanTotals submit = span("harness.submit");
  const SpanTotals quiesce = span("harness.await_quiesce");
  r.add("harness.make_adapter_ms",
        ratio(static_cast<double>(make.total_ns) / 1e6,
              static_cast<double>(make.count)),
        "ms", static_cast<std::size_t>(make.count));
  r.add("harness.submit_us_per_op",
        ratio(static_cast<double>(submit.total_ns) / 1e3,
              static_cast<double>(submit.count)),
        "us", static_cast<std::size_t>(submit.count));
  r.add("harness.await_quiesce_ms_per_seed",
        ratio(static_cast<double>(quiesce.total_ns) / 1e6,
              static_cast<double>(n_runs)),
        "ms", n_runs);
  // raft
  r.add("span.election_us.p50",
        registry_percentile(t.registry, "span.election_us", 0.50), "us");
  r.add("span.readindex.round_us.p50",
        registry_percentile(t.registry, "span.readindex.round_us", 0.50),
        "us");
  // bench
  r.add("trace.overhead_ratio", ratio(seed_ns / 1e9, t.untraced_wall_s),
        "ratio", n_runs);
}

void end_to_end_report(const WallSummary& wall, const WallSummary& raw,
                       const SimSummary& sim,
                       const Percentile& seed_rss_mb_p90,
                       const FailureSummary& failures, double peak_rss,
                       Report& r) {
  r.add("seeds_per_s", wall.seeds_per_s, "seeds/s");
  r.add("seed_wall_ms.p50", wall.seed_wall_ms_p50, "ms");
  r.add("seed_wall_ms.p90", wall.seed_wall_ms_p90, "ms");
  r.add("seed_rss_mb.p90", seed_rss_mb_p90, "MB");
  r.add("read_ms.p50", sim.read_ms_p50, "ms");
  r.add("read_ms.p99", sim.read_ms_p99, "ms");
  r.add("rmw_ms.p50", sim.rmw_ms_p50, "ms");
  r.add("rmw_ms.p99", sim.rmw_ms_p99, "ms");
  r.add("outage_ms.p90", sim.outage_ms_p90, "ms");
  r.add("msgs_per_op", sim.msgs_per_op, "msgs/op", sim.ops_completed);
  r.add("fsyncs_per_rmw", sim.fsyncs_per_rmw, "fsyncs/rmw",
        sim.rmws_completed);
  // Reported, not declared in BENCHMARK.json: the raw wall-clock figures
  // swing with the host, the ratios are 0 when the run is correct, and the
  // process peak is the worst seed's.
  r.add("seeds_per_s.raw", raw.seeds_per_s, "seeds/s");
  r.add("seed_wall_ms.p50.raw", raw.seed_wall_ms_p50, "ms");
  r.add("seed_wall_ms.p90.raw", raw.seed_wall_ms_p90, "ms");
  r.add("ops_failed_ratio", failures.ops_failed_ratio(), "ratio",
        failures.ops_submitted);
  r.add("seeds_failed_ratio", failures.seeds_failed_ratio(), "ratio",
        failures.seeds);
  r.add("peak_rss_mb", peak_rss, "MB", 1);
}

int run(const Args& args) {
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "chtbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (!kNdebug) {
    std::cerr << "chtbench: refusing to report wall-clock metrics from a "
                 "build without NDEBUG (asserts enabled)\n";
    return 3;
  }
  const auto spec_at = [&](std::uint64_t index) {
    cht::chaos::RunSpec spec = workload->spec;
    spec.seed = chaos_seed(args.seed, index);
    return spec;
  };
  const auto reference = static_cast<std::uint64_t>(workload->reference_seeds);

  // Set-up: warm the allocator and code paths. The warm-up seeds are the
  // same for every --seed (bench seed 0's stream), so setup_s compares like
  // with like across runs.
  for (int i = 0; i < kWarmupSeeds; ++i) {
    cht::chaos::RunSpec spec = workload->spec;
    spec.seed = chaos_seed(0, static_cast<std::uint64_t>(i));
    SeedSample ignored;
    bool join_ok = true;
    run_probed(spec, ignored, join_ok);
  }
  std::cout << "ready" << std::endl;
  if (args.setup_only) {
    // After "ready", so it is not part of set-up: the host speed run.py
    // normalizes this launch's set-up time by.
    std::vector<double> kernel_ms;
    for (int i = 0; i < kSetupCalibrations; ++i) {
      kernel_ms.push_back(time_calibration_kernel());
    }
    std::cout << "calibration " << json_number(median(kernel_ms)) << " "
              << json_number(kNominalCalibrationMs) << std::endl;
    return 0;
  }

  std::vector<std::string> problems;
  FailureSummary failures;
  std::vector<SeedSample> ref_samples;
  std::vector<std::string> fingerprints;  // per reference seed
  // Per run, in order: the seed index, its wall time and the calibration
  // kernel's wall time just before it.
  std::vector<std::uint64_t> run_index;
  std::vector<double> run_ms, run_kernel_ms;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t traced_digest = kFnvBasis;
  LayerTotals layers;
  Tracer tracer;
  std::vector<Span> kept_spans;  // for the trace file

  const Clock::time_point measure_start = Clock::now();
  std::uint64_t runs = 0;
  for (;; ++runs) {
    const double elapsed = seconds_since(measure_start);
    const bool in_reference = runs < reference;
    if (!in_reference && elapsed >= args.seconds) break;
    if (in_reference && elapsed >= kReferenceDeadlineS) {
      std::cerr << "chtbench: reference seeds did not finish in "
                << kReferenceDeadlineS << " s\n";
      return 1;
    }
    const std::uint64_t index = runs % reference;
    const cht::chaos::RunSpec spec = spec_at(index);
    const std::string seed_name = "seed " + std::to_string(spec.seed);

    // In the traced run each seed runs twice; which copy goes first
    // alternates, so neither profits more from the other's warm caches.
    std::optional<TracedSeed> traced;
    // Counts come from the reference pass; repeats merge into a throwaway.
    cht::metrics::Registry discarded;
    const auto run_traced_copy = [&] {
      tracer.set_seed(spec.seed);
      traced = run_traced(spec, tracer,
                          in_reference ? layers.registry : discarded);
    };
    if (args.trace && runs % 2 == 1) run_traced_copy();

    SeedSample sample;
    bool join_ok = true;
    run_kernel_ms.push_back(time_calibration_kernel());
    const Clock::time_point t0 = Clock::now();
    cht::chaos::RunResult result = run_probed(spec, sample, join_ok);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    run_index.push_back(index);
    run_ms.push_back(ms);
    if (in_reference) {
      add_failures(failures, sample);
      if (!join_ok) {
        problems.push_back(seed_name + ": submissions do not join the history");
      }
      if (seed_failed(sample)) {
        std::string why = sample.undecided ? "checker undecided" : "";
        for (const auto& v : result.violations) {
          why += (why.empty() ? "" : "; ") + v;
        }
        problems.push_back(seed_name + ": " + why);
      }
      digest = fnv1a(digest, result.fingerprint);
      fingerprints.push_back(result.fingerprint);
    } else if (result.fingerprint != fingerprints[index]) {
      problems.push_back(seed_name + ": a repeat run changed the fingerprint");
    }

    if (args.trace) {
      if (!traced) run_traced_copy();
      layers.untraced_wall_s += ms / 1e3;
      if (traced->history != result.history ||
          traced->fingerprint != result.fingerprint) {
        problems.push_back(seed_name + ": traced driver diverged from run_one");
      }
      add_spans(layers, tracer.spans());
      ++layers.traced_runs;
      layers.traced_events += traced->driver_events;
      layers.traced_sim_us += traced->sim_end_us;
      if (in_reference) {
        traced_digest = fnv1a(traced_digest, traced->fingerprint);
        if (index < kTraceFileSeeds) {
          const int offset = static_cast<int>(kept_spans.size());
          for (Span s : tracer.spans()) {
            if (s.parent >= 0) s.parent += offset;
            kept_spans.push_back(s);
          }
        }
        add_reference(layers, *traced);
      }
      tracer.clear();
    } else if (in_reference) {
      ref_samples.push_back(std::move(sample));
    }
  }
  const double measured_s = seconds_since(measure_start);
  const double process_peak_rss_mb = peak_rss_mb();

  Report report;
  if (args.trace) {
    layer_report(layers, report);
    if (traced_digest != digest) {
      problems.push_back("traced and untraced fingerprint digests differ");
    }
  } else {
    // Wall-clock metrics: each seed's median run at nominal host speed; the
    // raw times are reported beside them.
    const std::vector<double> seed_ms = per_seed_median(
        run_index,
        normalize_by_calibration(run_ms, run_kernel_ms, kNominalCalibrationMs,
                                 kCalibrationHalfWindow),
        reference);
    const std::vector<double> seed_raw_ms =
        per_seed_median(run_index, run_ms, reference);
    const WallSummary wall = summarize_wall(seed_ms);
    const WallSummary raw = summarize_wall(seed_raw_ms);
    const SimSummary sim = summarize_sim(ref_samples);
    std::vector<SeedSample>().swap(ref_samples);
    // Memory, in an untimed pass after the timed window (returning freed
    // heap to the kernel before every seed would perturb the wall-clock
    // metrics), once the samples above are freed.
    std::vector<double> seed_rss_mb;
    for (std::uint64_t i = 0; i < std::min(reference, kMemorySeeds); ++i) {
      reset_peak_rss();
      SeedSample ignored;
      bool join_ok = true;
      run_probed(spec_at(i), ignored, join_ok);
      seed_rss_mb.push_back(peak_rss_mb());
    }
    end_to_end_report(wall, raw, sim, percentile(seed_rss_mb, 0.90),
                      failures, process_peak_rss_mb, report);
    report.add("calibration_ms.p50", percentile(run_kernel_ms, 0.50), "ms");
    for (const Metric& m : report.metrics()) {
      if (!m.supported) {
        problems.push_back(m.name + ": " + std::to_string(m.samples) +
                           " samples, too few for the percentile rule");
      }
    }
  }
  const bool correct = problems.empty();

  std::string trace_file;
  if (args.trace) {
    trace_file = args.trace_dir + "/" + workload->name + "-seed" +
                 std::to_string(args.seed) + ".trace.json";
    if (!write_chrome_trace(trace_file, kept_spans, workload->name)) {
      std::cerr << "chtbench: cannot write " << trace_file << "\n";
      trace_file.clear();
    }
  }

  const std::uint64_t first = chaos_seed(args.seed, 0);
  std::cout << "workload " << workload->name << " (" << workload->spec.protocol
            << ", n=" << workload->spec.n << ", " << workload->spec.ops
            << " ops/seed), bench seed " << args.seed << ", "
            << (args.trace ? "traced" : "untraced") << "\n"
            << "reference seeds " << first << ".." << first + reference - 1
            << "; " << runs << " runs in " << json_number(measured_s)
            << " s\n"
            << "fingerprint digest " << hex64(digest) << "\n";
  for (const std::string& p : problems) std::cout << "FAIL " << p << "\n";
  report.print_table(std::cout);
  if (args.trace) {
    std::cout << "sends by type over the reference seeds:";
    for (const auto& [type, sent] : layers.sent_by_type) {
      std::cout << " " << type << "=" << sent;
    }
    std::cout << "\n";
  }
  if (!trace_file.empty()) {
    std::cout << "trace written to " << trace_file << "\n";
  }

  std::cout << "RESULT {\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << failures.ops_submitted
            << ",\"failed\":" << failures.ops_failed
            << ",\"seeds\":" << failures.seeds
            << ",\"seeds_failed\":" << failures.seeds_failed
            << ",\"digest\":" << json_string(hex64(digest))
            << ",\"reference_seeds\":[" << first << ","
            << first + reference - 1 << "]"
            << ",\"measured_s\":" << json_number(measured_s)
            << ",\"calibration_ms\":" << json_number(median(run_kernel_ms))
            << ",\"nominal_calibration_ms\":"
            << json_number(kNominalCalibrationMs)
            << ",\"trace_file\":" << json_string(trace_file)
            << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"cpu_model\":" << json_string(cpu_model())
            << ",\"compiler\":" << json_string(compiler())
            << ",\"build_type\":" << json_string(CHTBENCH_BUILD_TYPE)
            << ",\"ndebug\":" << (kNdebug ? "true" : "false") << "}"
            << ",\"metrics\":" << report.metrics_json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace chtbench

int main(int argc, char** argv) {
  chtbench::Args args;
  if (!chtbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: chtbench --workload NAME --seed N --seconds T "
                 "[--trace 0|1] [--trace-dir DIR] [--setup-only]\n";
    return 2;
  }
  return chtbench::run(args);
}

// chtread_fuzz — parallel deterministic chaos fuzzer.
//
// Fans seed ranges across hardware threads; each seed is one independent
// deterministic simulation of a protocol stack under a nemesis profile, held
// to the full invariant registry (linearizability, liveness after heal,
// election safety / committed-prefix agreement, durability of acked writes
// across power cycles). Failing seeds dump self-contained repro artifacts
// that --repro replays bit-identically.
//
// Usage:
//   chtread_fuzz [--protocol=chtread|raft|raft-lease|vr|all]
//                [--profile=calm|rolling-partitions|leader-hunter|
//                 clock-storm|power-cycle|crash-loop|degraded-reads|all]
//                [--object=kv|counter|bank|queue|lock|all]
//                [--seeds=200] [--seed-start=1] [--threads=0 (auto)]
//                [--n=5] [--ops=80] [--read-fraction=0.5] [--key-skew=0.5]
//                [--delta-ms=10] [--epsilon-ms=1] [--gst-ms=1000]
//                [--loss=0.1] [--sync-latency-us=5000] [--key-loss=0.5]
//                [--group-commit=1] [--client-path=1] [--clock-guard=1]
//                [--max-inflight=6] [--check-budget=500000]
//                [--artifact-dir=.] [--metrics-out=PATH.json] [--verbose]
//   chtread_fuzz --repro=<artifact-file>
//
// --metrics-out writes the sweep summary plus, per protocol, a full
// observability capture (merged per-replica metric registries, span
// histograms, message counts) from one representative re-run of the first
// (profile, object) combination — schema cht.bench.v1, same as the benches.
//
// Exit status: 0 if every run passed (or a --repro replay reproduced its
// recorded fingerprint); 1 if any run failed (or a replay diverged); 2 on a
// usage error or an unreadable artifact; 3 if no run failed but some were
// undecided (the checker's --check-budget ran out before a verdict).
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "chaos/adapter.h"
#include "chaos/nemesis.h"
#include "chaos/spec.h"
#include "chaos/sweep.h"
#include "common/experiment.h"
#include "metrics/table.h"

namespace {

using namespace cht;  // NOLINT: tool brevity

struct Options {
  chaos::RunSpec base;
  std::string protocol = "chtread";
  std::string profile = "rolling-partitions";
  std::string object = "kv";
  int seeds = 50;
  std::uint64_t seed_start = 1;
  int threads = 0;
  std::string artifact_dir = ".";
  std::string repro;
  std::string metrics_out;  // bench-artifact JSON path; empty = off
  bool verbose = false;
};

bool parse_flag(const std::string& arg, const std::string& name,
                std::string& out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (parse_flag(arg, "protocol", value)) {
      options.protocol = value;
    } else if (parse_flag(arg, "profile", value)) {
      options.profile = value;
    } else if (parse_flag(arg, "object", value)) {
      options.object = value;
    } else if (parse_flag(arg, "seeds", value)) {
      options.seeds = std::stoi(value);
    } else if (parse_flag(arg, "seed-start", value)) {
      options.seed_start = std::stoull(value);
    } else if (parse_flag(arg, "threads", value)) {
      options.threads = std::stoi(value);
    } else if (parse_flag(arg, "n", value)) {
      options.base.n = std::stoi(value);
    } else if (parse_flag(arg, "ops", value)) {
      options.base.ops = std::stoi(value);
    } else if (parse_flag(arg, "read-fraction", value)) {
      options.base.read_fraction = std::stod(value);
    } else if (parse_flag(arg, "key-skew", value)) {
      options.base.key_skew = std::stod(value);
    } else if (parse_flag(arg, "delta-ms", value)) {
      options.base.delta_ms = std::stoll(value);
    } else if (parse_flag(arg, "epsilon-ms", value)) {
      options.base.epsilon_ms = std::stoll(value);
    } else if (parse_flag(arg, "gst-ms", value)) {
      options.base.gst_ms = std::stoll(value);
    } else if (parse_flag(arg, "loss", value)) {
      options.base.pre_gst_loss = std::stod(value);
    } else if (parse_flag(arg, "sync-latency-us", value)) {
      options.base.sync_latency_us = std::stoll(value);
    } else if (parse_flag(arg, "key-loss", value)) {
      options.base.unsynced_key_loss = std::stod(value);
    } else if (parse_flag(arg, "group-commit", value)) {
      options.base.group_commit = std::stoi(value) != 0;
    } else if (parse_flag(arg, "client-path", value)) {
      options.base.client_path = std::stoi(value) != 0;
    } else if (parse_flag(arg, "clock-guard", value)) {
      options.base.clock_guard = std::stoi(value) != 0;
    } else if (parse_flag(arg, "max-inflight", value)) {
      options.base.max_inflight = std::stoi(value);
    } else if (parse_flag(arg, "check-budget", value)) {
      options.base.check_budget = std::stoll(value);
    } else if (parse_flag(arg, "artifact-dir", value)) {
      options.artifact_dir = value;
    } else if (parse_flag(arg, "repro", value)) {
      options.repro = value;
    } else if (parse_flag(arg, "metrics-out", value)) {
      options.metrics_out = value;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the usage comment at the top of tools/chtread_fuzz.cc\n";
      std::exit(0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  // Validate names up front so a typo gets a usage error, not an assert
  // from deep inside adapter construction (and a vacuous --seeds=0 sweep
  // cannot report "all runs passed").
  const auto check_name = [](const std::string& flag, const std::string& value,
                             const std::vector<std::string>& known) {
    if (value == "all") return;
    for (const auto& k : known) {
      if (value == k) return;
    }
    std::cerr << "unknown --" << flag << "=" << value << " (known:";
    for (const auto& k : known) std::cerr << " " << k;
    std::cerr << " all)\n";
    std::exit(2);
  };
  if (options.repro.empty()) {
    check_name("protocol", options.protocol, chaos::known_protocols());
    check_name("profile", options.profile, chaos::known_profiles());
    check_name("object", options.object, chaos::known_objects());
    if (options.seeds < 1) {
      std::cerr << "--seeds must be >= 1 (got " << options.seeds << ")\n";
      std::exit(2);
    }
  }
  return options;
}

int replay(const std::string& path) {
  const auto artifact = chaos::load_artifact(path);
  if (!artifact) {
    std::cerr << "cannot read repro artifact: " << path << "\n";
    return 2;
  }
  std::cout << "replaying " << path << " (protocol=" << artifact->spec.protocol
            << " profile=" << artifact->spec.profile
            << " object=" << artifact->spec.object
            << " seed=" << artifact->spec.seed << ")\n";
  const chaos::RunResult result = chaos::run_one(artifact->spec);
  std::cout << "verdict: " << (result.ok() ? "PASS" : "FAIL") << "\n";
  for (const auto& v : result.violations) std::cout << "  violation: " << v << "\n";
  const bool identical = result.fingerprint == artifact->fingerprint;
  std::cout << "fingerprint: " << result.fingerprint
            << (identical ? "  (bit-identical to artifact)"
                          : "  (DIFFERS from artifact " + artifact->fingerprint +
                                ")")
            << "\n";
  return identical ? 0 : 1;
}

std::vector<std::string> expand(const std::string& value,
                                const std::vector<std::string>& all) {
  if (value == "all") return all;
  return {value};
}

// Captures observability out of a run_one() adapter at teardown: run_one
// owns and destroys the adapter, so the destructor is the last point where
// the replicas (and their metric registries) still exist. Pure observer —
// every protocol-visible call forwards unchanged, so the decorated run's
// fingerprint is identical to an undecorated one.
class CapturingAdapter final : public chaos::ForwardingAdapter {
 public:
  struct Capture {
    metrics::Registry merged;
    sim::MessageStats messages;
    metrics::LatencyRecorder reads;
    metrics::LatencyRecorder rmws;
  };

  CapturingAdapter(std::unique_ptr<chaos::ClusterAdapter> inner, Capture& out)
      : ForwardingAdapter(std::move(inner)), out_(out) {}
  ~CapturingAdapter() override {
    inner().merge_metrics_into(out_.merged);
    out_.messages = inner().sim().network().stats();
    for (const auto& op : inner().history().ops()) {
      if (!op.completed()) continue;
      (inner().model().is_read(op.op) ? out_.reads : out_.rmws)
          .record(op.latency());
    }
  }

 private:
  Capture& out_;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (!options.repro.empty()) return replay(options.repro);

  const auto protocols = expand(options.protocol, chaos::known_protocols());
  const auto profiles = expand(options.profile, chaos::known_profiles());
  const auto objects = expand(options.object, chaos::known_objects());

  cht::bench::ExperimentResult result("fuzz", options.metrics_out,
                                      /*smoke=*/false);
  result.begin("chtread_fuzz seed sweep",
               "seeds=" + std::to_string(options.seeds) +
                   " start=" + std::to_string(options.seed_start) +
                   " n=" + std::to_string(options.base.n) +
                   " ops=" + std::to_string(options.base.ops));
  result.columns({"protocol", "profile", "object", "seeds", "failed",
                  "undecided", "leader changes", "crashes", "restarts"});
  int total_failures = 0;
  int total_undecided = 0;
  std::vector<std::string> artifacts;
  for (const auto& protocol : protocols) {
    for (const auto& profile : profiles) {
      for (const auto& object : objects) {
        chaos::RunSpec base = options.base;
        base.protocol = protocol;
        base.profile = profile;
        base.object = object;
        chaos::SweepOptions sweep_options;
        sweep_options.threads = options.threads;
        sweep_options.artifact_dir = options.artifact_dir;
        if (options.verbose) {
          sweep_options.on_result = [](const chaos::RunResult& r) {
            std::cout << "  seed " << r.spec.seed << ": "
                      << (r.ok() ? "ok" : "FAIL") << "  ops "
                      << r.completed << "/" << r.submitted << "  leaders "
                      << r.leadership_changes << "  fp " << r.fingerprint
                      << "\n";
          };
        }
        const chaos::SweepResult sweep = chaos::sweep_seeds(
            base, options.seed_start, options.seeds, sweep_options);
        std::int64_t leaders = 0;
        int crashes = 0;
        int restarts = 0;
        for (const auto& r : sweep.results) {
          leaders += r.leadership_changes;
          crashes += r.crashes;
          restarts += r.restarts;
        }
        result.row({protocol, profile, object,
                    metrics::Table::num(std::int64_t{options.seeds}),
                    metrics::Table::num(std::int64_t{sweep.failures()}),
                    metrics::Table::num(std::int64_t{sweep.undecided()}),
                    metrics::Table::num(leaders),
                    metrics::Table::num(std::int64_t{crashes}),
                    metrics::Table::num(std::int64_t{restarts})});
        total_failures += sweep.failures();
        total_undecided += sweep.undecided();
        for (const auto& path : sweep.artifacts) artifacts.push_back(path);
        for (const auto seed : sweep.failing_seeds()) {
          std::cout << "FAIL protocol=" << protocol << " profile=" << profile
                    << " object=" << object << " seed=" << seed << "\n";
        }
      }
    }
  }
  result.end();
  for (const auto& path : artifacts) {
    std::cout << "repro artifact: " << path << "\n";
  }
  if (total_undecided > 0) {
    std::cout << total_undecided
              << " runs undecided (checker state budget exhausted; rerun with "
                 "a larger --check-budget or smaller --max-inflight)\n";
  }
  // A run the checker could not decide is a gap, never a pass.
  int exit_code = 0;
  if (total_failures > 0) {
    std::cout << total_failures << " runs FAILED\n";
    exit_code = 1;
  } else if (total_undecided > 0) {
    std::cout << total_undecided << " runs undecided\n";
    exit_code = 3;
  } else {
    std::cout << "all runs passed\n";
  }
  if (!options.metrics_out.empty()) {
    result.metric("total_failures", std::int64_t{total_failures});
    result.metric("total_undecided", std::int64_t{total_undecided});
    // One representative re-run per protocol (first profile/object combo)
    // to capture merged registries, span histograms and message counts.
    for (const auto& protocol : protocols) {
      chaos::RunSpec spec = options.base;
      spec.protocol = protocol;
      spec.profile = profiles.front();
      spec.object = objects.front();
      spec.seed = options.seed_start;
      CapturingAdapter::Capture capture;
      chaos::run_one(spec, [&](std::unique_ptr<chaos::ClusterAdapter> inner) {
        return std::make_unique<CapturingAdapter>(std::move(inner), capture);
      });
      result.observe_registry(protocol, capture.merged, capture.messages);
      result.latency(protocol + "-reads", capture.reads);
      result.latency(protocol + "-rmws", capture.rmws);
    }
    const int finish_code = result.finish();
    if (exit_code == 0) exit_code = finish_code;
  }
  return exit_code;
}

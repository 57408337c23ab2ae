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
// histograms, message counts, read/RMW latencies): the RunResult telemetry
// of the first seed of the first (profile, object) sweep — schema
// cht.bench.v1, same as the benches.
//
// Exit status: 0 if every run passed (or a --repro replay reproduced its
// recorded fingerprint); 1 if any run failed (or a replay diverged); 2 on a
// usage error (unknown flag or name, malformed number, --seeds/--n/
// --max-inflight/--delta-ms below 1, a negative --epsilon-ms, an
// --artifact-dir that is not a directory) or an unreadable artifact; 3 if
// no run failed but some were undecided (the checker's --check-budget ran
// out before a verdict).
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/spec.h"
#include "chaos/sweep.h"
#include "cli_flags.h"
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

Options parse(int argc, char** argv) {
  using cli::parse_flag;
  Options options;
  chaos::RunSpec& base = options.base;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool known =
        parse_flag(arg, "protocol", options.protocol) ||
        parse_flag(arg, "profile", options.profile) ||
        parse_flag(arg, "object", options.object) ||
        parse_flag(arg, "seeds", options.seeds) ||
        parse_flag(arg, "seed-start", options.seed_start) ||
        parse_flag(arg, "threads", options.threads) ||
        parse_flag(arg, "n", base.n) || parse_flag(arg, "ops", base.ops) ||
        parse_flag(arg, "read-fraction", base.read_fraction) ||
        parse_flag(arg, "key-skew", base.key_skew) ||
        parse_flag(arg, "delta-ms", base.delta_ms) ||
        parse_flag(arg, "epsilon-ms", base.epsilon_ms) ||
        parse_flag(arg, "gst-ms", base.gst_ms) ||
        parse_flag(arg, "loss", base.pre_gst_loss) ||
        parse_flag(arg, "sync-latency-us", base.sync_latency_us) ||
        parse_flag(arg, "key-loss", base.unsynced_key_loss) ||
        parse_flag(arg, "group-commit", base.group_commit) ||
        parse_flag(arg, "client-path", base.client_path) ||
        parse_flag(arg, "clock-guard", base.clock_guard) ||
        parse_flag(arg, "max-inflight", base.max_inflight) ||
        parse_flag(arg, "check-budget", base.check_budget) ||
        parse_flag(arg, "artifact-dir", options.artifact_dir) ||
        parse_flag(arg, "repro", options.repro) ||
        parse_flag(arg, "metrics-out", options.metrics_out);
    if (known) continue;
    if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the usage comment at the top of tools/chtread_fuzz.cc\n";
      std::exit(0);
    } else {
      cli::usage_error("unknown flag: " + arg);
    }
  }
  // Validate names, sizes and probabilities up front so a typo gets a usage
  // error, not an assert or a hang deep inside a run (--n=0 trips
  // Rng::next_below, --delta-ms=0 never finishes), and a vacuous --seeds=0
  // sweep or a --loss=2 run cannot report "all runs passed".
  const auto check_name = [](const std::string& flag, const std::string& value,
                             std::vector<std::string> known) {
    known.push_back("all");
    cli::require_one_of(flag, value, known);
  };
  if (options.repro.empty()) {
    check_name("protocol", options.protocol, chaos::known_protocols());
    check_name("profile", options.profile, chaos::known_profiles());
    check_name("object", options.object, chaos::known_objects());
    cli::require_at_least("seeds", options.seeds, 1);
    cli::require_at_least("n", base.n, 1);
    cli::require_at_least("max-inflight", base.max_inflight, 1);
    cli::require_at_least("delta-ms", base.delta_ms, 1);
    cli::require_at_least("epsilon-ms", base.epsilon_ms, 0);
    cli::require_at_least("ops", base.ops, 1);
    cli::require_in_range("read-fraction", base.read_fraction, 0, 1);
    cli::require_in_range("key-skew", base.key_skew, 0, 1);
    cli::require_in_range("loss", base.pre_gst_loss, 0, 1);
    cli::require_in_range("key-loss", base.unsynced_key_loss, 0, 1);
    // An empty --artifact-dir means "write none"; any other value must name
    // a directory, or every failing seed would silently lose its artifact.
    if (!options.artifact_dir.empty() &&
        !std::filesystem::is_directory(options.artifact_dir)) {
      cli::usage_error("--artifact-dir=" + options.artifact_dir +
                       " is not a directory");
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
  // Per protocol, the --metrics-out capture: the telemetry of the first
  // seed of its first (profile, object) sweep.
  std::vector<std::pair<std::string, chaos::RunTelemetry>> captures;
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
        if (profile == profiles.front() && object == objects.front()) {
          captures.emplace_back(protocol, sweep.results.front().telemetry);
        }
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
    for (const auto& [protocol, telemetry] : captures) {
      result.observe_registry(protocol, *telemetry.registry,
                              telemetry.messages);
      result.latency(protocol + "-reads", telemetry.latencies.reads);
      result.latency(protocol + "-rmws", telemetry.latencies.rmws);
    }
    const int finish_code = result.finish();
    if (exit_code == 0) exit_code = finish_code;
  }
  return exit_code;
}

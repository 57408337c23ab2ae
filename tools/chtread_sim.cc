// chtread_sim — command-line scenario runner.
//
// Runs a configurable simulated cluster and prints a summary: latencies,
// message traffic, blocking statistics, and a linearizability verdict.
// With --metrics-out=PATH it also writes the versioned bench-artifact JSON
// (schema cht.bench.v1: merged per-replica metric registries, protocol-phase
// span histograms, message counts by type, latency percentiles).
//
// Usage:
//   chtread_sim [--n=5] [--delta-ms=10] [--epsilon-ms=1] [--seed=1]
//               [--protocol=core|raft|vr]
//               [--reads=core-local|core-forward|core-anypending (core)
//                       |raft-readindex|raft-lease (raft); vr has none]
//               [--workload=read-heavy|write-heavy|mixed]
//               [--ops=500] [--gst-ms=0] [--loss=0.05]
//               [--crash-leader-at-ms=N] [--check=on|off] [--trace=N]
//               [--metrics-out=PATH.json]
//
// --reads defaults to the protocol's first mode. Exit status: 0 if the
// history is linearizable (or --check=off), 1 if not, 2 on a usage error
// (unknown flag or name, a --reads of another protocol, a malformed number,
// --n or --delta-ms below 1, a negative --epsilon-ms).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "checker/history.h"
#include "checker/linearizability.h"
#include "cli_flags.h"
#include "common/experiment.h"
#include "common/rng.h"
#include "harness/stack_cluster.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "object/kv_object.h"

namespace {

using namespace cht;  // NOLINT: tool brevity

// The --reads values each --protocol accepts; the first is its default.
// VR serves every read at the primary and has no read modes.
std::vector<std::string> read_modes(const std::string& protocol) {
  if (protocol == "core") {
    return {"core-local", "core-forward", "core-anypending"};
  }
  if (protocol == "raft") return {"raft-readindex", "raft-lease"};
  return {};
}

struct Options {
  int n = 5;
  std::int64_t delta_ms = 10;
  std::int64_t epsilon_ms = 1;
  std::uint64_t seed = 1;
  std::string protocol = "core";
  std::string reads;  // empty = the protocol's default (see read_modes)
  std::string workload = "read-heavy";
  int ops = 500;
  std::int64_t gst_ms = 0;
  double loss = 0.05;
  std::int64_t crash_leader_at_ms = -1;
  std::string check = "on";
  int trace = 0;  // dump last N protocol trace events (0 = off)
  std::string metrics_out;  // artifact path; empty = no artifact
};

Options parse(int argc, char** argv) {
  using cli::parse_flag;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool matched =
        parse_flag(arg, "n", options.n) ||
        parse_flag(arg, "delta-ms", options.delta_ms) ||
        parse_flag(arg, "epsilon-ms", options.epsilon_ms) ||
        parse_flag(arg, "seed", options.seed) ||
        parse_flag(arg, "protocol", options.protocol) ||
        parse_flag(arg, "reads", options.reads) ||
        parse_flag(arg, "workload", options.workload) ||
        parse_flag(arg, "ops", options.ops) ||
        parse_flag(arg, "gst-ms", options.gst_ms) ||
        parse_flag(arg, "loss", options.loss) ||
        parse_flag(arg, "crash-leader-at-ms", options.crash_leader_at_ms) ||
        parse_flag(arg, "check", options.check) ||
        parse_flag(arg, "trace", options.trace) ||
        parse_flag(arg, "metrics-out", options.metrics_out);
    if (matched) continue;
    if (arg == "--help" || arg == "-h") {
      std::cout << "see the usage comment at the top of tools/chtread_sim.cc\n";
      std::exit(0);
    }
    cli::usage_error("unknown flag: " + arg);
  }
  // Every name must be one the tool knows: a typo is a usage error, never a
  // silent fallback to a default.
  cli::require_one_of("protocol", options.protocol, {"core", "raft", "vr"});
  cli::require_one_of("workload", options.workload,
                      {"read-heavy", "write-heavy", "mixed"});
  cli::require_one_of("check", options.check, {"on", "off"});
  const std::vector<std::string> modes = read_modes(options.protocol);
  if (options.reads.empty() && !modes.empty()) options.reads = modes.front();
  if (!options.reads.empty()) cli::require_one_of("reads", options.reads, modes);
  cli::require_at_least("n", options.n, 1);
  cli::require_at_least("delta-ms", options.delta_ms, 1);
  cli::require_at_least("epsilon-ms", options.epsilon_ms, 0);
  cli::require_at_least("ops", options.ops, 1);
  cli::require_in_range("loss", options.loss, 0, 1);
  return options;
}

harness::CommonConfig cluster_config(const Options& options) {
  harness::CommonConfig config;
  config.n = options.n;
  config.seed = options.seed;
  config.delta = Duration::millis(options.delta_ms);
  config.epsilon = Duration::millis(options.epsilon_ms);
  config.gst = RealTime::zero() + Duration::millis(options.gst_ms);
  config.pre_gst_loss = options.loss;
  return config;
}

double read_fraction(const std::string& workload) {
  if (workload == "read-heavy") return 0.9;
  if (workload == "write-heavy") return 0.1;
  return 0.5;  // mixed
}

// Drives any stack's cluster through the scenario and reports it.
template <class R>
int drive(harness::StackCluster<R>& cluster, const Options& options) {
  cluster.await_leader(Duration::seconds(30));
  if (options.trace > 0) {
    // Record protocol-level events only (network tracing would dwarf them).
    cluster.sim().trace().enable(/*include_network=*/false);
  }
  Rng rng(options.seed * 31 + 1);
  const double reads = read_fraction(options.workload);
  bool crashed = false;
  for (int i = 0; i < options.ops; ++i) {
    const int proc = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(options.n)));
    if (cluster.crashed(proc)) continue;
    if (rng.next_double() < reads) {
      cluster.submit(proc, object::KVObject::get(
                               "k" + std::to_string(rng.next_in(0, 3))));
    } else {
      cluster.submit(proc,
                     object::KVObject::put("k" + std::to_string(rng.next_in(0, 3)),
                                           "v" + std::to_string(i)));
    }
    cluster.run_for(Duration::millis(rng.next_in(2, 20)));
    if (!crashed && options.crash_leader_at_ms >= 0 &&
        cluster.sim().now() >=
            RealTime::zero() + Duration::millis(options.crash_leader_at_ms)) {
      const int leader = cluster.leader();
      if (leader >= 0) {
        std::cout << "[crash] killing leader p" << leader << " at "
                  << cluster.sim().now().to_millis_f() << " ms\n";
        cluster.sim().crash(ProcessId(leader));
        crashed = true;
      }
    }
  }
  const bool quiesced = cluster.await_quiesce(Duration::seconds(300));
  if (options.trace > 0) {
    std::cout << "\n--- last " << options.trace
              << " protocol trace events (leader/batch/lease/crash) ---\n";
    cluster.sim().trace().dump(std::cout,
                               static_cast<std::size_t>(options.trace));
    std::cout << "\n";
  }

  const auto latencies =
      checker::split_latencies(cluster.model(), cluster.history());
  const metrics::LatencyRecorder& read_lat = latencies.reads;
  const metrics::LatencyRecorder& write_lat = latencies.rmws;
  const std::size_t pending =
      cluster.history().ops().size() - cluster.history().completed_count();
  cht::bench::ExperimentResult result("sim", options.metrics_out,
                                      /*smoke=*/false);
  result.begin("chtread_sim: protocol=" + options.protocol +
                   " workload=" + options.workload,
               "seed=" + std::to_string(options.seed) +
                   " n=" + std::to_string(options.n) +
                   " delta=" + std::to_string(options.delta_ms) + "ms");
  result.columns({"metric", "value"});
  result.row({"simulated time (s)",
              metrics::Table::num(cluster.sim().now().to_seconds_f(), 2)});
  result.row({"operations completed",
              metrics::Table::num(static_cast<std::int64_t>(
                  cluster.completed()))});
  result.row({"operations pending",
              metrics::Table::num(static_cast<std::int64_t>(pending))});
  if (!read_lat.empty()) {
    result.row({"read p50/p99 (ms)",
                metrics::Table::num(read_lat.p50().to_millis_f(), 2) + " / " +
                    metrics::Table::num(read_lat.p99().to_millis_f(), 2)});
  }
  if (!write_lat.empty()) {
    result.row({"write p50/p99 (ms)",
                metrics::Table::num(write_lat.p50().to_millis_f(), 2) + " / " +
                    metrics::Table::num(write_lat.p99().to_millis_f(), 2)});
  }
  result.row({"messages sent",
              metrics::Table::num(cluster.sim().network().stats().sent)});
  result.end();

  result.metric("ops_completed",
                static_cast<std::int64_t>(cluster.completed()));
  result.metric("ops_pending", static_cast<std::int64_t>(pending));
  result.metric("simulated_time_us", (cluster.sim().now() - RealTime::zero())
                                         .to_micros());
  result.latency("reads", read_lat);
  result.latency("rmws", write_lat);
  result.config(options.protocol, cluster);
  result.observe(options.protocol, cluster);

  if (!quiesced) {
    std::cout << "note: some operations never completed (expected when the\n"
              << "submitting process crashed or no majority is connected)\n";
  }
  int exit_code = 0;
  if (options.check == "on") {
    const auto check =
        checker::check_linearizable(cluster.model(), cluster.history().ops());
    std::cout << "linearizable: " << (check.linearizable ? "YES" : "NO");
    if (!check.linearizable) std::cout << "  (" << check.explanation << ")";
    std::cout << "\n";
    result.metric("linearizable",
                  static_cast<std::int64_t>(check.linearizable ? 1 : 0));
    exit_code = check.linearizable ? 0 : 1;
  }
  if (!options.metrics_out.empty()) {
    const int finish_code = result.finish();
    if (exit_code == 0) exit_code = finish_code;
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  auto model = std::make_shared<object::KVObject>();
  std::cout << "chtread_sim: protocol=" << options.protocol;
  if (!options.reads.empty()) std::cout << " reads=" << options.reads;
  std::cout << " n=" << options.n << " delta=" << options.delta_ms
            << "ms seed=" << options.seed << "\n";

  if (options.protocol == "core") {
    core::ConfigOverrides overrides;
    if (options.reads == "core-forward") {
      overrides.read_policy = core::ReadPolicy::kLeaderForward;
    } else if (options.reads == "core-anypending") {
      overrides.read_policy = core::ReadPolicy::kAnyPendingBlocks;
    }
    harness::StackCluster<core::Replica> cluster(cluster_config(options), model,
                                                 overrides);
    return drive(cluster, options);
  }
  if (options.protocol == "raft") {
    harness::StackCluster<raft::RaftReplica> cluster(
        cluster_config(options), model,
        options.reads == "raft-lease" ? raft::ReadMode::kLeaderLease
                                      : raft::ReadMode::kReadIndex);
    return drive(cluster, options);
  }
  harness::StackCluster<vr::VrReplica> cluster(cluster_config(options), model);
  return drive(cluster, options);
}

// The runtime witness for what detlint enforces statically: the same chaos
// spec run twice in one process yields byte-identical results on every
// protocol stack — same fingerprint, same history, same nemesis schedule,
// same trace, byte-identical repro-artifact files, byte-identical metrics
// JSON. Any wall-clock read, unseeded randomness, hash-order-dependent
// decision, uninitialized message field, or cross-run shared state would
// show up here as a diff between the two runs.
//
// Compile-time half of the audit: including core/wire_audit.h applies the
// static_assert battery over every wire-format struct (trivially copyable
// fixed-size payloads, value-semantics variable-size payloads).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "chaos/adapter.h"
#include "chaos/spec.h"
#include "chaos/sweep.h"
#include "core/wire_audit.h"
#include "metrics/json.h"
#include "metrics/registry.h"

namespace cht {
namespace {

// Pure observer: captures the merged per-replica metric registries at
// adapter teardown (the last point the replicas exist inside run_one).
// Every protocol-visible call forwards unchanged, so a captured run's
// fingerprint is identical to an undecorated one.
class MetricsProbe final : public chaos::ForwardingAdapter {
 public:
  MetricsProbe(std::unique_ptr<chaos::ClusterAdapter> inner,
               metrics::Registry& out)
      : ForwardingAdapter(std::move(inner)), out_(out) {}
  ~MetricsProbe() override { inner().merge_metrics_into(out_); }

 private:
  metrics::Registry& out_;
};

struct CapturedRun {
  chaos::RunResult result;
  std::string metrics_json;
  std::string artifact_bytes;
};

CapturedRun run_captured(const chaos::RunSpec& spec) {
  CapturedRun captured;
  metrics::Registry merged;
  captured.result = chaos::run_one(
      spec, [&merged](std::unique_ptr<chaos::ClusterAdapter> inner) {
        return std::make_unique<MetricsProbe>(std::move(inner), merged);
      });
  captured.metrics_json = metrics::registry_to_json(merged).dump();

  // Both runs write to the SAME path: the artifact embeds its own path in
  // the "# replay:" header, so distinct filenames would differ trivially.
  const std::string path =
      ::testing::TempDir() + "det_twice_" + spec.protocol + ".txt";
  EXPECT_TRUE(chaos::write_artifact(path, captured.result));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  captured.artifact_bytes = bytes.str();
  std::remove(path.c_str());
  return captured;
}

// Absolute fingerprints per (case, protocol), recorded when the pins were
// taken. Two runs agreeing only proves determinism within one build; these
// catch a change that deterministically alters every run alike (a refactor
// that reorders sends, say). A moved pin is a behaviour change to explain,
// never a value to re-record silently.
std::string pinned_fingerprint(const std::string& test_case,
                               const std::string& protocol) {
  static const std::map<std::pair<std::string, std::string>, std::string>
      kPins{
          {{"SecondRun", "chtread"}, "b1ae47159efd409b"},
          {{"SecondRun", "raft"}, "f2d0149697f30dc8"},
          {{"SecondRun", "raft-lease"}, "6e0289fe1f04f15e"},
          {{"SecondRun", "vr"}, "c6796f4b637b1ba2"},
          {{"RestartHeavy", "chtread"}, "3fe8f3997fb4a50b"},
          {{"RestartHeavy", "raft"}, "e8261d4084daec92"},
          {{"RestartHeavy", "raft-lease"}, "5cd1f55862647074"},
          {{"RestartHeavy", "vr"}, "024049590d4a72d1"},
          {{"CrashLoop", "chtread"}, "a8729536dc80a413"},
          {{"CrashLoop", "raft"}, "94c297a31e9aff12"},
          {{"CrashLoop", "raft-lease"}, "ee805192741e0a3c"},
          {{"CrashLoop", "vr"}, "b629376c40fc0567"},
          {{"ClockStormGuardOn", "chtread"}, "a5a830208f136e4f"},
          {{"ClockStormGuardOn", "raft"}, "c8fa66c23ee3fc4f"},
          {{"ClockStormGuardOn", "raft-lease"}, "f95eb2fcbe2c3687"},
          {{"ClockStormGuardOn", "vr"}, "f5be9b4350982fda"},
          {{"LegacyDirectSubmit", "chtread"}, "61111503edf59f04"},
          {{"LegacyDirectSubmit", "raft"}, "f29e05e7d2641c20"},
          {{"LegacyDirectSubmit", "raft-lease"}, "3fc1f9e7ee91f4bb"},
          {{"LegacyDirectSubmit", "vr"}, "4c7ecf5a3f4aab80"},
      };
  const auto it = kPins.find({test_case, protocol});
  return it == kPins.end() ? "<unpinned>" : it->second;
}

class DeterminismTwiceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismTwiceTest, SecondRunIsByteIdentical) {
  chaos::RunSpec spec;
  spec.protocol = GetParam();
  spec.profile = "rolling-partitions";
  spec.object = "kv";
  spec.seed = 42;
  spec.ops = 40;

  const CapturedRun first = run_captured(spec);
  const CapturedRun second = run_captured(spec);

  EXPECT_EQ(first.result.fingerprint, second.result.fingerprint);
  EXPECT_EQ(first.result.fingerprint,
            pinned_fingerprint("SecondRun", spec.protocol));
  EXPECT_EQ(first.result.violations, second.result.violations);
  EXPECT_EQ(first.result.quiesced, second.result.quiesced);
  EXPECT_EQ(first.result.checker_decided, second.result.checker_decided);
  EXPECT_EQ(first.result.submitted, second.result.submitted);
  EXPECT_EQ(first.result.completed, second.result.completed);
  EXPECT_EQ(first.result.leadership_changes, second.result.leadership_changes);
  EXPECT_EQ(first.result.crashes, second.result.crashes);
  EXPECT_EQ(first.result.restarts, second.result.restarts);
  EXPECT_EQ(first.result.nemesis_schedule, second.result.nemesis_schedule);
  EXPECT_EQ(first.result.trace_tail, second.result.trace_tail);
  EXPECT_EQ(first.result.history, second.result.history);
  EXPECT_EQ(first.artifact_bytes, second.artifact_bytes)
      << "repro artifact not byte-identical across same-spec runs";
  EXPECT_EQ(first.metrics_json, second.metrics_json)
      << "merged metrics registry not byte-identical across same-spec runs";
  // Sanity: the runs did something worth comparing.
  EXPECT_GT(first.result.completed, 0u);
  EXPECT_FALSE(first.artifact_bytes.empty());
}

// Restart-heavy determinism: the power-cycle profile exercises the entire
// crash-recovery machinery (StableStorage loss draws, Simulation::restart,
// recovery protocols, the durability invariant) and must be exactly as
// reproducible as the crash-stop profiles. Catches any RNG draw, container
// ordering or time read sneaking into the recovery paths.
TEST_P(DeterminismTwiceTest, RestartHeavyRunIsByteIdentical) {
  chaos::RunSpec spec;
  spec.protocol = GetParam();
  spec.profile = "power-cycle";
  spec.object = "kv";
  spec.seed = 7;
  spec.ops = 40;

  const CapturedRun first = run_captured(spec);
  const CapturedRun second = run_captured(spec);

  EXPECT_EQ(first.result.fingerprint, second.result.fingerprint);
  EXPECT_EQ(first.result.fingerprint,
            pinned_fingerprint("RestartHeavy", spec.protocol));
  EXPECT_EQ(first.result.violations, second.result.violations);
  EXPECT_EQ(first.result.crashes, second.result.crashes);
  EXPECT_EQ(first.result.restarts, second.result.restarts);
  EXPECT_EQ(first.result.nemesis_schedule, second.result.nemesis_schedule);
  EXPECT_EQ(first.result.history, second.result.history);
  EXPECT_EQ(first.artifact_bytes, second.artifact_bytes)
      << "power-cycle repro artifact not byte-identical";
  EXPECT_EQ(first.metrics_json, second.metrics_json)
      << "power-cycle metrics not byte-identical";
  EXPECT_GT(first.result.completed, 0u);
  // The profile is only doing its job if processes actually went down and
  // came back (the end-of-run revival alone requires a prior bounce).
  EXPECT_GT(first.result.restarts, 0);
}

// Crash-loop determinism: the crash-loop profile re-crashes the same victim
// from nested timer closures (downtime/uptime draws interleaved with the
// recovery protocols), the most event-ordering-sensitive path the nemesis
// has. Any nondeterminism in the re-crash scheduling, the incarnation
// counter, or the per-incarnation sync-continuation teardown shows up here.
TEST_P(DeterminismTwiceTest, CrashLoopRunIsByteIdentical) {
  chaos::RunSpec spec;
  spec.protocol = GetParam();
  spec.profile = "crash-loop";
  spec.object = "kv";
  spec.seed = 13;
  spec.ops = 40;

  const CapturedRun first = run_captured(spec);
  const CapturedRun second = run_captured(spec);

  EXPECT_EQ(first.result.fingerprint, second.result.fingerprint);
  EXPECT_EQ(first.result.fingerprint,
            pinned_fingerprint("CrashLoop", spec.protocol));
  EXPECT_EQ(first.result.violations, second.result.violations);
  EXPECT_EQ(first.result.crashes, second.result.crashes);
  EXPECT_EQ(first.result.restarts, second.result.restarts);
  EXPECT_EQ(first.result.nemesis_schedule, second.result.nemesis_schedule);
  EXPECT_EQ(first.result.history, second.result.history);
  EXPECT_EQ(first.artifact_bytes, second.artifact_bytes)
      << "crash-loop repro artifact not byte-identical";
  EXPECT_EQ(first.metrics_json, second.metrics_json)
      << "crash-loop metrics not byte-identical";
  EXPECT_GT(first.result.completed, 0u);
  // The profile only earns its keep if the loop actually cycled: more
  // crashes than distinct victims requires at least one re-crash.
  EXPECT_GT(first.result.restarts, 0);
}

// Clock-storm determinism with the guard on: skew injections drive the
// clock-health guard through suspect/requalify transitions, reroute pending
// reads onto the degraded RMW path, and feed the exposure-window accounting
// (skew events, guard transitions, excused-read counts all recorded in the
// result). Every one of those moving parts must replay bit-identically —
// including the artifact, which now serializes clock_guard and
// reads_excused.
TEST_P(DeterminismTwiceTest, ClockStormGuardOnRunIsByteIdentical) {
  chaos::RunSpec spec;
  spec.protocol = GetParam();
  spec.profile = "clock-storm";
  spec.object = "kv";
  spec.seed = 23;
  spec.ops = 40;

  const CapturedRun first = run_captured(spec);
  const CapturedRun second = run_captured(spec);

  EXPECT_EQ(first.result.fingerprint, second.result.fingerprint);
  EXPECT_EQ(first.result.fingerprint,
            pinned_fingerprint("ClockStormGuardOn", spec.protocol));
  EXPECT_EQ(first.result.violations, second.result.violations);
  EXPECT_EQ(first.result.reads_excused, second.result.reads_excused);
  EXPECT_EQ(first.result.nemesis_schedule, second.result.nemesis_schedule);
  EXPECT_EQ(first.result.history, second.result.history);
  EXPECT_EQ(first.artifact_bytes, second.artifact_bytes)
      << "clock-storm repro artifact not byte-identical";
  EXPECT_EQ(first.metrics_json, second.metrics_json)
      << "clock-storm metrics not byte-identical";
  EXPECT_GT(first.result.completed, 0u);
  // The profile only earns its keep if clocks were actually skewed.
  EXPECT_FALSE(first.result.skew_events.empty());
}

// Legacy direct-submit determinism: with the client path disabled the
// harness injects operations straight into replicas (the pre-client data
// path, still used when replaying old repro artifacts). Both routing modes
// must stay independently byte-reproducible; the three cases above cover
// the default client path, this one pins the legacy path.
TEST_P(DeterminismTwiceTest, LegacyDirectSubmitRunIsByteIdentical) {
  chaos::RunSpec spec;
  spec.protocol = GetParam();
  spec.profile = "rolling-partitions";
  spec.object = "kv";
  spec.seed = 42;
  spec.ops = 40;
  spec.client_path = false;

  const CapturedRun first = run_captured(spec);
  const CapturedRun second = run_captured(spec);

  EXPECT_EQ(first.result.fingerprint, second.result.fingerprint);
  EXPECT_EQ(first.result.fingerprint,
            pinned_fingerprint("LegacyDirectSubmit", spec.protocol));
  EXPECT_EQ(first.result.violations, second.result.violations);
  EXPECT_EQ(first.result.nemesis_schedule, second.result.nemesis_schedule);
  EXPECT_EQ(first.result.history, second.result.history);
  EXPECT_EQ(first.artifact_bytes, second.artifact_bytes)
      << "legacy-path repro artifact not byte-identical";
  EXPECT_EQ(first.metrics_json, second.metrics_json)
      << "legacy-path metrics not byte-identical";
  EXPECT_GT(first.result.completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, DeterminismTwiceTest,
                         ::testing::ValuesIn(chaos::known_protocols()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cht

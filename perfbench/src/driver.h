// The traced run's driver: chaos::run_one rebuilt from the public pieces it
// uses (make_adapter, Nemesis, WorkloadGen, derive_seed with the same stream
// tags, submit, await_quiesce, check_invariants), with Simulation::step in
// place of run_until so the benchmark can count and time the events it
// steps. It records one span per layer call. Its history lines and
// fingerprint must equal run_one's for the same spec; main.cc checks that
// on every traced seed, which catches any drift between this copy and
// run_one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/spec.h"
#include "metrics/registry.h"
#include "tracer.h"

namespace chtbench {

struct TracedSeed {
  // What run_one would return.
  std::vector<std::string> history;
  std::string fingerprint;
  bool undecided = false;
  std::size_t completed = 0;
  std::size_t rmws_completed = 0;

  // Per-layer counts read from outside the layers.
  std::int64_t driver_events = 0;  // stepped in driver waits, not in quiesce
  std::int64_t stall_us = 0;       // simulated time the inflight cap held
  std::int64_t sim_end_us = 0;
  std::int64_t sent = 0;
  std::int64_t dropped = 0;
  std::map<std::string, std::int64_t> sent_by_type;
  std::int64_t sync_stall_us = 0;
  std::int64_t flush_width_sum = 0;    // writes retired by all flushes
  std::int64_t flush_width_count = 0;  // flushes
  std::int64_t leadership_changes = 0;
  int crashes = 0;
  int restarts = 0;
};

// Runs `spec` under `tracer` (the caller sets the tracer's seed) and merges
// the cluster's metric registries into `merged`.
TracedSeed run_traced(const cht::chaos::RunSpec& spec, Tracer& tracer,
                      cht::metrics::Registry& merged);

}  // namespace chtbench

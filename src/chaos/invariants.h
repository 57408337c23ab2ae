// Invariant registry: every safety/liveness property a chaos run is held to,
// in one place, shared by the seed sweeper, the fuzzer CLI and the ctest
// chaos suites.
//
//   linearizability      full history through the object model. Under
//                        profiles that legally break read freshness (clock
//                        skew beyond epsilon) the treatment depends on the
//                        clock-health guard: with the guard ON, stale reads
//                        are only excused inside the bounded *exposure
//                        window* between skew injection and the arrival of
//                        detecting evidence (two-pass check: full history
//                        first, then with excused reads dropped); with the
//                        guard OFF, the legacy fallback checks only the RMW
//                        sub-history (the paper's Section 1 robustness
//                        claim)
//   liveness             after the nemesis healed every fault and the run
//                        quiesced, an operation may remain pending only if
//                        its submitting process crashed while it was open
//                        (even if that process has since restarted)
//   durability           every acknowledged write is still committed on some
//                        live replica — power cycles that lose unsynced
//                        storage writes must never roll back an acked op
//   protocol invariants  final-state checks over every live replica,
//                        written once for all stacks (protocol_violations
//                        below): one leader per epoch, committed-prefix
//                        agreement
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/adapter.h"
#include "chaos/nemesis.h"

namespace cht::chaos {

struct InvariantReport {
  std::vector<std::string> violations;  // empty = pass
  // False iff the linearizability search exhausted `check_budget` before
  // reaching a verdict: the run is neither pass nor fail on that axis.
  bool checker_decided = true;
  // Completed reads excused by the exposure-window second pass (0 when the
  // full history linearized outright, or when the guard/profile made the
  // exposure accounting inapplicable).
  std::size_t reads_excused = 0;
};

// What the exposure-window accounting needs to know about the run: whether
// the replicas ran the clock-health guard, the synchrony parameters, and
// when the nemesis first broke and finally restored clock synchrony. The
// default (clock_guard = false, no skew) reproduces the legacy behavior
// exactly.
struct ExposureInput {
  bool clock_guard = false;  // RunSpec::clock_guard of the run
  Duration delta = Duration::zero();
  Duration epsilon = Duration::zero();
  // The profile's clock_skew_max: upper bound on any injected offset, and
  // on how long a monotonicity-clamped (frozen) clock lags real time after
  // the heal restored its offset.
  Duration skew_max = Duration::zero();
  // Earliest clock-offset injection; RealTime::max() = clocks never skewed
  // (no window: the full history must linearize even under an
  // allows_stale_reads profile).
  RealTime first_skew = RealTime::max();
  // When Nemesis::stop_and_heal restored every clock offset.
  RealTime heal_time = RealTime::max();
};

// One replica as the protocol invariants see it. `Entries` is any sized
// random-access range of equality-comparable entries.
template <class Entries>
struct ReplicaView {
  bool live = false;  // not crashed
  bool leader = false;
  std::int64_t epoch = 0;  // term, view, or a stack-wide constant
  Entries committed{};     // committed prefix, in commit order
};

// The protocol invariants, over the live replicas of one `stack`:
//   one leader per epoch        Raft election safety, one normal primary per
//                               VR view, at most one steady chtread leader
//                               (chtread puts every reign in epoch 0)
//   committed-prefix agreement  two replicas' committed prefixes agree up to
//                               the shorter one (reported once per pair, at
//                               the first differing 1-based index)
// `epoch_name` only labels the report. Empty means both hold.
template <class Entries>
std::vector<std::string> protocol_violations(
    const std::string& stack, const std::string& epoch_name,
    const std::vector<ReplicaView<Entries>>& replicas) {
  std::vector<std::string> violations;
  std::map<std::int64_t, int> leaders_per_epoch;
  for (const auto& r : replicas) {
    if (r.live && r.leader) ++leaders_per_epoch[r.epoch];
  }
  for (const auto& [epoch, count] : leaders_per_epoch) {
    if (count < 2) continue;
    violations.push_back(stack + ": " + std::to_string(count) +
                         " leaders in " + epoch_name + " " +
                         std::to_string(epoch));
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (!replicas[i].live) continue;
    const auto& a = replicas[i].committed;
    for (std::size_t j = i + 1; j < replicas.size(); ++j) {
      if (!replicas[j].live) continue;
      const auto& b = replicas[j].committed;
      const std::size_t upto = std::min(a.size(), b.size());
      const auto diverged =
          std::mismatch(a.begin(), a.begin() + upto, b.begin()).first;
      if (diverged == a.begin() + upto) continue;
      violations.push_back(
          stack + ": committed prefix diverges at index " +
          std::to_string(diverged - a.begin() + 1) + " between p" +
          std::to_string(i) + " and p" + std::to_string(j));
    }
  }
  return violations;
}

// Runs the full registry. `quiesced` is the result of await_quiesce after
// Nemesis::stop_and_heal(); `check_budget` bounds the linearizability
// search's explored states (0 = unlimited); `exposure` feeds the
// exposure-window accounting under allows_stale_reads profiles.
InvariantReport check_invariants(ClusterAdapter& cluster,
                                 const NemesisProfile& profile, bool quiesced,
                                 std::size_t check_budget = 0,
                                 const ExposureInput& exposure = {});

}  // namespace cht::chaos

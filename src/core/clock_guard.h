// Clock-health guard: runtime detection of broken epsilon-synchrony.
//
// The paper's lease reads (and the Raft/PQL lease baselines) are only
// linearizable while every pair of clocks stays within epsilon. Rather than
// assume that, each protocol message carries the sender's local clock
// reading (sim::Message::sent_local) and every receiver feeds the pair
// (send stamp, receive-time local clock) into this guard, which derives a
// *sound lower bound* on the pairwise clock offset:
//
//   recv - send = flight + (offset_recv - offset_send),  flight in [0, delta]
//   post-GST, so
//     recv - send - delta <= offset_recv - offset_send   (fast receiver)
//     send - recv         <= offset_send - offset_recv   (fast sender)
//   and  lb = max(recv - send - delta, send - recv) <= |offset_recv - offset_send|.
//
// If lb exceeds the suspicion threshold (epsilon), the pairwise skew
// provably exceeds the model bound and the receiver marks itself
// clock-suspect: it cannot tell which of the two clocks is wrong, and
// degrading to a clock-free read path is always safe. The detector is
// interval-based and assumes no synchrony beyond the model's own post-GST
// delta: before GST, long flights can trip it spuriously, which only costs
// read latency, never correctness. Detection is also inherently incomplete —
// a skew of s is only witnessed by messages whose flight satisfies
// flight > delta - s + threshold — so the chaos checker's exposure-window
// accounting (chaos/invariants.cc) closes windows at heal + drain, not at
// detection alone.
//
// Re-qualification is lazy (no timers, so the detlint timer model stays
// unchanged): once suspect, the first clean sample arriving at least
// `requalify_window` (2*delta + epsilon) after the last bad sample —
// measured on the receiver's own monotonic local clock — clears the state.
// A clock frozen by the monotonic clamp after a heal keeps generating bad
// evidence until it has decayed, so the window only starts counting once the
// clock is actually healthy again.
// Header-only so the Raft and baseline stacks can use it without linking
// against the chtread core library.
#pragma once

#include <algorithm>
#include <vector>

#include "common/time.h"

namespace cht::core {

class ClockSkewGuard {
 public:
  // One suspect-state flip, stamped in real time for the chaos checker's
  // exposure-window accounting (the stamp never feeds back into protocol
  // decisions).
  struct Transition {
    RealTime at;
    bool suspect = false;
  };

  // `delta` and `epsilon` are the model's bounds. A disabled guard never
  // suspects (the paper's assume-synchrony behaviour).
  ClockSkewGuard(Duration delta, Duration epsilon, bool enabled = true)
      : delta_(delta), epsilon_(epsilon), enabled_(enabled) {}

  // A skew lower bound above this marks the replica clock-suspect: epsilon,
  // since anything beyond it provably violates the model.
  Duration suspect_threshold() const { return epsilon_; }
  // Clean-evidence span (on the local clock) required before a suspect
  // replica re-qualifies for lease reads.
  Duration requalify_window() const { return 2 * delta_ + epsilon_; }

  // Feed one received message's send stamp and the receiver's local clock at
  // delivery. `now` is the receiver's real-time reading, recorded only into
  // the transition log. Returns true iff the suspect state flipped.
  bool observe(LocalTime sent, LocalTime recv, RealTime now) {
    if (!enabled_ || sent == LocalTime::min()) return false;
    const Duration lb = std::max(recv - sent - delta_, sent - recv);
    if (lb > suspect_threshold()) {
      last_bad_ = std::max(last_bad_, recv);
      if (!suspect_) {
        suspect_ = true;
        transitions_.push_back({now, true});
        return true;
      }
      return false;
    }
    if (suspect_ && recv - last_bad_ >= requalify_window()) {
      suspect_ = false;
      transitions_.push_back({now, false});
      return true;
    }
    return false;
  }

  bool suspect() const { return enabled_ && suspect_; }
  const std::vector<Transition>& transitions() const { return transitions_; }

 private:
  // Post-GST one-way delay bound used to discount flight time from the
  // observed stamp gap.
  Duration delta_;
  Duration epsilon_;
  bool enabled_;
  bool suspect_ = false;
  LocalTime last_bad_ = LocalTime::min();
  std::vector<Transition> transitions_;
};

}  // namespace cht::core

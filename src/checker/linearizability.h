// Linearizability checker (Wing & Gong search with memoized pruning).
//
// Decides whether a history has a linearization: a total order of its
// operations, consistent with real-time precedence (op A before op B if A's
// response precedes B's invocation), such that running the operations in
// that order through the object model reproduces every completed operation's
// response. Pending operations (no response) may take effect at any point
// after their invocation, or never.
//
// The search linearizes operations in invocation order with a bounded
// "out-of-order window" of concurrently open operations, memoizing visited
// (frontier, state) configurations. With the bounded concurrency of our
// workloads this is fast for histories of tens of thousands of operations;
// it is exponential in the worst case (the problem is NP-complete).
//
// How a search holds its states:
// - Interned states. The search keeps one owned ObjectState per distinct
//   fingerprint() and names it by a 32-bit id; search frames hold ids. This
//   relies on the ObjectState contract (equal states <=> equal
//   fingerprints), which the memo has always relied on.
// - Transition cache. (state id, op index) maps to the id of the state after
//   the op, or to "response mismatch". The model clones and applies once
//   per distinct pair, however often the search tries that op there.
// - Memo key. (state id, base, bitset of the linearized ops in
//   [base, last linearized]), where `base` is the first op not yet
//   linearized. It is the same equivalence as (base, linearized set,
//   fingerprint), so the search visits the same states in the same order.
// - Flat memo. The keys sit back to back in one arena behind an
//   open-addressing table. A lookup compares the full key whenever the
//   hashes match: if two distinct keys shared a hash and the memo trusted
//   it, an unexplored state would count as visited, and a linearizable
//   history could be reported as "no linearization".
#pragma once

#include <string>
#include <vector>

#include "checker/history.h"
#include "object/object.h"

namespace cht::checker {

struct LinearizabilityResult {
  bool linearizable = false;
  // False iff the search exhausted its state budget before reaching a
  // verdict (then `linearizable` is false but means "unknown", not "no").
  // Callers running unbounded searches can ignore this: it is always true.
  bool decided = true;
  // On success: indices into the input history in linearization order
  // (pending operations that never took effect are omitted).
  std::vector<std::size_t> order;
  std::string explanation;  // on failure, a short diagnostic
};

// `max_states` bounds the number of distinct memoized search states explored
// (0 = unlimited): the search gives up when the memo holds that many keys. The bound is a safety valve for adversarial histories
// with huge concurrency windows (the problem is NP-complete); when it trips,
// the result has decided == false.
LinearizabilityResult check_linearizable(const object::ObjectModel& model,
                                         std::vector<HistoryOp> history,
                                         std::size_t max_states = 0);

// Checks only the RMW sub-history (the paper's robustness claim under clock
// desynchronization: the execution *excluding reads* remains linearizable).
LinearizabilityResult check_rmw_subhistory_linearizable(
    const object::ObjectModel& model, const std::vector<HistoryOp>& history,
    std::size_t max_states = 0);

}  // namespace cht::checker

#include "checker/linearizability.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/assert.h"

namespace cht::checker {
namespace {

// The search's memo: a set of variable-length keys of 64-bit words, stored
// back to back in one arena behind an open-addressing table of entry
// indices. A probe compares the full key whenever the hashes match, so two
// keys that collide in hash stay distinct states; trusting the hash alone
// would prune an unexplored state and could turn into a false "not
// linearizable".
class FlatMemo {
 public:
  // Inserts `key`; false if an equal key is already present.
  bool insert(const std::vector<std::uint64_t>& key) {
    if (2 * (hashes_.size() + 1) > slots_.size()) grow();
    const std::uint64_t hash = hash_of(key);
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = hash & mask;
    for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
      const std::size_t entry = slots_[slot] - 1;
      if (hashes_[entry] == hash && equals(entry, key)) return false;
    }
    slots_[slot] = static_cast<std::uint32_t>(hashes_.size() + 1);
    hashes_.push_back(hash);
    words_.insert(words_.end(), key.begin(), key.end());
    ends_.push_back(words_.size());
    return true;
  }

  std::size_t size() const { return hashes_.size(); }

 private:
  static std::uint64_t hash_of(const std::vector<std::uint64_t>& key) {
    std::uint64_t h = key.size();
    for (const std::uint64_t word : key) {
      h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    return h;
  }

  bool equals(std::size_t entry, const std::vector<std::uint64_t>& key) const {
    const std::size_t begin = entry == 0 ? 0 : ends_[entry - 1];
    return ends_[entry] - begin == key.size() &&
           std::equal(key.begin(), key.end(), words_.begin() + begin);
  }

  void grow() {
    CHT_ASSERT(hashes_.size() < std::numeric_limits<std::uint32_t>::max() / 2,
               "memo too large for 32-bit slots");
    std::vector<std::uint32_t> slots(
        std::max<std::size_t>(64, 2 * slots_.size()));
    const std::size_t mask = slots.size() - 1;
    for (std::size_t entry = 0; entry < hashes_.size(); ++entry) {
      std::size_t slot = hashes_[entry] & mask;
      while (slots[slot] != 0) slot = (slot + 1) & mask;
      slots[slot] = static_cast<std::uint32_t>(entry + 1);
    }
    slots_ = std::move(slots);
  }

  std::vector<std::uint64_t> words_;   // every key, back to back
  std::vector<std::size_t> ends_;      // end of each entry's key in words_
  std::vector<std::uint64_t> hashes_;  // each entry's hash
  std::vector<std::uint32_t> slots_;   // entry index + 1; 0 = empty
};

class Search {
 public:
  Search(const object::ObjectModel& model, std::vector<HistoryOp> history,
         std::size_t max_states)
      : model_(model), history_(std::move(history)), max_states_(max_states) {
    CHT_ASSERT(history_.size() < (std::size_t{1} << 32),
               "history too long for 32-bit op indices");
    std::stable_sort(history_.begin(), history_.end(),
                     [](const HistoryOp& a, const HistoryOp& b) {
                       return a.invoked < b.invoked;
                     });
    // One spare word, so reading 64 bits from any index stays in bounds.
    linearized_.assign(history_.size() / 64 + 2, 0);
    completed_remaining_ = 0;
    for (const auto& op : history_) {
      if (op.completed()) ++completed_remaining_;
    }
    completed_total_ = completed_remaining_;
    stuck_example_ = history_.size();
  }

  LinearizabilityResult run() {
    LinearizabilityResult result;
    if (dfs(intern(model_.make_initial_state()))) {
      result.linearizable = true;
      result.order = order_;
    } else if (budget_exhausted_) {
      result.linearizable = false;
      result.decided = false;
      std::ostringstream os;
      os << "undecided: search state budget (" << max_states_
         << " states) exhausted; deepest progress " << best_progress_ << "/"
         << completed_total_ << " completed ops";
      result.explanation = os.str();
    } else {
      result.linearizable = false;
      std::ostringstream os;
      os << "no linearization; deepest progress " << best_progress_ << "/"
         << completed_total_ << " completed ops";
      if (stuck_example_ < history_.size()) {
        const HistoryOp& op = history_[stuck_example_];
        os << "; first unplaceable: " << op.process << " " << op.op
           << " -> " << (op.response ? *op.response : std::string("<pending>"))
           << " invoked@" << op.invoked.to_micros() << "us";
      }
      result.explanation = os.str();
    }
    return result;
  }

 private:
  using StateId = std::uint32_t;
  static constexpr StateId kNoState = static_cast<StateId>(-1);
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  bool linearized(std::size_t i) const {
    return (linearized_[i / 64] >> (i % 64)) & 1;
  }
  // place() sets the bit and unplace() clears it: each flips it.
  void flip_linearized(std::size_t i) {
    linearized_[i / 64] ^= std::uint64_t{1} << (i % 64);
  }

  // The id of the state with `state`'s fingerprint, keeping `state` as that
  // id's representative if the fingerprint is new.
  StateId intern(std::unique_ptr<object::ObjectState> state) {
    const auto [it, inserted] = state_ids_.try_emplace(
        state->fingerprint(), static_cast<StateId>(states_.size()));
    if (inserted) states_.push_back(std::move(state));
    return it->second;
  }

  // The state after history_[i] runs in state `from`, or kNoState if the
  // response the model gives there is not the recorded one. The model runs
  // once per distinct (state, op) pair.
  StateId transition(StateId from, std::size_t i) {
    const auto [it, inserted] =
        transitions_.try_emplace((std::uint64_t{from} << 32) | i, kNoState);
    if (!inserted) return it->second;
    const HistoryOp& op = history_[i];
    std::unique_ptr<object::ObjectState> next = states_[from]->clone();
    const object::Response got = model_.apply(*next, op.op);
    if (!op.completed() || got == *op.response) {
      it->second = intern(std::move(next));
    }
    return it->second;
  }

  // The memo key of search state (state, base): the state's id, `base`, and
  // the linearized set beyond `base` as a bitset (nothing beyond
  // last_linearized_ is linearized; trailing zero words are dropped, so
  // equal sets give equal keys). Equal keys <=> equal fingerprints, bases
  // and linearized sets.
  const std::vector<std::uint64_t>& memo_key(StateId state, std::size_t base) {
    key_.assign(1, (std::uint64_t{state} << 32) | base);
    for (std::size_t pos = base; pos <= last_linearized_; pos += 64) {
      const std::size_t shift = pos % 64;
      std::uint64_t bits = linearized_[pos / 64] >> shift;
      if (shift != 0) bits |= linearized_[pos / 64 + 1] << (64 - shift);
      key_.push_back(bits);
    }
    while (key_.size() > 1 && key_.back() == 0) key_.pop_back();
    return key_;
  }

  // One level of the depth-first search: a search state, and how far its
  // candidate scan has got. The search keeps these on an explicit stack, so
  // a long history cannot overflow the call stack.
  struct Frame {
    StateId state = kNoState;
    std::size_t base = 0;
    RealTime min_response;
    int pass = 0;                 // 0: completed candidates, 1: pending ones
    std::size_t next = 0;         // next index the scan looks at
    std::size_t placed = kNone;   // candidate whose subtree is being searched
    std::size_t saved_last = 0;   // last_linearized_ before `placed`
  };
  enum class Entry { kFound, kDeadEnd, kOpened };

  // Enters the search state (state, base): either decides it at once or
  // pushes its frame.
  Entry enter(StateId state, std::size_t base, std::vector<Frame>& stack) {
    if (budget_exhausted_) return Entry::kDeadEnd;
    while (base < history_.size() && linearized(base)) ++base;
    if (completed_remaining_ == 0) return Entry::kFound;  // all placed

    if (completed_total_ - completed_remaining_ > best_progress_) {
      best_progress_ = completed_total_ - completed_remaining_;
      stuck_example_ = history_.size();
    }

    if (!memo_.insert(memo_key(state, base))) return Entry::kDeadEnd;
    if (max_states_ != 0 && memo_.size() >= max_states_) {
      budget_exhausted_ = true;
      return Entry::kDeadEnd;
    }

    // The earliest response among non-linearized ops bounds which op may be
    // linearized next: anything invoked after that response must come later.
    RealTime min_response = RealTime::max();
    for (std::size_t i = base; i < history_.size(); ++i) {
      if (linearized(i)) continue;
      if (history_[i].completed()) {
        min_response = std::min(min_response, *history_[i].responded);
      }
      // Ops invoked after min_response cannot tighten it further in a way
      // that matters for candidacy; stop once invocations pass it.
      if (history_[i].invoked > min_response) break;
    }
    stack.push_back(Frame{state, base, min_response, /*pass=*/0,
                          /*next=*/base});
    return Entry::kOpened;
  }

  // The frame's next candidate whose response matches, with the state after
  // it in `next_state`; kNone once both passes are exhausted.
  //
  // Completed candidates are tried before pending ones: pending operations
  // (typically writes whose submitter crashed) most often never took
  // effect, and exploring their speculative insertions first makes the
  // search exponential in their number. Completed-first finds witnesses of
  // linearizable histories quickly; completeness is unaffected (both passes
  // together cover every candidate).
  std::size_t next_candidate(Frame& frame, StateId& next_state) {
    for (; frame.pass < 2; ++frame.pass, frame.next = frame.base) {
      const bool pending_pass = frame.pass == 1;
      for (; frame.next < history_.size(); ++frame.next) {
        const std::size_t i = frame.next;
        if (linearized(i)) continue;
        if (history_[i].invoked > frame.min_response) break;  // by invocation
        if (history_[i].completed() == pending_pass) continue;

        next_state = transition(frame.state, i);
        if (next_state == kNoState) {
          if (stuck_example_ == history_.size()) stuck_example_ = i;
          continue;  // response mismatch: cannot take effect here
        }
        ++frame.next;
        return i;
      }
    }
    return kNone;
  }

  void place(Frame& frame, std::size_t i) {
    flip_linearized(i);
    frame.placed = i;
    frame.saved_last = last_linearized_;
    last_linearized_ = std::max(last_linearized_, i);
    if (history_[i].completed()) --completed_remaining_;
    order_.push_back(i);
  }

  void unplace(Frame& frame) {
    const std::size_t i = frame.placed;
    order_.pop_back();
    if (history_[i].completed()) ++completed_remaining_;
    last_linearized_ = frame.saved_last;
    flip_linearized(i);
    frame.placed = kNone;
  }

  // Depth-first search for a linearization, from the initial state.
  bool dfs(StateId initial) {
    std::vector<Frame> stack;
    stack.reserve(history_.size() + 1);  // one frame per placed op, at most
    if (enter(initial, 0, stack) == Entry::kFound) return true;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.placed != kNone) unplace(frame);  // its subtree failed
      StateId next_state = kNoState;
      const std::size_t i = next_candidate(frame, next_state);
      if (i == kNone) {
        stack.pop_back();  // every candidate failed
        continue;
      }
      place(frame, i);
      const std::size_t base = frame.base;
      if (enter(next_state, base, stack) == Entry::kFound) return true;
    }
    return false;
  }

  const object::ObjectModel& model_;
  std::vector<HistoryOp> history_;
  std::vector<std::uint64_t> linearized_;  // bitset over history_ indices
  std::size_t completed_remaining_ = 0;
  std::size_t completed_total_ = 0;
  std::size_t last_linearized_ = 0;
  std::vector<std::size_t> order_;
  // Every distinct state the search reached, indexed by StateId, and the id
  // of each fingerprint. Lookup only: ids are handed out in the order the
  // search reaches the states, never in the map's order.
  std::vector<std::unique_ptr<object::ObjectState>> states_;
  std::unordered_map<std::string, StateId> state_ids_;  // detlint: order-independent (find/insert by fingerprint only; never iterated)
  // (state id << 32 | op index) -> the transition's result.
  std::unordered_map<std::uint64_t, StateId> transitions_;  // detlint: order-independent (find/insert by key only; never iterated)
  // The verdict and the budget cut depend only on which keys are present
  // and how many, never on the table's layout.
  FlatMemo memo_;
  std::vector<std::uint64_t> key_;  // memo_key's buffer
  std::size_t max_states_ = 0;
  bool budget_exhausted_ = false;
  std::size_t best_progress_ = 0;
  std::size_t stuck_example_ = static_cast<std::size_t>(-1);
};

}  // namespace

LinearizabilityResult check_linearizable(const object::ObjectModel& model,
                                         std::vector<HistoryOp> history,
                                         std::size_t max_states) {
  // Locality (Herlihy & Wing): if every operation touches exactly one
  // sub-object, the history is linearizable iff each sub-object's
  // sub-history is. Partitioning collapses the search space dramatically
  // for multi-key workloads.
  bool partitionable = !history.empty();
  for (const auto& op : history) {
    if (model.partition_label(op.op).empty()) {
      partitionable = false;
      break;
    }
  }
  if (partitionable) {
    std::map<std::string, std::vector<HistoryOp>> groups;
    for (auto& op : history) {
      groups[model.partition_label(op.op)].push_back(std::move(op));
    }
    if (groups.size() > 1) {
      LinearizabilityResult combined;
      combined.linearizable = true;
      LinearizabilityResult undecided;  // kept only if no group fails outright
      for (auto& [label, group] : groups) {
        Search search(model, std::move(group), max_states);
        LinearizabilityResult result = search.run();
        if (!result.linearizable) {
          result.explanation = "sub-object '" + label + "': " +
                               result.explanation;
          if (result.decided) return result;  // definite failure wins
          undecided = std::move(result);
        }
        // Note: per-group orders are not merged into a global order; callers
        // needing `order` should check unpartitioned histories.
      }
      if (!undecided.decided) return undecided;
      return combined;
    }
    // Single group: fall through to the plain search (preserves `order`).
    history.clear();
    for (auto& [label, group] : groups) history = std::move(group);
  }
  Search search(model, std::move(history), max_states);
  return search.run();
}

LinearizabilityResult check_rmw_subhistory_linearizable(
    const object::ObjectModel& model, const std::vector<HistoryOp>& history,
    std::size_t max_states) {
  std::vector<HistoryOp> rmw_only;
  for (const auto& op : history) {
    if (!model.is_read(op.op)) rmw_only.push_back(op);
  }
  return check_linearizable(model, std::move(rmw_only), max_states);
}

}  // namespace cht::checker

// Differential validation of the linearizability checker: on small random
// histories, compare its verdict against a brute-force reference that tries
// every real-time-respecting permutation (and every take-effect subset of
// pending operations).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "checker/linearizability.h"
#include "common/rng.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht::checker {
namespace {

using object::KVObject;
using object::ObjectModel;
using object::RegisterObject;

// Reference: recursive enumeration without memoization or pruning beyond
// the definition itself.
bool brute_force(const ObjectModel& model, const std::vector<HistoryOp>& ops) {
  const std::size_t n = ops.size();
  std::vector<bool> used(n, false);
  std::size_t completed_left = 0;
  for (const auto& op : ops) {
    if (op.completed()) ++completed_left;
  }

  std::function<bool(object::ObjectState&, std::size_t)> rec =
      [&](object::ObjectState& state, std::size_t remaining_completed) {
        if (remaining_completed == 0) return true;
        for (std::size_t i = 0; i < n; ++i) {
          if (used[i]) continue;
          // Real-time precedence: i cannot be next if some unused op's
          // response precedes i's invocation.
          bool blocked = false;
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i || used[j] || !ops[j].completed()) continue;
            if (*ops[j].responded < ops[i].invoked) {
              blocked = true;
              break;
            }
          }
          if (blocked) continue;
          auto next = state.clone();
          const auto got = model.apply(*next, ops[i].op);
          if (ops[i].completed() && got != *ops[i].response) continue;
          used[i] = true;
          const bool ok =
              rec(*next, remaining_completed - (ops[i].completed() ? 1 : 0));
          used[i] = false;
          if (ok) return true;
        }
        return false;
      };
  auto state = model.make_initial_state();
  return rec(*state, completed_left);
}

TEST(CheckerDifferentialTest, MatchesBruteForceOnRandomHistories) {
  RegisterObject model("0");
  Rng rng(2024);
  int linearizable_count = 0;
  int violation_count = 0;
  for (int round = 0; round < 400; ++round) {
    // Random small history: overlapping intervals, writes of small values,
    // reads of possibly-wrong values, occasional pending ops.
    const int n_ops = static_cast<int>(rng.next_in(2, 7));
    std::vector<HistoryOp> ops;
    for (int i = 0; i < n_ops; ++i) {
      HistoryOp op;
      op.process = ProcessId(static_cast<int>(rng.next_below(3)));
      const std::int64_t invoke = rng.next_in(0, 60);
      op.invoked = RealTime::micros(invoke);
      const bool pending = rng.next_bool(0.2);
      if (!pending) {
        op.responded = RealTime::micros(invoke + rng.next_in(1, 40));
      }
      if (rng.next_bool(0.5)) {
        op.op = RegisterObject::write(std::to_string(rng.next_in(0, 2)));
        if (!pending) op.response = "ok";
      } else {
        op.op = RegisterObject::read();
        if (!pending) op.response = std::to_string(rng.next_in(0, 2));
      }
      ops.push_back(op);
    }
    const bool expected = brute_force(model, ops);
    const bool got = check_linearizable(model, ops).linearizable;
    ASSERT_EQ(got, expected) << "divergence at round " << round;
    if (expected) {
      ++linearizable_count;
    } else {
      ++violation_count;
    }
  }
  // The generator must exercise both verdicts meaningfully.
  EXPECT_GT(linearizable_count, 50);
  EXPECT_GT(violation_count, 50);
}

TEST(CheckerDifferentialTest, OrderReturnedIsAValidLinearization) {
  RegisterObject model("0");
  Rng rng(7);
  for (int round = 0; round < 100; ++round) {
    // Generate a history from an actual sequential execution, then jitter
    // the intervals so it stays linearizable.
    std::vector<HistoryOp> ops;
    auto state = model.make_initial_state();
    std::int64_t t = 0;
    for (int i = 0; i < 6; ++i) {
      HistoryOp op;
      op.process = ProcessId(0);
      op.op = rng.next_bool(0.5)
                  ? RegisterObject::write(std::to_string(i))
                  : RegisterObject::read();
      op.response = model.apply(*state, op.op);
      op.invoked = RealTime::micros(t);
      op.responded = RealTime::micros(t + rng.next_in(1, 9));
      t += 10;
      ops.push_back(op);
    }
    const auto result = check_linearizable(model, ops);
    ASSERT_TRUE(result.linearizable);
    ASSERT_EQ(result.order.size(), ops.size());
    // Replay the returned order (indices into invocation-sorted history).
    std::vector<HistoryOp> sorted = ops;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const HistoryOp& a, const HistoryOp& b) {
                       return a.invoked < b.invoked;
                     });
    auto replay = model.make_initial_state();
    for (std::size_t index : result.order) {
      const auto& op = sorted.at(index);
      ASSERT_EQ(model.apply(*replay, op.op), *op.response);
    }
  }
}


// A random kv operation over two keys, size() included.
object::Operation random_kv_op(Rng& rng) {
  const std::string key = rng.next_bool(0.5) ? "a" : "b";
  const std::string value = std::to_string(rng.next_in(1, 2));
  switch (rng.next_below(5)) {
    case 0:
      return KVObject::put(key, value);
    case 1:
      return KVObject::del(key);
    case 2:
      return KVObject::cas(key, value, std::to_string(rng.next_in(1, 2)));
    case 3:
      return KVObject::get(key);
    default:
      return KVObject::size();
  }
}

TEST(CheckerDifferentialTest, KvWithSizeMatchesBruteForce) {
  // size() has no partition label, so every history here takes the
  // unpartitioned search over the whole map, pending ops included.
  KVObject model;
  Rng rng(2718);
  int linearizable_count = 0;
  int violation_count = 0;
  for (int round = 0; round < 600; ++round) {
    const int n_ops = static_cast<int>(rng.next_in(2, 7));
    std::vector<HistoryOp> ops;
    // Responses come from running the ops in generation order, which the
    // random invocation times need not follow; some are then corrupted, so
    // both verdicts occur.
    auto state = model.make_initial_state();
    for (int i = 0; i < n_ops; ++i) {
      HistoryOp op;
      op.process = ProcessId(static_cast<int>(rng.next_below(4)));
      op.op = i == 0 ? KVObject::size() : random_kv_op(rng);
      const std::int64_t invoke = rng.next_in(0, 60);
      op.invoked = RealTime::micros(invoke);
      const object::Response response = model.apply(*state, op.op);
      if (!rng.next_bool(0.2)) {
        op.responded = RealTime::micros(invoke + rng.next_in(1, 40));
        op.response = rng.next_bool(0.2) ? std::to_string(rng.next_in(0, 2))
                                         : response;
      }
      ops.push_back(op);
    }
    const bool expected = brute_force(model, ops);
    const bool got = check_linearizable(model, ops).linearizable;
    ASSERT_EQ(got, expected) << "divergence at round " << round;
    if (expected) {
      ++linearizable_count;
    } else {
      ++violation_count;
    }
  }
  EXPECT_GT(linearizable_count, 100);
  EXPECT_GT(violation_count, 100);
}

// A write-burst-shaped kv history: `n_ops` ops invoked 1-5 ms apart and open
// 10-40 ms each (about nine at once), over four geometrically skewed keys,
// 90% writes with unique values (put 70%, del 15%, cas 15%) and 10% gets,
// plus one size() in the middle, which turns the per-key split off. Each op
// takes effect at a random instant inside its interval, so the history is
// linearizable.
std::vector<HistoryOp> burst_history(std::uint64_t seed, int n_ops = 80) {
  KVObject model;
  Rng rng(seed);
  std::vector<HistoryOp> ops;
  std::vector<std::pair<std::int64_t, std::size_t>> effect;  // (instant, op)
  std::int64_t t = 0;
  for (int i = 0; i < n_ops; ++i) {
    t += rng.next_in(1000, 5000);
    int k = 0;
    while (k < 3 && !rng.next_bool(0.5)) ++k;
    const std::string key = "k" + std::to_string(k);
    const std::string value = "v" + std::to_string(i);
    HistoryOp op;
    op.process = ProcessId(i % 9);
    if (i == n_ops / 2) {
      op.op = KVObject::size();
    } else if (rng.next_bool(0.1)) {
      op.op = KVObject::get(key);
    } else {
      const double kind = rng.next_double();
      op.op = kind < 0.7    ? KVObject::put(key, value)
              : kind < 0.85 ? KVObject::del(key)
                            : KVObject::cas(key, "v" + std::to_string(i - 9),
                                            value);
    }
    const std::int64_t end = t + rng.next_in(10000, 40000);
    op.invoked = RealTime::micros(t);
    op.responded = RealTime::micros(end);
    effect.emplace_back(rng.next_in(t, end), ops.size());
    ops.push_back(op);
  }
  std::sort(effect.begin(), effect.end());
  auto state = model.make_initial_state();
  for (const auto& [instant, index] : effect) {
    ops[index].response = model.apply(*state, ops[index].op);
  }
  return ops;
}

// FNV-1a over a linearization order.
std::uint64_t order_digest(const std::vector<std::size_t>& order) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t index : order) {
    h ^= index;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The first get after the middle of `h` now returns a value nobody wrote.
std::vector<HistoryOp> with_phantom_read(std::vector<HistoryOp> h) {
  for (std::size_t i = h.size() / 2; i < h.size(); ++i) {
    if (h[i].op.kind == "get") {
      h[i].response = "v999";
      return h;
    }
  }
  ADD_FAILURE() << "no get in the second half";
  return h;
}

// The budget counts distinct memoized states, so the smallest `max_states`
// that decides a history is one more than the states the unbounded search
// memoizes. Pinning it pins the search tree's size; pinning the order's
// digest pins the path the search takes to its witness.
TEST(CheckerDifferentialTest, KvBurstSearchTreeIsPinned) {
  struct Pin {
    std::uint64_t seed;
    std::size_t min_budget;
    std::uint64_t order;
  };
  const Pin pins[] = {{1, 356, 0xfc0b6bdeecde5a4fULL},
                      {3, 1137, 0x86724cfe90311457ULL},
                      {6, 81, 0x642a7b6ab0a59b67ULL},
                      {7, 1313, 0x54739d0535de60afULL}};
  KVObject model;
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    const auto h = burst_history(pin.seed);
    const auto full = check_linearizable(model, h);
    ASSERT_TRUE(full.decided);
    ASSERT_TRUE(full.linearizable);
    EXPECT_EQ(full.order.size(), h.size());
    const auto at_pin = check_linearizable(model, h, pin.min_budget);
    EXPECT_TRUE(at_pin.decided);
    EXPECT_TRUE(at_pin.linearizable);
    EXPECT_EQ(at_pin.order, full.order);
    const auto below = check_linearizable(model, h, pin.min_budget - 1);
    EXPECT_FALSE(below.decided);
    EXPECT_FALSE(below.linearizable);
    EXPECT_EQ(order_digest(full.order), pin.order);
  }
}

// A phantom read makes a 40-op burst non-linearizable. The explanation names
// how far the deepest branch got and the first op that could not be placed
// there; the budget that decides the verdict is pinned as above.
TEST(CheckerDifferentialTest, KvBurstExplanationIsPinned) {
  struct Pin {
    std::uint64_t seed;
    std::size_t min_budget;
    std::string progress;
    std::string explanation;
  };
  const Pin pins[] = {
      {8, 18501, "26/40",
       "no linearization; deepest progress 26/40 completed ops; first "
       "unplaceable: p6 get(k2) -> v999 invoked@76731us"},
      {9, 16773, "31/40",
       "no linearization; deepest progress 31/40 completed ops; first "
       "unplaceable: p7 get(k3) -> v999 invoked@84379us"},
  };
  KVObject model;
  for (const Pin& pin : pins) {
    SCOPED_TRACE("seed " + std::to_string(pin.seed));
    const auto h = with_phantom_read(burst_history(pin.seed, 40));
    const auto full = check_linearizable(model, h);
    EXPECT_TRUE(full.decided);
    EXPECT_FALSE(full.linearizable);
    EXPECT_EQ(full.explanation, pin.explanation);
    const auto at_pin = check_linearizable(model, h, pin.min_budget);
    EXPECT_TRUE(at_pin.decided);
    EXPECT_EQ(at_pin.explanation, pin.explanation);
    const auto below = check_linearizable(model, h, pin.min_budget - 1);
    EXPECT_FALSE(below.decided);
    EXPECT_EQ(below.explanation,
              "undecided: search state budget (" +
                  std::to_string(pin.min_budget - 1) +
                  " states) exhausted; deepest progress " + pin.progress +
                  " completed ops");
  }
}

}  // namespace
}  // namespace cht::checker

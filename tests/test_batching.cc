// Batching and the liveness NoOp: RMW operations submitted concurrently are
// committed together; the new-leader NoOp guarantees read liveness even
// when client RMW traffic stops.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/stack_cluster.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using Cluster = harness::StackCluster<core::Replica>;
using harness::CommonConfig;

CommonConfig base_config(std::uint64_t seed) {
  CommonConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  return config;
}

TEST(BatchingTest, ConcurrentSubmissionsShareBatches) {
  Cluster cluster(base_config(61), std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.leader();
  const auto committed_before =
      cluster.replica(leader).metrics().value("batches_committed_as_leader");
  // 50 increments fired simultaneously from all processes.
  for (int i = 0; i < 50; ++i) {
    cluster.submit(i % cluster.n(), object::CounterObject::add(1));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  const auto committed_after =
      cluster.replica(leader).metrics().value("batches_committed_as_leader");
  const auto batches = committed_after - committed_before;
  EXPECT_LT(batches, 25) << "expected batching, got ~1 batch per op";
  EXPECT_GE(batches, 1);
  // All 50 increments applied exactly once.
  cluster.submit(leader, object::CounterObject::value());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  EXPECT_EQ(*cluster.history().ops().back().response, "50");
  // The add() responses must form a permutation of 1..50 (each RMW sees a
  // distinct state: no lost updates, no double-applies).
  std::set<std::string> seen;
  for (const auto& op : cluster.history().ops()) {
    if (op.op.kind == "add") {
      EXPECT_TRUE(seen.insert(*op.response).second)
          << "duplicate add response " << *op.response;
    }
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(BatchingTest, ResponsesMatchBatchOrder) {
  Cluster cluster(base_config(62), std::make_shared<object::CounterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  for (int i = 0; i < 20; ++i) {
    cluster.submit(i % cluster.n(), object::CounterObject::add(1));
    if (i % 5 == 4) cluster.run_for(Duration::millis(30));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(10)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

// The liveness NoOp (paper line 37): a batch Prepared at a follower by a
// leader that dies before committing would otherwise block conflicting
// reads forever once RMW traffic stops; the successor's NoOp commits a
// batch with a number >= every pending batch, unblocking them.
TEST(BatchingTest, NoOpUnblocksReadsAfterLeaderCrash) {
  Cluster cluster(base_config(63), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.leader();
  const int reader = (leader + 1) % cluster.n();
  // Start a write and kill the leader while the Prepare is likely delivered
  // but the Commit is not.
  cluster.submit((leader + 2) % cluster.n(),
                 object::RegisterObject::write("in-flight"));
  cluster.run_for(Duration::millis(12));
  cluster.sim().crash(ProcessId(leader));
  // Issue a conflicting read at the follower; submit NO further RMWs: only
  // the new leader's NoOp (or its recovery commit of the pending batch) can
  // unblock it.
  cluster.submit(reader, object::RegisterObject::read());
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)))
      << "read never completed: NoOp liveness broken";
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(BatchingTest, NoOpCommittedOnQuietLeadershipChange) {
  // Even with zero client traffic, a new leader commits its NoOp so that
  // lease batch numbers advance and reads stay live.
  Cluster cluster(base_config(64), std::make_shared<object::RegisterObject>());
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  const int first = cluster.leader();
  // The first leader's own NoOp commits shortly after it enters steady
  // state.
  ASSERT_TRUE(cluster.sim().run_until(
      [&] { return cluster.replica(first).snapshot().max_known_batch >= 1; },
      cluster.sim().now() + Duration::seconds(5)));
  const BatchNumber before = cluster.replica(first).snapshot().max_known_batch;
  cluster.sim().crash(ProcessId(first));
  int second = -1;
  ASSERT_TRUE(cluster.sim().run_until(
      [&] {
        second = cluster.leader();
        return second >= 0 && second != first;
      },
      cluster.sim().now() + Duration::seconds(30)));
  cluster.run_for(Duration::seconds(1));
  EXPECT_GT(cluster.replica(second).snapshot().max_known_batch, before)
      << "new leader should have committed a fresh NoOp batch";
}

}  // namespace
}  // namespace cht

// Behaviour across GST: before stabilization the network is asynchronous and
// lossy and liveness may be delayed; after GST everything completes and the
// non-blocking-reads guarantees kick in. Safety holds throughout.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "harness/stack_cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"

namespace cht {
namespace {

using Cluster = harness::StackCluster<core::Replica>;
using harness::CommonConfig;

CommonConfig chaotic_config(std::uint64_t seed) {
  CommonConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = Duration::millis(10);
  config.gst = RealTime::zero() + Duration::seconds(2);
  config.pre_gst_loss = 0.15;
  config.pre_gst_delay_max = Duration::millis(300);
  return config;
}

TEST(StabilizationTest, OpsSubmittedDuringChaosEventuallyComplete) {
  Cluster cluster(chaotic_config(41), std::make_shared<object::KVObject>());
  // Submit through the asynchronous period.
  for (int i = 0; i < 10; ++i) {
    cluster.submit(i % cluster.n(),
                   object::KVObject::put("k" + std::to_string(i), "v"));
    cluster.run_for(Duration::millis(150));
  }
  // Everything terminates after stabilization (paper: any operation issued
  // by a correct process eventually terminates).
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(StabilizationTest, ReadsBecomeNonBlockingAfterGst) {
  Cluster cluster(chaotic_config(42), std::make_shared<object::RegisterObject>());
  // Reads during chaos may block...
  cluster.run_for(Duration::millis(500));
  for (int i = 0; i < cluster.n(); ++i) {
    cluster.submit(i, object::RegisterObject::read());
  }
  // ...but after stabilization plus a couple of lease renewals, reads at
  // every process are non-blocking in the absence of conflicting RMWs.
  cluster.run_for(Duration::seconds(4));  // beyond GST
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(30)));
  std::vector<std::int64_t> blocked_before(cluster.n());
  for (int i = 0; i < cluster.n(); ++i) {
    blocked_before[i] = cluster.replica(i).metrics().value("reads_blocked");
  }
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < cluster.n(); ++i) {
      cluster.submit(i, object::RegisterObject::read());
    }
    cluster.run_for(Duration::millis(5));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  for (int i = 0; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).metrics().value("reads_blocked"),
              blocked_before[i])
        << "post-GST read blocked at replica " << i;
  }
}

TEST(StabilizationTest, LinearizableUnderHeavyPreGstLoss) {
  CommonConfig config = chaotic_config(43);
  config.pre_gst_loss = 0.4;
  Cluster cluster(config, std::make_shared<object::KVObject>());
  for (int i = 0; i < 15; ++i) {
    if (i % 3 == 0) {
      cluster.submit(i % cluster.n(), object::KVObject::get("k"));
    } else {
      cluster.submit(i % cluster.n(), object::KVObject::put("k", "v" + std::to_string(i)));
    }
    cluster.run_for(Duration::millis(200));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

TEST(StabilizationTest, PermanentAsynchronyLosesOnlyLiveness) {
  // GST never arrives: liveness is not guaranteed, but whatever completes is
  // correct (the paper's robustness claim for unmet timing assumptions).
  CommonConfig config = chaotic_config(44);
  config.gst = RealTime::max();
  config.pre_gst_loss = 0.5;
  config.pre_gst_delay_max = Duration::seconds(1);
  Cluster cluster(config, std::make_shared<object::KVObject>());
  for (int i = 0; i < 10; ++i) {
    cluster.submit(i % cluster.n(), object::KVObject::put("k", std::to_string(i)));
    cluster.run_for(Duration::millis(300));
  }
  cluster.run_for(Duration::seconds(30));
  // No termination promise — but no wrong results either.
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << result.explanation;
}

}  // namespace
}  // namespace cht

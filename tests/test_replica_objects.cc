// Every object model, run through the real replication protocol with a
// mixed workload and checked for linearizability — exercising each model's
// conflict predicate against real pending batches.
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "common/rng.h"
#include "harness/stack_cluster.h"
#include "object/bank_object.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/lock_object.h"
#include "object/queue_object.h"
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

// Drives `steps` operations produced by `next_op` and checks the history.
void run_and_check(std::shared_ptr<const object::ObjectModel> model,
                   std::uint64_t seed,
                   const std::function<object::Operation(Rng&, int)>& next_op,
                   int steps = 60) {
  Cluster cluster(base_config(seed), model);
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.run_for(Duration::seconds(1));
  Rng rng(seed * 97 + 3);
  for (int step = 0; step < steps; ++step) {
    cluster.submit(static_cast<int>(rng.next_below(5)), next_op(rng, step));
    cluster.run_for(Duration::millis(rng.next_in(2, 25)));
  }
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(60)));
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  EXPECT_TRUE(result.linearizable) << model->name() << ": "
                                   << result.explanation;
  // All replicas converge.
  cluster.run_for(Duration::seconds(1));
  for (int i = 1; i < cluster.n(); ++i) {
    EXPECT_EQ(cluster.replica(i).applied_state().fingerprint(),
              cluster.replica(0).applied_state().fingerprint());
  }
}

TEST(ObjectIntegrationTest, Register) {
  run_and_check(std::make_shared<object::RegisterObject>(), 71,
                [](Rng& rng, int step) -> object::Operation {
                  return rng.next_bool(0.6)
                             ? object::RegisterObject::read()
                             : object::RegisterObject::write(
                                   std::to_string(step));
                });
}

TEST(ObjectIntegrationTest, Counter) {
  run_and_check(std::make_shared<object::CounterObject>(), 72,
                [](Rng& rng, int) -> object::Operation {
                  const double roll = rng.next_double();
                  if (roll < 0.3) return object::CounterObject::value();
                  if (roll < 0.5) return object::CounterObject::parity();
                  return object::CounterObject::add(rng.next_in(-2, 3));
                });
}

TEST(ObjectIntegrationTest, Bank) {
  const std::vector<std::string> accounts = {"alice", "bob", "carol"};
  run_and_check(std::make_shared<object::BankObject>(), 73,
                [accounts](Rng& rng, int) -> object::Operation {
                  const auto& a = accounts[rng.next_below(accounts.size())];
                  const auto& b = accounts[rng.next_below(accounts.size())];
                  const double roll = rng.next_double();
                  if (roll < 0.35) return object::BankObject::balance(a);
                  if (roll < 0.45) return object::BankObject::total();
                  if (roll < 0.75) {
                    return object::BankObject::deposit(a, rng.next_in(1, 50));
                  }
                  return object::BankObject::transfer(a, b, rng.next_in(1, 30));
                });
}

TEST(ObjectIntegrationTest, Lock) {
  run_and_check(std::make_shared<object::LockObject>(), 74,
                [](Rng& rng, int) -> object::Operation {
                  const double roll = rng.next_double();
                  const std::string who =
                      "w" + std::to_string(rng.next_below(3));
                  if (roll < 0.4) return object::LockObject::holder();
                  if (roll < 0.7) return object::LockObject::try_acquire(who);
                  return object::LockObject::release(who);
                });
}

TEST(ObjectIntegrationTest, Queue) {
  run_and_check(std::make_shared<object::QueueObject>(), 75,
                [](Rng& rng, int step) -> object::Operation {
                  const double roll = rng.next_double();
                  if (roll < 0.25) return object::QueueObject::front();
                  if (roll < 0.4) return object::QueueObject::length();
                  if (roll < 0.75) {
                    return object::QueueObject::enqueue(std::to_string(step));
                  }
                  return object::QueueObject::dequeue();
                });
}

TEST(ObjectIntegrationTest, KVWithDeletesAndCas) {
  run_and_check(std::make_shared<object::KVObject>(), 76,
                [](Rng& rng, int step) -> object::Operation {
                  const std::string key(1, static_cast<char>('a' + rng.next_below(3)));
                  const double roll = rng.next_double();
                  if (roll < 0.4) return object::KVObject::get(key);
                  if (roll < 0.5) return object::KVObject::size();
                  if (roll < 0.75) {
                    return object::KVObject::put(key, std::to_string(step));
                  }
                  if (roll < 0.9) return object::KVObject::del(key);
                  return object::KVObject::cas(key, "", std::to_string(step));
                });
}

}  // namespace
}  // namespace cht

// Property-based testing: randomized workloads, crash schedules and network
// chaos, sweeping seeds via TEST_P. After every run we assert the paper's
// invariants and properties:
//   (a) the full history is linearizable;
//   (b) I1 across replicas: agreed, stable batches; no op in two batches;
//   (c) I3: every batch below a committed one is held by a majority;
//   (d) post-GST termination of every operation issued by a correct process;
//   (e) read locality: messages do not scale with reads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>

#include "checker/linearizability.h"
#include "common/rng.h"
#include "harness/stack_cluster.h"
#include "object/bank_object.h"
#include "object/kv_object.h"

namespace cht {
namespace {

using Cluster = harness::StackCluster<core::Replica>;
using harness::CommonConfig;

struct PropertyCase {
  std::uint64_t seed;
  bool chaos;        // pre-GST asynchrony + loss
  bool crash_leader; // crash one leader mid-run
  bool partition;    // temporarily isolate a process mid-run, then heal
  bool flapping;     // toggle a random process's connectivity repeatedly
  double read_fraction;
};

void check_cross_replica_invariants(Cluster& cluster) {
  // I1: all replicas agree on batch contents; no operation id appears in two
  // different batch numbers anywhere in the cluster.
  std::map<BatchNumber, core::Batch> global;
  std::map<OperationId, BatchNumber> op_to_batch;
  for (int i = 0; i < cluster.n(); ++i) {
    for (const auto& [number, ops] : cluster.replica(i).snapshot().batches) {
      auto it = global.find(number);
      if (it == global.end()) {
        global.emplace(number, ops);
      } else {
        ASSERT_EQ(it->second, ops)
            << "I1 violated: replica " << i << " disagrees on batch " << number;
      }
    }
  }
  for (const auto& [number, ops] : global) {
    for (const auto& op : ops) {
      auto [it, inserted] = op_to_batch.try_emplace(op.id, number);
      ASSERT_TRUE(inserted || it->second == number)
          << "I1 violated: " << op.id << " in batches " << it->second
          << " and " << number;
    }
  }
  // I3: if any process has batch j, every i < j is held by a majority.
  BatchNumber max_committed = 0;
  for (const auto& [number, ops] : global) {
    max_committed = std::max(max_committed, number);
  }
  for (BatchNumber i = 1; i < max_committed; ++i) {
    int holders = 0;
    for (int p = 0; p < cluster.n(); ++p) {
      if (cluster.replica(p).snapshot().batches.contains(i)) ++holders;
    }
    ASSERT_GT(holders, cluster.n() / 2)
        << "I3 violated: batch " << i << " held by " << holders << " of "
        << cluster.n();
  }
}

class RandomWorkloadTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RandomWorkloadTest, LinearizableAndInvariantsHold) {
  const PropertyCase param = GetParam();
  CommonConfig config;
  config.n = 5;
  config.seed = param.seed;
  config.delta = Duration::millis(10);
  if (param.chaos) {
    config.gst = RealTime::zero() + Duration::seconds(1);
    config.pre_gst_loss = 0.2;
    config.pre_gst_delay_max = Duration::millis(150);
  }
  Cluster cluster(config, std::make_shared<object::KVObject>());
  Rng rng(param.seed * 7919 + 13);

  const std::vector<std::string> keys = {"a", "b", "c"};
  bool crashed_one = false;
  int isolated = -1;
  for (int step = 0; step < 120; ++step) {
    // Partition injection: cut one random process off for ~20 steps, then
    // heal. (Post-GST partitions violate the stabilization assumption on
    // purpose; safety must hold and liveness must return after healing.)
    if (param.partition && step == 40) {
      isolated = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(cluster.n())));
      cluster.sim().network().set_process_isolated(ProcessId(isolated), true,
                                                   cluster.n());
    }
    if (param.partition && step == 60 && isolated >= 0) {
      cluster.sim().network().set_process_isolated(ProcessId(isolated), false,
                                                   cluster.n());
      isolated = -1;
    }
    const int proc = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(cluster.n())));
    if (cluster.replica(proc).crashed()) continue;
    const std::string& key = keys[rng.next_below(keys.size())];
    if (rng.next_double() < param.read_fraction) {
      cluster.submit(proc, object::KVObject::get(key));
    } else if (rng.next_bool(0.2)) {
      cluster.submit(proc, object::KVObject::cas(key, "", "s" + std::to_string(step)));
    } else {
      cluster.submit(proc, object::KVObject::put(key, "s" + std::to_string(step)));
    }
    // Pre-GST, space submissions out: with loss and retries, operations
    // overlap heavily, and the linearizability check of a deeply concurrent
    // prefix gets exponentially expensive. The chaos is in the network, not
    // in the submission rate.
    const bool pre_gst = param.chaos && cluster.sim().now() < config.gst;
    cluster.run_for(Duration::millis(pre_gst ? rng.next_in(40, 120)
                                             : rng.next_in(1, 30)));
    if (param.crash_leader && !crashed_one && step == 60) {
      const int leader = cluster.leader();
      if (leader >= 0) {
        cluster.sim().crash(ProcessId(leader));
        crashed_one = true;
      }
    }
    if (param.flapping && step % 10 == 5) {
      // Isolate a random process for a few steps: link flapping stresses the
      // retry/reintegration paths far harder than one clean partition. The
      // bursts are kept short so operation latencies stay bounded — the
      // final linearizability check is exponential in the width of the
      // concurrent windows that stalled operations create.
      const int victim = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(cluster.n())));
      if (isolated >= 0) {
        cluster.sim().network().set_process_isolated(ProcessId(isolated),
                                                     false, cluster.n());
      }
      cluster.sim().network().set_process_isolated(ProcessId(victim), true,
                                                   cluster.n());
      isolated = victim;
    }
    if (param.flapping && step % 10 == 9 && isolated >= 0) {
      cluster.sim().network().set_process_isolated(ProcessId(isolated), false,
                                                   cluster.n());
      isolated = -1;
    }
    // Online invariant checking: I1/I3 must hold in *every* reachable
    // state, not only at the end of the run.
    if (step % 20 == 19) check_cross_replica_invariants(cluster);
  }
  if (isolated >= 0) {
    cluster.sim().network().set_process_isolated(ProcessId(isolated), false,
                                                 cluster.n());
  }

  // (d) termination: ops issued by correct (non-crashed) processes complete.
  // Ops issued by the crashed leader before its crash may stay pending.
  const bool quiesced = cluster.await_quiesce(Duration::seconds(120));
  if (!quiesced) {
    for (const auto& op : cluster.history().ops()) {
      if (!op.completed()) {
        ASSERT_TRUE(cluster.replica(op.process.index()).crashed())
            << "op from correct process " << op.process << " never completed";
      }
    }
  }

  // (a) linearizability of everything that happened.
  if (std::getenv("CHT_PROP_TIMING") != nullptr) {
    std::cerr << "[timing] sim done, ops=" << cluster.history().ops().size()
              << " completed=" << cluster.completed() << "\n";
  }
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  ASSERT_TRUE(result.linearizable) << "seed " << param.seed << ": "
                                   << result.explanation;

  // (b) + (c).
  check_cross_replica_invariants(cluster);
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    cases.push_back({seed, false, false, false, false, 0.6});
  }
  for (std::uint64_t seed = 11; seed <= 18; ++seed) {
    cases.push_back({seed, true, false, false, false, 0.5});
  }
  for (std::uint64_t seed = 19; seed <= 26; ++seed) {
    cases.push_back({seed, false, true, false, false, 0.5});
  }
  for (std::uint64_t seed = 27; seed <= 30; ++seed) {
    cases.push_back({seed, true, true, false, false, 0.4});
  }
  for (std::uint64_t seed = 31; seed <= 38; ++seed) {
    cases.push_back({seed, false, false, true, false, 0.5});
  }
  for (std::uint64_t seed = 39; seed <= 42; ++seed) {
    cases.push_back({seed, false, true, true, false, 0.5});
  }
  for (std::uint64_t seed = 43; seed <= 48; ++seed) {
    cases.push_back({seed, false, false, false, true, 0.5});
  }
  // Everything at once: pre-GST chaos, a leader crash, and link flapping.
  for (std::uint64_t seed = 49; seed <= 56; ++seed) {
    cases.push_back({seed, true, true, false, true, 0.5});
  }
  // Read-heavy and write-heavy extremes.
  for (std::uint64_t seed = 57; seed <= 60; ++seed) {
    cases.push_back({seed, false, false, false, false, 0.95});
  }
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    cases.push_back({seed, false, false, false, false, 0.05});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& info) {
                           const auto& p = info.param;
                           std::string name = "seed" + std::to_string(p.seed);
                           if (p.chaos) name += "_chaos";
                           if (p.crash_leader) name += "_crash";
                           if (p.partition) name += "_partition";
                           if (p.flapping) name += "_flapping";
                           return name;
                         });

// Read locality as a property: for any seed, adding 10x reads leaves the
// message count within noise.
class ReadLocalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReadLocalityTest, MessagesIndependentOfReadCount) {
  auto run = [&](int reads_per_step) {
    CommonConfig config;
    config.n = 5;
    config.seed = GetParam();
    config.delta = Duration::millis(10);
    Cluster cluster(config, std::make_shared<object::BankObject>());
    EXPECT_TRUE(cluster.await_leader(Duration::seconds(5)));
    cluster.run_for(Duration::seconds(1));
    const auto before = cluster.sim().network().stats().sent;
    for (int step = 0; step < 20; ++step) {
      cluster.submit(step % cluster.n(),
                     object::BankObject::deposit("acct", 1));
      for (int r = 0; r < reads_per_step; ++r) {
        cluster.submit((step + r) % cluster.n(),
                       object::BankObject::balance("acct"));
      }
      cluster.run_for(Duration::millis(50));
    }
    cluster.await_quiesce(Duration::seconds(30));
    return cluster.sim().network().stats().sent - before;
  };
  const auto with_few = run(1);
  const auto with_many = run(10);
  EXPECT_LT(static_cast<double>(with_many),
            static_cast<double>(with_few) * 1.05)
      << "10x reads must not increase message traffic";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadLocalityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace cht

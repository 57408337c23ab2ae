// Message duplication: the pre-GST network may deliver a message twice.
// Every protocol step must be idempotent (resends are already part of the
// design; duplication exercises the same paths harder).
#include <gtest/gtest.h>

#include <memory>

#include "checker/linearizability.h"
#include "core/replica.h"
#include "harness/stack_cluster.h"
#include "object/kv_object.h"

namespace cht {
namespace {

using Cluster = harness::StackCluster<core::Replica>;
using harness::CommonConfig;

TEST(DuplicationTest, LinearizableUnderDuplication) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    CommonConfig config;
    config.n = 5;
    config.seed = seed;
    config.delta = Duration::millis(10);
    config.gst = RealTime::zero() + Duration::seconds(2);
    config.pre_gst_loss = 0.05;
    sim::SimulationConfig sc = config.to_sim_config();
    sc.network.pre_gst_duplicate_probability = 0.3;
    // Assemble manually to set the duplication probability.
    auto model = std::make_shared<object::KVObject>();
    const auto cc = core::Config::defaults_for(config.delta, config.epsilon);
    sim::Simulation sim(sc);
    for (int i = 0; i < config.n; ++i) {
      sim.add_process(std::make_unique<core::Replica>(model, cc));
    }
    sim.start();

    checker::HistoryRecorder history;
    std::size_t submitted = 0, completed = 0;
    auto submit = [&](int i, object::Operation op) {
      const auto token = history.begin(ProcessId(i), op, sim.now());
      ++submitted;
      auto cb = [&, token](const object::Response& r) {
        history.end(token, r, sim.now());
        ++completed;
      };
      auto& replica = sim.process_as<core::Replica>(ProcessId(i));
      if (model->is_read(op)) {
        replica.submit_read(std::move(op), cb);
      } else {
        replica.submit_rmw(std::move(op), cb);
      }
    };

    for (int step = 0; step < 20; ++step) {
      if (step % 3 == 0) {
        submit(step % config.n, object::KVObject::put("k", std::to_string(step)));
      } else {
        submit(step % config.n, object::KVObject::get("k"));
      }
      sim.run_until(sim.now() + Duration::millis(150));
    }
    const bool done = sim.run_until([&] { return completed == submitted; },
                                    sim.now() + Duration::seconds(60));
    EXPECT_TRUE(done) << "seed " << seed;
    const auto result = checker::check_linearizable(*model, history.ops());
    EXPECT_TRUE(result.linearizable) << "seed " << seed << ": "
                                     << result.explanation;
    // Each committed op appears in exactly one batch everywhere (I1 held
    // under duplication) — asserted internally; verify convergence too.
    sim.run_until(sim.now() + Duration::seconds(2));
    for (int i = 1; i < config.n; ++i) {
      EXPECT_EQ(sim.process_as<core::Replica>(ProcessId(i))
                    .applied_state()
                    .fingerprint(),
                sim.process_as<core::Replica>(ProcessId(0))
                    .applied_state()
                    .fingerprint());
    }
  }
}

TEST(DuplicationTest, RmwRespondsExactlyOnce) {
  CommonConfig config;
  config.n = 5;
  config.seed = 77;
  config.delta = Duration::millis(10);
  config.gst = RealTime::zero() + Duration::seconds(1);
  sim::SimulationConfig sc = config.to_sim_config();
  sc.network.pre_gst_duplicate_probability = 0.5;
  auto model = std::make_shared<object::KVObject>();
  const auto cc = core::Config::defaults_for(config.delta, config.epsilon);
  sim::Simulation sim(sc);
  for (int i = 0; i < config.n; ++i) {
    sim.add_process(std::make_unique<core::Replica>(model, cc));
  }
  sim.start();
  int responses = 0;
  sim.process_as<core::Replica>(ProcessId(1))
      .submit_rmw(object::KVObject::put("k", "v"),
                  [&](const object::Response&) { ++responses; });
  sim.run_until(RealTime::zero() + Duration::seconds(30));
  EXPECT_EQ(responses, 1);
}

}  // namespace
}  // namespace cht

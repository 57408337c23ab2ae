#include "sim/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "harness/stack_cluster.h"
#include "object/register_object.h"

namespace cht {
namespace {

TEST(TraceTest, DisabledByDefaultAndRecordsNothing) {
  sim::Trace trace;
  EXPECT_FALSE(trace.enabled());
  trace.record(RealTime::zero(), ProcessId(0), "x", "y");
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceTest, RecordsWhenEnabled) {
  sim::Trace trace;
  trace.enable();
  trace.record(RealTime::micros(1000), ProcessId(2), "leader.become", "t=5");
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].category, "leader.become");
  EXPECT_EQ(trace.events()[0].process, ProcessId(2));
}

TEST(TraceTest, DumpFiltersAndLimits) {
  sim::Trace trace;
  trace.enable();
  for (int i = 0; i < 5; ++i) {
    trace.record(RealTime::micros(i * 1000), ProcessId(0), "net.send",
                 "m" + std::to_string(i));
    trace.record(RealTime::micros(i * 1000 + 1), ProcessId(1), "batch.commit",
                 "j=" + std::to_string(i));
  }
  auto lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };
  std::ostringstream all_os;
  trace.dump(all_os);
  const std::string all = all_os.str();
  EXPECT_EQ(lines(all), 10);

  std::ostringstream commits_os;
  trace.dump(commits_os, 0, "batch.");
  const std::string commits = commits_os.str();
  EXPECT_EQ(lines(commits), 5);
  EXPECT_EQ(commits.find("net.send"), std::string::npos);

  std::ostringstream last2_os;
  trace.dump(last2_os, 2, "batch.");
  const std::string last2 = last2_os.str();
  EXPECT_EQ(lines(last2), 2);
  EXPECT_NE(last2.find("j=4"), std::string::npos);
  EXPECT_EQ(last2.find("j=1"), std::string::npos);
}

TEST(TraceTest, ClusterProtocolEventsRecorded) {
  harness::CommonConfig config;
  config.n = 5;
  config.seed = 4;
  config.delta = Duration::millis(10);
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::RegisterObject>());
  cluster.sim().trace().enable();
  ASSERT_TRUE(cluster.await_leader(Duration::seconds(5)));
  cluster.submit(1, object::RegisterObject::write("x"));
  ASSERT_TRUE(cluster.await_quiesce(Duration::seconds(5)));
  int become = 0, commit = 0, grant = 0;
  for (const auto& event : cluster.sim().trace().events()) {
    if (event.category == "leader.become") ++become;
    if (event.category == "batch.commit") ++commit;
    if (event.category == "lease.grant") ++grant;
  }
  EXPECT_GE(become, 1);
  EXPECT_GE(commit, 2);  // the NoOp batch + our write
  EXPECT_GE(grant, 1);
  // Crash events come from the simulation itself.
  cluster.sim().crash(ProcessId(0));
  EXPECT_EQ(cluster.sim().trace().events().back().category, "crash");
}

}  // namespace
}  // namespace cht

// Read scaling: the paper's second motivation for replication (Section 1)
// — "a process that requires the object can access its local copy" — only
// pays off if reads really are local. Because they are, aggregate read
// capacity grows with the number of replicas, while leader-forwarded reads
// bottleneck on one process.
//
// We run a fixed per-replica read rate and count how many reads the cluster
// completes within a simulated second, plus the messages each design puts
// on the network, as n grows.
#include <iostream>
#include <memory>

#include "harness/stack_cluster.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "object/kv_object.h"

namespace {

using namespace cht;  // NOLINT: example brevity

struct Outcome {
  std::int64_t reads_completed;
  std::int64_t messages;
  double read_p99_ms;
};

Outcome run(int n, core::ReadPolicy policy) {
  harness::CommonConfig config;
  config.n = n;
  config.seed = 1234;
  config.delta = Duration::millis(10);
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::KVObject>(),
      core::ConfigOverrides{.read_policy = policy});
  cluster.await_leader(Duration::seconds(5));
  cluster.submit(0, object::KVObject::put("page", "content"));
  cluster.await_quiesce(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));

  const auto msgs_before = cluster.sim().network().stats().sent;
  const auto reads_before = cluster.completed();
  // 100 reads per replica, spread over one simulated second.
  for (int burst = 0; burst < 100; ++burst) {
    for (int i = 0; i < n; ++i) {
      cluster.submit(i, object::KVObject::get("page"));
    }
    cluster.run_for(Duration::millis(10));
  }
  cluster.await_quiesce(Duration::seconds(30));

  Outcome out;
  out.reads_completed =
      static_cast<std::int64_t>(cluster.completed() - reads_before);
  out.messages =
      static_cast<std::int64_t>(cluster.sim().network().stats().sent -
                                msgs_before);
  metrics::LatencyRecorder lat;
  for (const auto& op : cluster.history().ops()) {
    if (op.completed() && op.op.kind == "get") lat.record(op.latency());
  }
  out.read_p99_ms = lat.p99().to_millis_f();
  return out;
}

}  // namespace

int main() {
  std::cout << "Read scaling: 100 reads/replica over 1 s, delta = 10 ms\n\n";
  metrics::Table table({"n", "local reads done", "local msgs", "local p99 (ms)",
                        "forwarded reads done", "fwd msgs", "fwd p99 (ms)"});
  for (int n : {3, 5, 7, 9}) {
    const Outcome local = run(n, core::ReadPolicy::kLocalLease);
    const Outcome fwd = run(n, core::ReadPolicy::kLeaderForward);
    table.add_row({std::to_string(n), std::to_string(local.reads_completed),
                   std::to_string(local.messages),
                   metrics::Table::num(local.read_p99_ms, 2),
                   std::to_string(fwd.reads_completed),
                   std::to_string(fwd.messages),
                   metrics::Table::num(fwd.read_p99_ms, 2)});
  }
  table.print(std::cout);
  std::cout << "\nEvery added replica adds read capacity at zero message\n"
               "cost with local reads; with forwarding, message load grows\n"
               "with reads and concentrates on the leader.\n";
  return 0;
}

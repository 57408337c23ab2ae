// A replicated lock service (the paper's motivating "generic shared
// resource, such as ... a lock"; compare Chubby in the Megastore
// discussion, Section 5).
//
// Worker processes contend for a lock with try_acquire/release (RMW
// operations) while monitors watch the holder with local reads. Shows that
// the lock is linearizable: never two holders, and the holder() reads are
// consistent with the acquire/release history.
#include <iostream>
#include <memory>

#include "checker/linearizability.h"
#include "harness/stack_cluster.h"
#include "object/lock_object.h"

int main() {
  using namespace cht;  // NOLINT: example brevity

  harness::CommonConfig config;
  config.n = 5;
  config.seed = 77;
  config.delta = Duration::millis(10);
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::LockObject>());
  cluster.await_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));

  // Each process repeatedly tries to take the lock; on success it holds it
  // for 30 ms, then releases. Monitors read the holder continuously.
  int acquisitions = 0;
  int contentions = 0;
  for (int round = 0; round < 30; ++round) {
    for (int p = 0; p < cluster.n(); ++p) {
      const std::string who = "worker-" + std::to_string(p);
      cluster.submit(
          p, object::LockObject::try_acquire(who),
          [&, p, who](const object::Response& response) {
            if (response == "ok") {
              ++acquisitions;
              // Hold briefly, then release.
              cluster.replica(p).schedule_after(
                  Duration::millis(30), [&cluster, p, who] {
                    cluster.submit(p, object::LockObject::release(who));
                  });
            } else {
              ++contentions;
            }
          });
      // Monitor reads (local, free).
      cluster.submit((p + 2) % cluster.n(), object::LockObject::holder());
      cluster.run_for(Duration::millis(7));
    }
  }
  cluster.run_for(Duration::seconds(3));
  cluster.await_quiesce(Duration::seconds(30));

  std::cout << "lock service over " << cluster.n() << " replicas\n";
  std::cout << "  successful acquisitions: " << acquisitions << "\n";
  std::cout << "  contended attempts:      " << contentions << "\n";

  // The recorded reads + the per-callback RMWs must form a linearizable
  // lock history (note: the monitor reads are in the recorded history).
  const auto result =
      checker::check_linearizable(cluster.model(), cluster.history().ops());
  std::cout << "  holder() reads linearizable with the lock protocol: "
            << (result.linearizable ? "yes" : "NO") << "\n";

  // Observed holders from the reads.
  std::map<std::string, int> holder_counts;
  for (const auto& op : cluster.history().ops()) {
    if (op.completed() && op.op.kind == "holder" && !op.response->empty()) {
      ++holder_counts[*op.response];
    }
  }
  std::cout << "  holders observed by monitors:";
  for (const auto& [who, count] : holder_counts) {
    std::cout << " " << who << "(x" << count << ")";
  }
  std::cout << "\n";
  return result.linearizable ? 0 : 1;
}

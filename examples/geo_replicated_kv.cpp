// Geo-replicated key-value store: the read-dominated workload that
// motivates the paper (Section 1: leverage replication for performance,
// not just fault tolerance).
//
// Five replicas with wide-area delays (delta = 40 ms). A read-heavy
// workload (95% reads) runs twice: once on the paper's algorithm (local
// lease reads) and once with every read forwarded to the leader. The
// printout contrasts read latency and message traffic.
#include <iostream>
#include <memory>

#include "harness/stack_cluster.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "object/kv_object.h"

namespace {

using namespace cht;  // NOLINT: example brevity

struct RunResult {
  metrics::LatencyRecorder read_latency;
  metrics::LatencyRecorder write_latency;
  std::int64_t messages;
};

RunResult run(core::ReadPolicy policy) {
  harness::CommonConfig config;
  config.n = 5;
  config.seed = 2024;
  config.delta = Duration::millis(40);  // wide-area delay bound
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::KVObject>(),
      core::ConfigOverrides{.read_policy = policy});
  cluster.await_leader(Duration::seconds(10));
  cluster.run_for(Duration::seconds(2));

  Rng rng(7);
  const auto msgs_before = cluster.sim().network().stats().sent;
  for (int step = 0; step < 200; ++step) {
    if (step % 20 == 0) {
      cluster.submit(static_cast<int>(rng.next_below(5)),
                     object::KVObject::put("profile-" + std::to_string(step % 3),
                                           "v" + std::to_string(step)));
    }
    for (int r = 0; r < 19; ++r) {
      cluster.submit(static_cast<int>(rng.next_below(5)),
                     object::KVObject::get("profile-" + std::to_string(r % 3)));
    }
    cluster.run_for(Duration::millis(80));
  }
  cluster.await_quiesce(Duration::seconds(120));

  RunResult result;
  result.messages = cluster.sim().network().stats().sent - msgs_before;
  for (const auto& op : cluster.history().ops()) {
    if (!op.completed()) continue;
    if (cluster.model().is_read(op.op)) {
      result.read_latency.record(op.latency());
    } else {
      result.write_latency.record(op.latency());
    }
  }
  return result;
}

}  // namespace

int main() {
  std::cout << "Geo-replicated KV store, delta = 40 ms, 95% reads\n\n";
  const RunResult ours = run(core::ReadPolicy::kLocalLease);
  const RunResult forwarded = run(core::ReadPolicy::kLeaderForward);

  metrics::Table table({"metric", "local lease reads (paper)",
                        "leader-forwarded reads"});
  auto ms = [](Duration d) { return metrics::Table::num(d.to_millis_f(), 1); };
  table.add_row({"reads completed",
                 std::to_string(ours.read_latency.count()),
                 std::to_string(forwarded.read_latency.count())});
  table.add_row({"read p50 (ms)", ms(ours.read_latency.p50()),
                 ms(forwarded.read_latency.p50())});
  table.add_row({"read p99 (ms)", ms(ours.read_latency.p99()),
                 ms(forwarded.read_latency.p99())});
  table.add_row({"write p50 (ms)", ms(ours.write_latency.p50()),
                 ms(forwarded.write_latency.p50())});
  table.add_row({"total messages", std::to_string(ours.messages),
                 std::to_string(forwarded.messages)});
  table.print(std::cout);
  std::cout << "\nLocal lease reads keep the wide-area network out of the\n"
               "read path entirely; forwarding pays a round trip per read\n"
               "and multiplies message traffic.\n";
  return 0;
}

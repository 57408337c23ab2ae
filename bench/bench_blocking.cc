// E2 + E3 — Non-blocking reads and the 3*delta blocking bound (paper S3).
//
// Claims:
//   (E2) After the system stabilizes, reads at the leader never block; reads
//        at any other process block only when a *conflicting* RMW operation
//        is pending there.
//   (E3) A read that does block does so for at most 3*delta local time.
//
// We sweep the conflicting-write rate and report, per process class
// (leader / followers), the fraction of reads that blocked and the maximum
// blocking duration, as a multiple of delta. A second table sweeps delta
// itself to show the 3*delta scaling.
#include <iostream>
#include <memory>

#include "common/bench_util.h"
#include "common/experiment.h"
#include "object/kv_object.h"

namespace cht::bench {
namespace {

struct BlockingResult {
  std::int64_t leader_reads = 0;
  std::int64_t leader_blocked = 0;
  std::int64_t follower_reads = 0;
  std::int64_t follower_blocked = 0;
  Duration follower_max_block = Duration::zero();
};

BlockingResult run(ExperimentResult& result, Duration delta, Duration write_gap,
                   bool conflicting, std::uint64_t seed,
                   const std::string& observe_label = "") {
  harness::CommonConfig config;
  config.n = 5;
  config.seed = seed;
  config.delta = delta;
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::KVObject>());
  cluster.await_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  const int leader = cluster.leader();

  struct ReadCounts {
    std::int64_t completed;
    std::int64_t blocked;
  };
  std::vector<ReadCounts> before(static_cast<std::size_t>(cluster.n()));
  for (int i = 0; i < cluster.n(); ++i) {
    auto& m = cluster.replica(i).metrics();
    before[static_cast<std::size_t>(i)] = {m.value("reads_completed"),
                                           m.value("reads_blocked")};
  }

  const std::string read_key = "hot";
  const std::string write_key = conflicting ? "hot" : "cold";
  for (int step = 0; step < result.scaled(300, 40); ++step) {
    cluster.submit((leader + 1) % cluster.n(),
                   object::KVObject::put(write_key, std::to_string(step)));
    // Reads land while the write is (likely) still pending.
    cluster.run_for(delta / 2);
    for (int i = 0; i < cluster.n(); ++i) {
      cluster.submit(i, object::KVObject::get(read_key));
    }
    cluster.run_for(write_gap);
  }
  cluster.await_quiesce(Duration::seconds(60));

  BlockingResult out;
  for (int i = 0; i < cluster.n(); ++i) {
    auto& m = cluster.replica(i).metrics();
    const auto& b = before[static_cast<std::size_t>(i)];
    const auto reads = m.value("reads_completed") - b.completed;
    const auto blocked = m.value("reads_blocked") - b.blocked;
    if (i == leader) {
      out.leader_reads += reads;
      out.leader_blocked += blocked;
    } else {
      out.follower_reads += reads;
      out.follower_blocked += blocked;
      const auto* blocks = m.find_histogram("span.read.block_us");
      if (blocks != nullptr) {
        out.follower_max_block =
            std::max(out.follower_max_block, Duration::micros(blocks->max()));
      }
    }
  }
  if (!observe_label.empty()) result.observe(observe_label, cluster);
  return out;
}

std::string pct(std::int64_t part, std::int64_t whole) {
  if (whole == 0) return "-";
  return metrics::Table::num(100.0 * part / whole, 1) + "%";
}

}  // namespace
}  // namespace cht::bench

int main(int argc, char** argv) {
  using namespace cht;
  using namespace cht::bench;

  const BenchArgs args = parse_bench_args(argc, argv);
  ExperimentResult result("blocking", args);

  result.begin(
      "E2: which reads block (post-GST)",
      "Claim (paper S3): leader reads never block; follower reads block only\n"
      "when a pending RMW *conflicts*; non-conflicting writes never block\n"
      "reads. Workload: continuous writes, reads at every process.");
  {
    const Duration delta = Duration::millis(10);
    result.columns({"writes", "leader blocked", "follower blocked",
                    "follower max block (x delta)"});
    for (const bool conflicting : {true, false}) {
      const auto r = run(result, delta, Duration::millis(15), conflicting, 7,
                         conflicting ? "conflicting" : "non-conflicting");
      result.row(
          {conflicting ? "conflicting (same key)" : "non-conflicting (other key)",
           pct(r.leader_blocked, r.leader_reads),
           pct(r.follower_blocked, r.follower_reads),
           metrics::Table::num(r.follower_max_block.to_micros() /
                                   static_cast<double>(delta.to_micros()),
                               2)});
      const std::string prefix = conflicting ? "conflicting_" : "nonconflicting_";
      result.metric(prefix + "leader_blocked", r.leader_blocked);
      result.metric(prefix + "follower_blocked", r.follower_blocked);
      result.metric(prefix + "follower_max_block_us",
                    r.follower_max_block.to_micros());
    }
    result.end();
  }

  result.begin(
      "E3: blocked reads are bounded by 3*delta",
      "Claim (paper S3): a read that blocks does so for at most 3*delta.\n"
      "Sweep delta; the max observed block must stay below 3*delta.");
  {
    result.columns({"delta (ms)", "max block (ms)", "max block / delta",
                    "bound 3*delta respected"});
    const std::vector<std::int64_t> sweep =
        result.smoke() ? std::vector<std::int64_t>{2, 50}
                       : std::vector<std::int64_t>{2, 5, 10, 20, 50};
    bool all_respected = true;
    for (const std::int64_t delta_ms : sweep) {
      const Duration delta = Duration::millis(delta_ms);
      Duration worst = Duration::zero();
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const auto r =
            run(result, delta, Duration::millis(delta_ms * 3 / 2), true, seed);
        worst = std::max(worst, r.follower_max_block);
      }
      const bool respected = worst <= 3 * delta;
      all_respected = all_respected && respected;
      result.row({metrics::Table::num(static_cast<std::int64_t>(delta_ms)),
                  ms2(worst),
                  metrics::Table::num(worst.to_micros() /
                                          static_cast<double>(delta.to_micros()),
                                      2),
                  respected ? "yes" : "NO"});
      result.metric("max_block_us_delta" + std::to_string(delta_ms),
                    worst.to_micros());
    }
    result.metric("bound_3delta_respected",
                  static_cast<std::int64_t>(all_respected ? 1 : 0));
    result.note(
        "Expected shape: leader 0% blocked; follower blocking only in\n"
        "the conflicting row; max block / delta <= 3 at every delta.");
    result.end();
  }
  return result.finish();
}

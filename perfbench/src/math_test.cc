// Tests for the benchmark's arithmetic on synthetic inputs. Exits 1 on the
// first failed check; run.py runs it before every measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (false)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using chtbench::JoinedOp;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile_rule() {
  using chtbench::percentile;
  CHECK(chtbench::samples_needed(0.50) == 20);
  CHECK(chtbench::samples_needed(0.90) == 100);
  CHECK(chtbench::samples_needed(0.99) == 1000);

  const auto p50 = percentile(one_to(20), 0.50);
  CHECK(p50.supported && near(p50.value, 10) && p50.samples == 20);
  const auto short50 = percentile(one_to(19), 0.50);
  CHECK(!short50.supported && short50.value == 0 && short50.samples == 19);

  const auto p90 = percentile(one_to(100), 0.90);
  CHECK(p90.supported && near(p90.value, 90) && p90.samples == 100);
  CHECK(!percentile(one_to(99), 0.90).supported);

  const auto p99 = percentile(one_to(1000), 0.99);
  CHECK(p99.supported && near(p99.value, 990));
  CHECK(!percentile(one_to(999), 0.99).supported);
  CHECK(!percentile({}, 0.5).supported);

  CHECK(chtbench::percentile_of_histogram(7, 100, 0.90).supported);
  CHECK(!chtbench::percentile_of_histogram(7, 99, 0.90).supported);
  CHECK(chtbench::percentile_of_histogram(7, 99, 0.90).samples == 99);
}

void test_outage() {
  using chtbench::longest_outage_us;
  std::vector<JoinedOp> ops = {
      {false, 0, 10},   // A
      {false, 5, 30},   // B: open across A's completion
      {false, 40, 45},  // C: alone
      {true, 0, 1000},  // a read: ignored
  };
  // Stretches: [0,10], [10,30], [40,45].
  CHECK(longest_outage_us(ops, 2000) == 20);
  // An RMW that never completes keeps its stretch open to the run's end.
  ops.push_back({false, 50, std::nullopt});
  CHECK(longest_outage_us(ops, 100) == 50);
  // Completion and submission at one instant: the new stretch starts there.
  CHECK(longest_outage_us({{false, 0, 10}, {false, 10, 25}}, 99) == 15);
  // A zero-latency RMW is no outage.
  CHECK(longest_outage_us({{false, 7, 7}}, 99) == 0);
  CHECK(longest_outage_us({}, 99) == 0);
}

void test_latency_join() {
  using chtbench::join_submissions;
  using chtbench::Recorded;
  using chtbench::Submission;
  const std::vector<Submission> submitted = {
      {5, true, 0, "get(k0)"},
      {6, false, 1, "put(k1,v1)"},
      {5, false, 2, "put(k0,v2)"},
      {5, true, 3, "get(k0)"},  // never dispatched
  };
  // Dispatch order differs from submission order across clients.
  const std::vector<Recorded> recorded = {
      {6, false, "put(k1,v1)", 40},
      {5, true, "get(k0)", 9},
      {5, false, "put(k0,v2)", std::nullopt},
  };
  const auto joined = join_submissions(submitted, recorded);
  CHECK(joined.has_value());
  if (joined) {
    CHECK(joined->size() == 4);
    CHECK((*joined)[0].submit_us == 0 && (*joined)[0].done_us == 9);
    CHECK((*joined)[1].submit_us == 1 && (*joined)[1].done_us == 40);
    CHECK(!(*joined)[2].done_us && !(*joined)[3].done_us);
    CHECK((*joined)[3].read && !(*joined)[1].read);
  }
  CHECK(!join_submissions(submitted, {{7, true, "get(k0)", 1}}));
  CHECK(!join_submissions(submitted, {{5, true, "get(k9)", 1}}));
  CHECK(!join_submissions(submitted, {{6, true, "put(k1,v1)", 1}}));
  CHECK(!join_submissions({}, {{5, true, "get(k0)", 1}}));
}

void test_latency_from_submit_time() {
  // Twenty reads, each submitted at 1000*i us and answered i ms later: the
  // latency counts from submission, whatever the history's invocation time.
  chtbench::SeedSample s;
  for (int i = 1; i <= 20; ++i) {
    s.ops.push_back({true, 1000 * i, 1000 * i + 1000 * i});
  }
  s.submitted = 20;
  const auto sum = chtbench::summarize_sim({s});
  CHECK(sum.read_ms_p50.supported && near(sum.read_ms_p50.value, 10));
  CHECK(!sum.read_ms_p99.supported && sum.read_ms_p99.samples == 20);
  CHECK(!sum.rmw_ms_p50.supported && sum.rmw_ms_p50.samples == 0);
}

void test_ratio_bases() {
  chtbench::SeedSample ok;
  ok.submitted = 4;
  ok.ops = {
      {true, 0, 1}, {true, 0, 2}, {false, 0, 3}, {false, 0, std::nullopt}};
  ok.sent = 30;
  ok.fsyncs = 6;
  const auto sum = chtbench::summarize_sim({ok});
  CHECK(sum.ops_completed == 3 && sum.rmws_completed == 1);
  CHECK(near(sum.msgs_per_op, 10));    // per completed op, not submitted
  CHECK(near(sum.fsyncs_per_rmw, 6));  // per completed RMW

  chtbench::SeedSample bad;
  bad.violated = true;
  bad.submitted = 5;
  bad.ops = {{true, 0, 1}, {true, 0, 1}, {true, 0, 1}, {true, 0, 1},
             {true, 0, 1}};
  chtbench::SeedSample undecided = ok;
  undecided.undecided = true;
  chtbench::FailureSummary f;
  chtbench::add_failures(f, ok);
  chtbench::add_failures(f, bad);
  CHECK(f.seeds == 2 && f.seeds_failed == 1);
  CHECK(f.ops_submitted == 9 && f.ops_failed == 6);  // 1 pending + 5
  CHECK(near(f.ops_failed_ratio(), 6.0 / 9));
  CHECK(near(f.seeds_failed_ratio(), 0.5));
  chtbench::add_failures(f, undecided);  // undecided is a failure, not a pass
  CHECK(f.seeds_failed == 2 && f.ops_failed == 10);

  CHECK(near(chtbench::ratio(1, 0), 0));
}

void test_batch_throughput() {
  // 21 batches of 10 seeds at 50 ms, one at 100 ms per seed and one with a
  // single 2 s seed: the median batch runs 20 seeds/s.
  std::vector<double> wall(10 * 23, 50);
  for (std::size_t i = 10; i < 20; ++i) wall[i] = 100;
  wall[100] = 2000;
  wall.push_back(1e6);  // a trailing partial batch is dropped
  const auto w = chtbench::summarize_wall(wall);
  CHECK(w.seeds_per_s.supported && w.seeds_per_s.samples == 23);
  CHECK(near(w.seeds_per_s.value, 20));
  CHECK(!chtbench::summarize_wall(std::vector<double>(19 * 10, 50))
             .seeds_per_s.supported);
  CHECK(w.seed_wall_ms_p90.supported && near(w.seed_wall_ms_p90.value, 50));
}

void test_calibration() {
  // The host slows 2x halfway through: seeds and kernel alike. Normalized
  // times stay flat; an outlier kernel timing is outvoted by its window.
  std::vector<double> seeds, kernel;
  for (int i = 0; i < 20; ++i) {
    const double speed = i < 10 ? 1 : 2;
    seeds.push_back(10 * speed);
    kernel.push_back(i == 3 ? 50 : 0.5 * speed);
  }
  const auto norm = chtbench::normalize_by_calibration(seeds, kernel, 1.0, 2);
  CHECK(norm.size() == 20);
  for (int i = 0; i < 20; ++i) {
    if (i >= 8 && i <= 11) continue;  // windows straddling the change
    CHECK(near(norm[static_cast<std::size_t>(i)], 20));
  }
  CHECK(chtbench::normalize_by_calibration({}, {}, 1.0, 2).empty());

  // Seeds 0 and 1 ran three and two times, seed 2 never.
  const auto med =
      chtbench::per_seed_median({0, 1, 0, 1, 0}, {5, 2, 1, 4, 9}, 3);
  CHECK(med.size() == 3 && near(med[0], 5) && near(med[1], 3) && med[2] == 0);
}

void test_self_time() {
  using chtbench::Span;
  const std::vector<Span> spans = {
      {"seed", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},    // overlaps a
      {"c", 90, 120, 0, 1},   // runs past its parent
      {"a.x", 12, 14, 1, 1},  // grandchild: not the root's direct child
      {"seed", 200, 210, -1, 2},
  };
  const auto self = chtbench::self_times_ns(spans);
  CHECK(self.size() == spans.size());
  CHECK(self[0] == 100 - 40 - 10);
  CHECK(self[1] == 18);
  CHECK(self[2] == 30 && self[3] == 30 && self[4] == 2);
  CHECK(self[5] == 10);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_outage();
  test_latency_join();
  test_latency_from_submit_time();
  test_ratio_bases();
  test_batch_throughput();
  test_calibration();
  test_self_time();
  if (failures > 0) {
    std::fprintf(stderr, "chtbench_math_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("chtbench_math_test: all checks passed\n");
  return 0;
}

// The benchmark's arithmetic, kept apart from the runs so math_test.cc can
// feed it synthetic inputs: the percentile rule, the latency join from driver
// submit times onto the recorded history, the outage window, the per-seed
// ratios and their bases, and span self time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace chtbench {

// --- Percentiles ------------------------------------------------------------

// A nearest-rank percentile that is only reported when at least ten samples
// lie beyond it: p50 needs 20 samples, p90 needs 100, p99 needs 1000.
struct Percentile {
  double value = 0;
  std::size_t samples = 0;
  bool supported = false;  // false: too few samples; value is then 0
};

// Smallest sample count for which quantile q (0 < q < 1) has ten samples
// beyond its rank.
std::size_t samples_needed(double q);

Percentile percentile(std::vector<double> values, double q);

// The same rule over a pre-bucketed distribution (a metrics::Histogram):
// `value_at_q` is the histogram's own percentile, `count` its sample count.
Percentile percentile_of_histogram(double value_at_q, std::int64_t count,
                                   double q);

// --- Latency join -----------------------------------------------------------

// One ClusterAdapter::submit call, stamped with the simulated time the driver
// handed the op over. `client` is the history process the op will be
// recorded under; `op` is its printable form, used to check the join.
struct Submission {
  int client = 0;
  bool read = false;
  std::int64_t at_us = 0;
  std::string op;
};

// One history entry, in recording order.
struct Recorded {
  int client = 0;
  bool read = false;
  std::string op;
  std::optional<std::int64_t> responded_us;
};

// An op timed from its submission; done_us empty = never completed.
struct JoinedOp {
  bool read = false;
  std::int64_t submit_us = 0;
  std::optional<std::int64_t> done_us;
};

// Each client serves its ops in submission order, and the history records an
// op when the client dispatches it, so the k-th submission to a client is
// that client's k-th history entry. Submissions past a client's last history
// entry were never dispatched and come back incomplete. Returns nullopt if
// the two sides disagree (a history entry with no submission, or a
// different op), which means the join rule no longer holds.
std::optional<std::vector<JoinedOp>> join_submissions(
    const std::vector<Submission>& submitted,
    const std::vector<Recorded>& recorded);

// --- Outage -----------------------------------------------------------------

// The longest simulated stretch during which at least one RMW was
// outstanding and none completed. A stretch starts when the first RMW of an
// idle period is submitted or when an RMW completes with others still open,
// and ends at the next completion; RMWs that never complete keep the last
// stretch open until `run_end_us`. Reads are ignored. 0 if no RMW ran.
std::int64_t longest_outage_us(const std::vector<JoinedOp>& ops,
                               std::int64_t run_end_us);

// --- Per-seed samples and the end-to-end summary ----------------------------

// What one seed contributes to the simulated-time and failure metrics.
struct SeedSample {
  bool violated = false;   // any invariant violation
  bool undecided = false;  // the linearizability checker ran out of budget
  std::size_t submitted = 0;
  std::vector<JoinedOp> ops;
  std::int64_t run_end_us = 0;
  std::int64_t sent = 0;    // Network::stats().sent, all message types
  std::int64_t fsyncs = 0;  // summed over every replica's StableStorage
};

bool seed_failed(const SeedSample& s);

struct SimSummary {
  Percentile read_ms_p50, read_ms_p99, rmw_ms_p50, rmw_ms_p99;
  Percentile outage_ms_p90;  // over seeds
  std::size_t ops_completed = 0;
  std::size_t rmws_completed = 0;
  double msgs_per_op = 0;     // sends / completed ops
  double fsyncs_per_rmw = 0;  // fsyncs / completed RMWs
};

SimSummary summarize_sim(const std::vector<SeedSample>& seeds);

struct FailureSummary {
  std::size_t seeds = 0;
  std::size_t seeds_failed = 0;  // violated or undecided
  std::size_t ops_submitted = 0;
  // Ops never completed, plus every op of a failed seed (counted once).
  std::size_t ops_failed = 0;
  double seeds_failed_ratio() const;
  double ops_failed_ratio() const;
};

// Accumulates one seed into `into`.
void add_failures(FailureSummary& into, const SeedSample& s);

// Consecutive seeds per throughput batch.
constexpr std::size_t kBatchSeeds = 10;

struct WallSummary {
  // Median over consecutive batches of kBatchSeeds seeds (a trailing partial
  // batch is dropped) of batch seeds / batch wall time. A median, because a
  // rare seed can cost a hundred typical ones (a hard linearizability
  // search), which would swing a plain total from one seed set to the next.
  Percentile seeds_per_s;
  Percentile seed_wall_ms_p50, seed_wall_ms_p90;
};

WallSummary summarize_wall(const std::vector<double>& seed_wall_ms);

// Per seed 0 .. seeds-1, the median of the times of its runs (run i ran
// seed index[i]); 0 for a seed that never ran.
std::vector<double> per_seed_median(const std::vector<std::uint64_t>& index,
                                    const std::vector<double>& ms,
                                    std::size_t seeds);

// Expresses run i's wall time at the nominal host speed:
// ms[i] * nominal_ms / m, where m is the median calibration time over runs
// i - half_window .. i + half_window (clipped to the runs there are).
std::vector<double> normalize_by_calibration(
    const std::vector<double>& ms, const std::vector<double>& calibration_ms,
    double nominal_ms, std::size_t half_window);

// num / den, or 0 when den is 0.
double ratio(double num, double den);

// --- Spans ------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the same vector, -1 for a root
  std::uint64_t seed = 0;
};

// Per span: its duration minus the part of its interval that the union of
// its direct children covers.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

// 64-bit FNV-1a, folded over strings (the seed-set fingerprint digest).
std::uint64_t fnv1a(std::uint64_t hash, const std::string& s);
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace chtbench

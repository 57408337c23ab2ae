#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace chtbench {
namespace {

constexpr std::size_t kBeyond = 10;

// 1-based nearest rank of quantile q among n samples.
std::size_t rank_of(double q, std::size_t n) {
  // The epsilon keeps q*n that is an integer in exact arithmetic (0.9 * 100)
  // from rounding up past it.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::max<std::size_t>(1, static_cast<std::size_t>(r));
}

bool supports(double q, std::size_t n) {
  return n > 0 && n - rank_of(q, n) >= kBeyond;
}

}  // namespace

std::size_t samples_needed(double q) {
  std::size_t n = 1;
  while (!supports(q, n)) ++n;
  return n;
}

Percentile percentile(std::vector<double> values, double q) {
  Percentile p;
  p.samples = values.size();
  if (!supports(q, values.size())) return p;
  const std::size_t k = rank_of(q, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  p.value = values[k];
  p.supported = true;
  return p;
}

Percentile percentile_of_histogram(double value_at_q, std::int64_t count,
                                   double q) {
  Percentile p;
  p.samples = count > 0 ? static_cast<std::size_t>(count) : 0;
  if (!supports(q, p.samples)) return p;
  p.value = value_at_q;
  p.supported = true;
  return p;
}

std::optional<std::vector<JoinedOp>> join_submissions(
    const std::vector<Submission>& submitted,
    const std::vector<Recorded>& recorded) {
  std::map<int, std::vector<std::size_t>> by_client;
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    by_client[submitted[i].client].push_back(i);
  }
  std::vector<JoinedOp> joined(submitted.size());
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    joined[i].read = submitted[i].read;
    joined[i].submit_us = submitted[i].at_us;
  }
  std::map<int, std::size_t> next;  // per client: history entries consumed
  for (const Recorded& r : recorded) {
    const auto it = by_client.find(r.client);
    if (it == by_client.end()) return std::nullopt;
    std::size_t& k = next[r.client];
    if (k >= it->second.size()) return std::nullopt;
    const std::size_t i = it->second[k++];
    if (submitted[i].read != r.read || submitted[i].op != r.op) {
      return std::nullopt;
    }
    joined[i].done_us = r.responded_us;
  }
  return joined;
}

std::int64_t longest_outage_us(const std::vector<JoinedOp>& ops,
                               std::int64_t run_end_us) {
  // Per instant: RMWs submitted and RMWs completed.
  std::map<std::int64_t, std::pair<int, int>> events;
  for (const JoinedOp& op : ops) {
    if (op.read) continue;
    ++events[op.submit_us].first;
    if (op.done_us) ++events[*op.done_us].second;
  }
  std::int64_t longest = 0;
  std::int64_t open = 0;
  std::int64_t stretch_start = 0;
  for (const auto& [at, counts] : events) {
    if (open == 0 && counts.first > 0) stretch_start = at;
    open += counts.first;
    if (counts.second > 0) {
      longest = std::max(longest, at - stretch_start);
      open -= counts.second;
      stretch_start = at;
    }
  }
  if (open > 0) longest = std::max(longest, run_end_us - stretch_start);
  return longest;
}

bool seed_failed(const SeedSample& s) { return s.violated || s.undecided; }

SimSummary summarize_sim(const std::vector<SeedSample>& seeds) {
  SimSummary out;
  std::vector<double> read_ms, rmw_ms, outage_ms;
  std::int64_t sent = 0, fsyncs = 0;
  for (const SeedSample& s : seeds) {
    for (const JoinedOp& op : s.ops) {
      if (!op.done_us) continue;
      const double ms = static_cast<double>(*op.done_us - op.submit_us) / 1e3;
      (op.read ? read_ms : rmw_ms).push_back(ms);
    }
    outage_ms.push_back(
        static_cast<double>(longest_outage_us(s.ops, s.run_end_us)) / 1e3);
    sent += s.sent;
    fsyncs += s.fsyncs;
  }
  out.ops_completed = read_ms.size() + rmw_ms.size();
  out.rmws_completed = rmw_ms.size();
  out.msgs_per_op = ratio(static_cast<double>(sent),
                          static_cast<double>(out.ops_completed));
  out.fsyncs_per_rmw = ratio(static_cast<double>(fsyncs),
                             static_cast<double>(out.rmws_completed));
  out.read_ms_p50 = percentile(read_ms, 0.50);
  out.read_ms_p99 = percentile(read_ms, 0.99);
  out.rmw_ms_p50 = percentile(rmw_ms, 0.50);
  out.rmw_ms_p99 = percentile(std::move(rmw_ms), 0.99);
  out.outage_ms_p90 = percentile(std::move(outage_ms), 0.90);
  return out;
}

double FailureSummary::seeds_failed_ratio() const {
  return ratio(static_cast<double>(seeds_failed), static_cast<double>(seeds));
}

double FailureSummary::ops_failed_ratio() const {
  return ratio(static_cast<double>(ops_failed),
               static_cast<double>(ops_submitted));
}

void add_failures(FailureSummary& into, const SeedSample& s) {
  ++into.seeds;
  into.ops_submitted += s.submitted;
  if (seed_failed(s)) {
    ++into.seeds_failed;
    into.ops_failed += s.submitted;
    return;
  }
  std::size_t done = 0;
  for (const JoinedOp& op : s.ops) {
    if (op.done_us) ++done;
  }
  into.ops_failed += s.submitted - std::min(done, s.submitted);
}

WallSummary summarize_wall(const std::vector<double>& seed_wall_ms) {
  WallSummary out;
  std::vector<double> batch_rates;
  for (std::size_t i = 0; i + kBatchSeeds <= seed_wall_ms.size();
       i += kBatchSeeds) {
    double batch_ms = 0;
    for (std::size_t j = i; j < i + kBatchSeeds; ++j) {
      batch_ms += seed_wall_ms[j];
    }
    batch_rates.push_back(
        ratio(static_cast<double>(kBatchSeeds), batch_ms / 1e3));
  }
  out.seeds_per_s = percentile(std::move(batch_rates), 0.50);
  out.seed_wall_ms_p50 = percentile(seed_wall_ms, 0.50);
  out.seed_wall_ms_p90 = percentile(seed_wall_ms, 0.90);
  return out;
}

std::vector<double> per_seed_median(const std::vector<std::uint64_t>& index,
                                    const std::vector<double>& ms,
                                    std::size_t seeds) {
  std::vector<std::vector<double>> runs(seeds);
  for (std::size_t i = 0; i < index.size() && i < ms.size(); ++i) {
    if (index[i] < seeds) runs[index[i]].push_back(ms[i]);
  }
  std::vector<double> out(seeds, 0);
  for (std::size_t s = 0; s < seeds; ++s) {
    auto& v = runs[s];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    out[s] = v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
  }
  return out;
}

std::vector<double> normalize_by_calibration(
    const std::vector<double>& ms, const std::vector<double>& calibration_ms,
    double nominal_ms, std::size_t half_window) {
  std::vector<double> out(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const std::size_t lo = i > half_window ? i - half_window : 0;
    const std::size_t hi = std::min(calibration_ms.size(), i + half_window + 1);
    std::vector<double> window(calibration_ms.begin() + static_cast<long>(lo),
                               calibration_ms.begin() + static_cast<long>(hi));
    std::nth_element(window.begin(),
                     window.begin() + static_cast<long>(window.size() / 2),
                     window.end());
    out[i] = ratio(ms[i] * nominal_ms, window[window.size() / 2]);
  }
  return out;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::uint64_t fnv1a(std::uint64_t hash, const std::string& s) {
  for (unsigned char c : s) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace chtbench

#include "driver.h"

#include <iomanip>
#include <memory>
#include <sstream>

#include "chaos/adapter.h"
#include "chaos/invariants.h"
#include "chaos/nemesis.h"
#include "chaos/workload.h"
#include "common/rng.h"

namespace chtbench {
namespace {

using cht::Duration;
using cht::RealTime;
namespace chaos = cht::chaos;

// Copied from chaos/sweep.cc. A change there shows up as a history or
// fingerprint mismatch on the first traced seed.
constexpr std::uint64_t kNemesisStream = 0x6e656d;     // "nem"
constexpr std::uint64_t kWorkloadStream = 0x776f726b;  // "work"
constexpr std::uint64_t kDriverStream = 0x64727631;    // "drv1"
constexpr Duration kSettleSlack = Duration::seconds(2);
constexpr std::size_t kTraceTail = 40;

}  // namespace

TracedSeed run_traced(const chaos::RunSpec& spec, Tracer& tracer,
                      cht::metrics::Registry& merged) {
  TracedSeed out;
  Tracer::Scope seed_span(tracer, "seed");

  std::unique_ptr<chaos::ClusterAdapter> adapter;
  {
    Tracer::Scope s(tracer, "harness.make_adapter");
    adapter = chaos::make_adapter(spec);
  }
  chaos::ClusterAdapter& cluster = *adapter;
  cht::sim::Simulation& sim = cluster.sim();
  sim.trace().enable(/*include_network=*/false);

  // ClusterAdapter::run_for(d), one counted event at a time.
  const auto step_for = [&](Duration d) {
    Tracer::Scope s(tracer, "sim.step");
    const RealTime deadline = sim.now() + d;
    auto& queue = sim.queue();
    while (!queue.empty() && queue.next_event_time() <= deadline) {
      sim.step();
      ++out.driver_events;
    }
  };

  {
    const int nemesis_span = tracer.begin("chaos.nemesis");
    chaos::Nemesis nemesis(
        cluster, chaos::nemesis_profile(spec.profile, spec.delta(),
                                        spec.epsilon()),
        chaos::derive_seed(spec.seed, kNemesisStream));
    tracer.end(nemesis_span);
    chaos::WorkloadGen workload(spec,
                                chaos::derive_seed(spec.seed, kWorkloadStream));
    cht::Rng driver(chaos::derive_seed(spec.seed, kDriverStream));
    {
      Tracer::Scope s(tracer, "chaos.nemesis");
      nemesis.arm(Duration::millis((spec.op_gap_max_ms * 3 + 1) * spec.ops) +
                  kSettleSlack);
    }
    const auto live_inflight = [&cluster] {
      std::size_t open = 0;
      for (const auto& op : cluster.history().ops()) {
        if (op.completed()) continue;
        if (cluster.crashed(op.process.index())) continue;
        if (cluster.sim().crashed_at_or_after(op.process, op.invoked)) continue;
        ++open;
      }
      return open;
    };
    for (int i = 0; i < spec.ops; ++i) {
      const int process = static_cast<int>(
          driver.next_below(static_cast<std::uint64_t>(spec.n)));
      cht::object::Operation op;
      {
        Tracer::Scope s(tracer, "chaos.workload");
        op = workload.next();
      }
      for (int guard = 0;
           live_inflight() >= static_cast<std::size_t>(spec.max_inflight) &&
           guard < 400;
           ++guard) {
        const RealTime before = sim.now();
        step_for(Duration::millis(spec.op_gap_max_ms));
        out.stall_us += (sim.now() - before).to_micros();
      }
      const bool pre_gst = sim.now() < sim.network().config().gst;
      if (spec.client_path || !cluster.crashed(process)) {
        Tracer::Scope s(tracer, "harness.submit");
        cluster.submit(process, op);
      }
      const std::int64_t gap =
          driver.next_in(spec.op_gap_min_ms, spec.op_gap_max_ms);
      step_for(Duration::millis(pre_gst ? gap * 3 : gap));
    }
    const RealTime heal_time = sim.now();
    {
      Tracer::Scope s(tracer, "chaos.nemesis");
      nemesis.stop_and_heal();
    }
    bool quiesced = false;
    {
      Tracer::Scope s(tracer, "harness.await_quiesce");
      quiesced =
          cluster.await_quiesce(Duration::seconds(spec.quiesce_timeout_s));
    }
    step_for(kSettleSlack);

    const chaos::NemesisProfile profile =
        chaos::nemesis_profile(spec.profile, spec.delta(), spec.epsilon());
    chaos::ExposureInput exposure;
    exposure.clock_guard = spec.clock_guard;
    exposure.delta = spec.delta();
    exposure.epsilon = spec.epsilon();
    exposure.skew_max = profile.clock_skew_max;
    if (!nemesis.skew_events().empty()) {
      exposure.first_skew = nemesis.skew_events().front().at;
      exposure.heal_time = heal_time;
    }
    chaos::InvariantReport report;
    {
      Tracer::Scope s(tracer, "checker");
      report = chaos::check_invariants(
          cluster, profile, quiesced,
          spec.check_budget > 0 ? static_cast<std::size_t>(spec.check_budget)
                                : 0,
          exposure);
    }
    out.undecided = !report.checker_decided;
    out.crashes = nemesis.crashes();
    out.restarts = nemesis.restarts();

    // What run_one assembles into its RunResult, at the same cost.
    {
      Tracer::Scope s(tracer, "chaos.result");
      out.completed = cluster.completed();
      out.leadership_changes = cluster.leadership_changes();
      std::vector<std::string> schedule = nemesis.schedule_log();
      std::vector<std::vector<cht::core::ClockSkewGuard::Transition>> guards;
      for (int i = 0; i < cluster.n(); ++i) {
        guards.push_back(cluster.guard_transitions_of(i));
      }
      std::vector<std::string> trace_tail;
      const auto& events = sim.trace().events();
      const std::size_t start =
          events.size() > kTraceTail ? events.size() - kTraceTail : 0;
      for (std::size_t i = start; i < events.size(); ++i) {
        std::ostringstream os;
        os << events[i].at.to_millis_f() << "ms " << events[i].process << " "
           << events[i].category;
        if (!events[i].detail.empty()) os << " " << events[i].detail;
        trace_tail.push_back(os.str());
      }
      std::uint64_t hash = kFnvBasis;
      for (const auto& op : cluster.history().ops()) {
        std::ostringstream line;
        line << op.process << " " << op.op << " @" << op.invoked.to_millis_f()
             << "ms";
        std::ostringstream key;
        key << op.process << '|' << op.op << '|' << op.invoked.to_micros()
            << '|';
        if (op.completed()) {
          line << " -> \"" << *op.response << "\" @"
               << op.responded->to_millis_f() << "ms";
          key << op.responded->to_micros() << '|' << *op.response;
          if (!cluster.model().is_read(op.op)) ++out.rmws_completed;
        } else {
          line << " -> <pending>";
          key << "pending";
        }
        out.history.push_back(line.str());
        hash = fnv1a(hash, key.str());
      }
      hash = fnv1a(hash, std::to_string(sim.now().to_micros()));
      for (const auto& v : report.violations) hash = fnv1a(hash, v);
      std::ostringstream fp;
      fp << std::hex << std::setw(16) << std::setfill('0') << hash;
      out.fingerprint = fp.str();
    }
  }

  {
    Tracer::Scope s(tracer, "bench.collect");
    out.sim_end_us = sim.now().to_micros();
    const auto& stats = sim.network().stats();
    out.sent = stats.sent;
    out.dropped = stats.dropped;
    out.sent_by_type = stats.sent_by_type;
    for (int i = 0; i < cluster.n(); ++i) {
      const auto& storage = sim.storage(cht::ProcessId(i));
      out.sync_stall_us += storage.sync_stall_us();
      for (const auto& [width, count] : storage.flush_widths()) {
        out.flush_width_sum += static_cast<std::int64_t>(width) * count;
        out.flush_width_count += count;
      }
    }
    cluster.merge_metrics_into(merged);
  }
  {
    Tracer::Scope s(tracer, "harness.teardown");
    adapter.reset();
  }
  return out;
}

}  // namespace chtbench

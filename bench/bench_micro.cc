// Micro benchmarks (google-benchmark): substrate costs underlying the
// experiment harnesses — object apply, event-queue throughput, simulated
// cluster event rate, and linearizability checking.
//
// Unlike the stock BENCHMARK_MAIN(), the main() below understands the common
// bench flags (--smoke, --out=) and renders results through ExperimentResult,
// so this target emits the same BENCH_micro.json artifact schema as the
// experiment benches. Unrecognized flags are forwarded to google-benchmark
// (e.g. --benchmark_filter=...).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "checker/linearizability.h"
#include "common/experiment.h"
#include "harness/stack_cluster.h"
#include "object/kv_object.h"
#include "object/register_object.h"
#include "sim/event_queue.h"

namespace {

using namespace cht;  // NOLINT: bench-local convenience

void BM_ObjectApplyKV(benchmark::State& state) {
  object::KVObject model;
  auto obj = model.make_initial_state();
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.apply(*obj, object::KVObject::put("k" + std::to_string(i % 64),
                                                "v")));
    ++i;
  }
}
BENCHMARK(BM_ObjectApplyKV);

void BM_EventQueueScheduleStep(benchmark::State& state) {
  sim::EventQueue queue;
  std::int64_t fired = 0;
  for (auto _ : state) {
    queue.schedule(queue.now() + Duration::micros(1), [&fired] { ++fired; });
    queue.step();
  }
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleStep);

void BM_SimulatedClusterSecond(benchmark::State& state) {
  // Cost of simulating one second of a quiet 5-process cluster (heartbeats,
  // supports, lease renewals).
  for (auto _ : state) {
    harness::CommonConfig config;
    config.n = static_cast<int>(state.range(0));
    harness::StackCluster<core::Replica> cluster(
        config, std::make_shared<object::RegisterObject>());
    cluster.run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(cluster.sim().network().stats().sent);
  }
}
BENCHMARK(BM_SimulatedClusterSecond)->Arg(3)->Arg(5)->Arg(9);

void BM_LinearizabilityChecker(benchmark::State& state) {
  // Sequential register history of `range` ops: checker fast path.
  const std::int64_t ops = state.range(0);
  object::RegisterObject model;
  std::vector<checker::HistoryOp> history;
  for (std::int64_t i = 0; i < ops; ++i) {
    checker::HistoryOp op;
    op.process = ProcessId(0);
    const bool write = i % 2 == 0;
    op.op = write ? object::RegisterObject::write(std::to_string(i))
                  : object::RegisterObject::read();
    op.invoked = RealTime::zero() + Duration::micros(10 * i);
    op.responded = op.invoked + Duration::micros(5);
    op.response = write ? "ok" : std::to_string(i - 1);
    history.push_back(op);
  }
  for (auto _ : state) {
    auto result = checker::check_linearizable(model, history);
    benchmark::DoNotOptimize(result.linearizable);
  }
}
BENCHMARK(BM_LinearizabilityChecker)->Arg(100)->Arg(1000);

void BM_FullProtocolWriteThroughput(benchmark::State& state) {
  // End-to-end protocol cost: committed writes per wall-second through the
  // full stack (leader batching, majority round, lease gate) on a quiet
  // post-GST cluster.
  harness::CommonConfig config;
  config.n = 5;
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::RegisterObject>());
  cluster.await_leader(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  std::int64_t writes = 0;
  for (auto _ : state) {
    cluster.submit(static_cast<int>(writes % 5),
                   object::RegisterObject::write(std::to_string(writes)));
    cluster.await_quiesce(Duration::seconds(10));
    ++writes;
  }
  state.SetItemsProcessed(writes);
}
BENCHMARK(BM_FullProtocolWriteThroughput);

void BM_FullProtocolLocalRead(benchmark::State& state) {
  harness::CommonConfig config;
  config.n = 5;
  harness::StackCluster<core::Replica> cluster(
      config, std::make_shared<object::RegisterObject>());
  cluster.await_leader(Duration::seconds(5));
  cluster.submit(0, object::RegisterObject::write("v"));
  cluster.await_quiesce(Duration::seconds(5));
  cluster.run_for(Duration::seconds(1));
  std::int64_t reads = 0;
  for (auto _ : state) {
    cluster.submit(static_cast<int>(reads % 5), object::RegisterObject::read());
    ++reads;
  }
  cluster.await_quiesce(Duration::seconds(5));
  state.SetItemsProcessed(reads);
}
BENCHMARK(BM_FullProtocolLocalRead);

void BM_CheckerConcurrentWindow(benchmark::State& state) {
  // Checker cost as the concurrent-window width grows: `width` fully
  // overlapping writes followed by a read.
  const std::int64_t width = state.range(0);
  object::RegisterObject model("0");
  std::vector<checker::HistoryOp> history;
  for (std::int64_t i = 0; i < width; ++i) {
    checker::HistoryOp op;
    op.process = ProcessId(static_cast<int>(i % 5));
    op.op = object::RegisterObject::write(std::to_string(i));
    op.invoked = RealTime::zero();
    op.responded = RealTime::zero() + Duration::millis(100);
    op.response = "ok";
    history.push_back(op);
  }
  checker::HistoryOp read;
  read.process = ProcessId(0);
  read.op = object::RegisterObject::read();
  read.invoked = RealTime::zero() + Duration::millis(200);
  read.responded = read.invoked + Duration::millis(1);
  read.response = std::to_string(width - 1);
  history.push_back(read);
  for (auto _ : state) {
    auto result = checker::check_linearizable(model, history);
    benchmark::DoNotOptimize(result.linearizable);
  }
}
BENCHMARK(BM_CheckerConcurrentWindow)->Arg(4)->Arg(8)->Arg(12);

// Collects per-benchmark runs into the shared ExperimentResult (table rows +
// named metrics); console rendering is left to the builder's table printer.
class ResultCollector : public benchmark::BenchmarkReporter {
 public:
  explicit ResultCollector(cht::bench::ExperimentResult& result)
      : result_(result) {}

  bool ReportContext(const Context& context) override {
    result_.metric("cpus", static_cast<std::int64_t>(context.cpu_info.num_cpus));
    return true;
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      const double real_ns = run.real_accumulated_time / iters * 1e9;
      const double cpu_ns = run.cpu_accumulated_time / iters * 1e9;
      result_.row({name,
                   metrics::Table::num(static_cast<std::int64_t>(run.iterations)),
                   metrics::Table::num(real_ns, 1),
                   metrics::Table::num(cpu_ns, 1)});
      result_.metric(name + ".real_time_ns", real_ns);
      result_.metric(name + ".cpu_time_ns", cpu_ns);
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        result_.metric(name + ".items_per_second",
                       static_cast<double>(items->second.value));
      }
    }
  }

 private:
  cht::bench::ExperimentResult& result_;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out;
  std::vector<char*> fwd_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else {
      fwd_argv.push_back(argv[i]);
    }
  }
  // google-benchmark 1.7 expects a bare double for min_time (no "s" suffix).
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) fwd_argv.push_back(min_time.data());
  int fwd_argc = static_cast<int>(fwd_argv.size());
  benchmark::Initialize(&fwd_argc, fwd_argv.data());
  if (benchmark::ReportUnrecognizedArguments(fwd_argc, fwd_argv.data())) {
    return 2;
  }

  cht::bench::ExperimentResult result("micro", out, smoke);
  result.begin("micro: substrate costs (google-benchmark)",
               "Object apply, event-queue throughput, full-stack simulated\n"
               "cluster rates, and linearizability-checker scaling.");
  result.columns({"benchmark", "iterations", "real ns/iter", "cpu ns/iter"});
  ResultCollector collector(result);
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();
  result.end();
  return result.finish();
}

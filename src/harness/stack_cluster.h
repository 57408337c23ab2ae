// Test/benchmark harness: builds a cluster of one protocol stack's replicas
// on the simulator, drives client operations, and records a real-time
// history for the linearizability checker. One class template serves every
// stack; what differs between them lives in harness::StackTraits<R>
// (stack_traits.h). Instantiated for core::Replica, raft::RaftReplica and
// vr::VrReplica in stack_cluster.cc.
#pragma once

#include <memory>

#include "checker/history.h"
#include "client/client.h"
#include "harness/common_config.h"
#include "harness/stack_traits.h"
#include "metrics/registry.h"
#include "object/object.h"
#include "sim/simulation.h"

namespace cht::harness {

template <class R>
class StackCluster {
 public:
  using Traits = StackTraits<R>;
  using Config = typename Traits::Config;
  using Extra = typename Traits::Extra;

  // `extra` is the stack's one input beyond CommonConfig: the chtread
  // experiment's deviations from the derived core::Config (read policy,
  // commit gate, lease timing, ...), Raft's read mode, nothing for VR. It is
  // kept for introspection: harnesses print/serialize it into artifacts.
  StackCluster(CommonConfig config,
               std::shared_ptr<const object::ObjectModel> model,
               Extra extra = {});

  sim::Simulation& sim() { return sim_; }
  int n() const { return config_.n; }
  R& replica(int i) { return sim_.process_as<R>(ProcessId(i)); }
  const R& replica(int i) const { return sim_.process_as<R>(ProcessId(i)); }
  bool crashed(int i) const { return sim_.process(ProcessId(i)).crashed(); }
  const object::ObjectModel& model() const { return *model_; }
  checker::HistoryRecorder& history() { return history_; }
  const CommonConfig& config() const { return config_; }
  const Config& stack_config() const { return stack_config_; }
  const Extra& extra() const { return extra_; }

  // Merges all replicas' (and clients', when enabled) registries
  // (name-matched) plus per-slot storage counters into `out`, giving one
  // cluster-wide observability view.
  void merge_metrics_into(metrics::Registry& out);

  // Submits an operation via process i, recording it in the history. The
  // optional callback also receives the response (after recording). With
  // config.client_path the operation instead travels through networked
  // client i and the history records the client's ProcessId and session
  // OperationId.
  void submit(int i, object::Operation op, Callback callback = nullptr);

  // The networked clients (valid indices: 0 .. n - 1, with
  // config().client_path). They are added after the replicas, so they never
  // enter quorum math; client j's home replica is j, spreading the
  // local-read fast path.
  client::Client& client(int j) {
    return sim_.process_as<client::Client>(ProcessId(config_.n + j));
  }
  bool client_path() const { return config_.client_path; }

  // Power-cycles crashed process i back up: builds a fresh replica over the
  // same model/config and hands it to Simulation::restart, which reattaches
  // it to slot i's surviving StableStorage and calls on_restart() (storage
  // replay, or VR's nonce recovery protocol).
  void restart(int i);

  // Runs the simulation for `d` of real time.
  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  // Runs until every submitted operation has completed, or the deadline.
  // Returns true on full completion.
  bool await_quiesce(Duration timeout);

  // Index of the live leader in the highest epoch (lowest index on a tie),
  // or -1: the steady leader (chtread), the highest-term leader (Raft), the
  // normal-status primary of the highest view (VR).
  int leader();
  // Runs until leader() finds one. True on success.
  bool await_leader(Duration timeout);

  std::size_t completed() const { return completed_; }
  std::size_t submitted() const { return submitted_; }

 private:
  CommonConfig config_;
  std::shared_ptr<const object::ObjectModel> model_;
  Extra extra_;
  Config stack_config_;
  sim::Simulation sim_;
  checker::HistoryRecorder history_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
};

extern template class StackCluster<core::Replica>;
extern template class StackCluster<raft::RaftReplica>;
extern template class StackCluster<vr::VrReplica>;

}  // namespace cht::harness

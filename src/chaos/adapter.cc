#include "chaos/adapter.h"

#include <utility>

#include "chaos/invariants.h"
#include "common/assert.h"
#include "harness/stack_cluster.h"
#include "object/bank_object.h"
#include "object/counter_object.h"
#include "object/kv_object.h"
#include "object/lock_object.h"
#include "object/queue_object.h"

namespace cht::chaos {
namespace {

harness::CommonConfig cluster_config(const RunSpec& spec) {
  harness::CommonConfig config;
  config.n = spec.n;
  config.seed = spec.seed;
  config.delta = spec.delta();
  config.epsilon = spec.epsilon();
  config.gst = spec.gst();
  config.pre_gst_loss = spec.pre_gst_loss;
  config.storage.sync_latency = Duration::micros(spec.sync_latency_us);
  config.storage.unsynced_key_loss = spec.unsynced_key_loss;
  config.storage.group_commit = spec.group_commit;
  // One networked client per replica slot: the driver's submit(i, op) then
  // maps 1:1 onto client i, whose home replica is i.
  config.clients = spec.client_path ? spec.n : 0;
  config.clock_guard = spec.clock_guard;
  return config;
}

// One adapter for every stack: StackCluster<R> does the driving, and the
// per-stack differences come from harness::StackTraits<R>.
template <class R>
class StackAdapter final : public ClusterAdapter {
  using Traits = harness::StackTraits<R>;
  // A vector of entries (chtread) or a span into the live log (Raft, VR).
  using Committed = decltype(Traits::committed(std::declval<R&>()));

 public:
  StackAdapter(const RunSpec& spec,
               std::shared_ptr<const object::ObjectModel> model,
               typename Traits::Extra extra = {})
      : name_(spec.protocol),
        cluster_(cluster_config(spec), std::move(model), extra) {}

  const std::string& protocol() const override { return name_; }
  sim::Simulation& sim() override { return cluster_.sim(); }
  int n() const override { return cluster_.n(); }
  const object::ObjectModel& model() const override { return cluster_.model(); }
  checker::HistoryRecorder& history() override { return cluster_.history(); }
  void submit(int process, object::Operation op) override {
    cluster_.submit(process, std::move(op));
  }
  bool crashed(int process) const override {
    return process < n() && cluster_.crashed(process);  // clients never crash
  }
  void restart(int process) override { cluster_.restart(process); }
  bool recovering(int process) const override {
    return process < n() && !cluster_.crashed(process) &&
           Traits::recovering(cluster_.replica(process));
  }
  std::vector<OperationId> committed_op_ids_of(int replica) override {
    return write_ids(Traits::committed(cluster_.replica(replica)));
  }
  std::vector<OperationId> durable_op_ids_of(int replica) override {
    R& r = cluster_.replica(replica);
    if constexpr (requires { Traits::durable(r); }) {
      return write_ids(Traits::durable(r));
    } else {
      return write_ids(Traits::committed(r));
    }
  }
  std::vector<core::ClockSkewGuard::Transition> guard_transitions_of(
      int replica) override {
    return Traits::guard_transitions(cluster_.replica(replica));
  }
  int leader() override { return cluster_.leader(); }
  bool await_quiesce(Duration timeout) override {
    return cluster_.await_quiesce(timeout);
  }
  std::size_t submitted() const override { return cluster_.submitted(); }
  std::size_t completed() const override { return cluster_.completed(); }

  std::vector<std::string> protocol_invariants() override {
    std::vector<ReplicaView<Committed>> views(n());
    for (int i = 0; i < n(); ++i) {
      if (cluster_.crashed(i)) continue;
      R& r = cluster_.replica(i);
      views[i].live = true;
      views[i].leader = Traits::is_leader(r);
      views[i].epoch = Traits::epoch(r);
      views[i].committed = Traits::committed(r);
    }
    return protocol_violations(name_, Traits::kEpochName, views);
  }

  std::int64_t leadership_changes() override {
    std::int64_t total = 0;
    for (int i = 0; i < n(); ++i) {
      total += Traits::leadership_changes(cluster_.replica(i));
    }
    return total;
  }

  void merge_metrics_into(metrics::Registry& out) override {
    cluster_.merge_metrics_into(out);
  }

 private:
  // Ids of the non-read operations in `entries`, in order.
  template <class Entries>
  std::vector<OperationId> write_ids(const Entries& entries) const {
    std::vector<OperationId> ids;
    for (const auto& entry : entries) {
      for (const auto& rec : Traits::ops(entry)) {
        if (!cluster_.model().is_read(rec.op)) ids.push_back(rec.id);
      }
    }
    return ids;
  }

  std::string name_;
  harness::StackCluster<R> cluster_;
};

}  // namespace

const std::vector<std::string>& known_protocols() {
  static const std::vector<std::string> kProtocols = {"chtread", "raft",
                                                      "raft-lease", "vr"};
  return kProtocols;
}

const std::vector<std::string>& known_objects() {
  static const std::vector<std::string> kObjects = {"kv", "counter", "bank",
                                                    "queue", "lock"};
  return kObjects;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): independent streams per component.
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::shared_ptr<const object::ObjectModel> make_object_model(
    const std::string& name) {
  if (name == "kv") return std::make_shared<object::KVObject>();
  if (name == "counter") return std::make_shared<object::CounterObject>();
  if (name == "bank") return std::make_shared<object::BankObject>();
  if (name == "queue") return std::make_shared<object::QueueObject>();
  if (name == "lock") return std::make_shared<object::LockObject>();
  CHT_ASSERT(false, "unknown object model");
  return nullptr;
}

std::unique_ptr<ClusterAdapter> make_adapter(const RunSpec& spec) {
  auto model = make_object_model(spec.object);
  if (spec.protocol == "chtread") {
    return std::make_unique<StackAdapter<core::Replica>>(spec,
                                                         std::move(model));
  }
  if (spec.protocol == "raft" || spec.protocol == "raft-lease") {
    return std::make_unique<StackAdapter<raft::RaftReplica>>(
        spec, std::move(model),
        spec.protocol == "raft" ? raft::ReadMode::kReadIndex
                                : raft::ReadMode::kLeaderLease);
  }
  if (spec.protocol == "vr") {
    return std::make_unique<StackAdapter<vr::VrReplica>>(spec,
                                                         std::move(model));
  }
  CHT_ASSERT(false, "unknown protocol");
  return nullptr;
}

}  // namespace cht::chaos

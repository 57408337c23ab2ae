#include "harness/stack_cluster.h"

namespace cht::harness {

template <class R>
StackCluster<R>::StackCluster(CommonConfig config,
                              std::shared_ptr<const object::ObjectModel> model,
                              Extra extra)
    : config_(config),
      model_(std::move(model)),
      extra_(extra),
      stack_config_(Traits::make_config(config_, extra_)),
      sim_(config_.to_sim_config()) {
  for (int i = 0; i < config_.n; ++i) {
    sim_.add_process(std::make_unique<R>(model_, stack_config_));
  }
  if (client_path()) {
    for (int j = 0; j < config_.n; ++j) {
      sim_.add_client(std::make_unique<client::Client>(
          j, client::ClientConfig{.delta = config_.delta}));
    }
  }
  sim_.start();
}

template <class R>
void StackCluster<R>::merge_metrics_into(metrics::Registry& out) {
  for (int i = 0; i < config_.n; ++i) {
    out.merge_from(replica(i).metrics());
    // Storage lives beside the replica (it survives incarnations), so its
    // fsync count is merged here rather than in the replica registry.
    const sim::StableStorage& storage = sim_.storage(ProcessId(i));
    out.add("fsyncs", storage.fsyncs());
    out.add("sync_stall_us", storage.sync_stall_us());
    // Batch sizes of completed flushes: how wide group commit actually ran.
    metrics::Histogram& widths = out.histogram("storage.flush_width");
    for (const auto& [width, count] : storage.flush_widths()) {
      for (std::int64_t c = 0; c < count; ++c) {
        widths.record(static_cast<std::int64_t>(width));
      }
    }
  }
  if (client_path()) {
    for (int j = 0; j < config_.n; ++j) out.merge_from(client(j).metrics());
  }
}

template <class R>
void StackCluster<R>::submit(int i, object::Operation op,
                             Callback user_callback) {
  ++submitted_;
  const bool is_read = model_->is_read(op);
  if (client_path()) {
    client::Client& via = client(i);
    // Invocation is recorded at dispatch (first wire send), not enqueue:
    // the client's internal queue is not observable concurrency, and the
    // reply always arrives after dispatch, so the token is set by then.
    const auto token = std::make_shared<checker::HistoryRecorder::Token>();
    const ProcessId pid = via.id();
    object::Operation recorded = op;  // hook's copy; `op` moves into submit
    via.submit(
        std::move(op), is_read,
        [this, token, user_callback = std::move(user_callback)](
            const OperationId&, const std::string& response) {
          history_.end(*token, response, sim_.now());
          ++completed_;
          if (user_callback) user_callback(response);
        },
        [this, token, pid, is_read,
         recorded = std::move(recorded)](const OperationId& cid) {
          *token = history_.begin(pid, recorded, sim_.now());
          if (!is_read) history_.set_id(*token, cid);
        });
    return;
  }
  const auto token = history_.begin(ProcessId(i), op, sim_.now());
  const OperationId id = Traits::submit(
      replica(i), std::move(op), is_read,
      [this, token, user_callback = std::move(user_callback)](
          const object::Response& response) {
        history_.end(token, response, sim_.now());
        ++completed_;
        if (user_callback) user_callback(response);
      });
  // Durability accounting joins on writes only; reads keep no id.
  if (!is_read) history_.set_id(token, id);
}

template <class R>
void StackCluster<R>::restart(int i) {
  sim_.restart(ProcessId(i), std::make_unique<R>(model_, stack_config_));
}

template <class R>
bool StackCluster<R>::await_quiesce(Duration timeout) {
  const RealTime deadline = sim_.now() + timeout;
  return sim_.run_until([this] { return completed_ == submitted_; }, deadline);
}

template <class R>
int StackCluster<R>::leader() {
  int found = -1;
  std::int64_t best = -1;
  for (int i = 0; i < config_.n; ++i) {
    if (crashed(i)) continue;
    R& r = replica(i);
    // Epoch first: chtread's leader check prunes expired ELS supports, so it
    // must run exactly as often as a first-match scan would run it (all
    // chtread epochs are 0, so later replicas are never probed).
    if (Traits::epoch(r) > best && Traits::is_leader(r)) {
      best = Traits::epoch(r);
      found = i;
    }
  }
  return found;
}

template <class R>
bool StackCluster<R>::await_leader(Duration timeout) {
  const RealTime deadline = sim_.now() + timeout;
  return sim_.run_until([this] { return leader() >= 0; }, deadline);
}

template class StackCluster<core::Replica>;
template class StackCluster<raft::RaftReplica>;
template class StackCluster<vr::VrReplica>;

}  // namespace cht::harness

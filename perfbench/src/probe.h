// The untraced run's only instrument: a ForwardingAdapter that chaos::run_one
// builds through its AdapterHook. It stamps the simulated time of every
// submit and, when run_one tears the adapter down, snapshots what the
// end-to-end metrics need (the history, Network::stats() and the storages'
// fsync counts). It reads no wall clock.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chaos/adapter.h"
#include "stats.h"

namespace chtbench {

struct Capture {
  std::vector<Submission> submissions;
  std::vector<Recorded> recorded;
  std::int64_t run_end_us = 0;
  std::int64_t sent = 0;
  std::int64_t fsyncs = 0;
};

inline std::string op_text(const cht::object::Operation& op) {
  return op.kind + "(" + op.arg + ")";
}

class Probe final : public cht::chaos::ForwardingAdapter {
 public:
  // `client_path` is the run's RunSpec::client_path: it decides which
  // history process records an op submitted at a slot.
  Probe(std::unique_ptr<cht::chaos::ClusterAdapter> inner, bool client_path,
        Capture& out)
      : ForwardingAdapter(std::move(inner)),
        client_path_(client_path),
        out_(out) {}

  ~Probe() override {
    const int n = this->n();
    for (const auto& op : history().ops()) {
      Recorded r;
      r.client = op.process.index();
      r.read = model().is_read(op.op);
      r.op = op_text(op.op);
      if (op.completed()) r.responded_us = op.responded->to_micros();
      out_.recorded.push_back(std::move(r));
    }
    out_.run_end_us = sim().now().to_micros();
    out_.sent = sim().network().stats().sent;
    for (int i = 0; i < n; ++i) {
      out_.fsyncs += sim().storage(cht::ProcessId(i)).fsyncs();
    }
  }

  void submit(int process, cht::object::Operation op) override {
    // Cluster::submit routes slot i to client i % n, which the simulation
    // numbers after the n replicas.
    const int client = client_path_ ? n() + process % n() : process;
    out_.submissions.push_back(Submission{client, model().is_read(op),
                                          sim().now().to_micros(),
                                          op_text(op)});
    inner().submit(process, std::move(op));
  }

 private:
  bool client_path_;
  Capture& out_;
};

}  // namespace chtbench

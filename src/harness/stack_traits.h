// Per-stack traits: everything the harness (harness::StackCluster) and the
// chaos adapter (chaos::StackAdapter) need to know about one protocol stack
// — the paper's algorithm (core::Replica), the Raft baseline in both read
// modes (raft::RaftReplica) and Viewstamped Replication (vr::VrReplica).
// Client routing, history recording, metrics merging, restart, the leader
// search and the protocol invariants are written once against this seam.
//
// A specialization supplies:
//   Config, Extra       the stack's config type and its one input beyond
//                       CommonConfig (default-constructed when unused)
//   make_config         CommonConfig + Extra -> Config
//   submit              one client operation; returns the protocol-level
//                       OperationId of an RMW (reads may return a blank id)
//   is_leader, epoch    leadership and the epoch it belongs to: the term,
//                       the view, or a constant where the stack numbers none
//   Entry, committed    one committed unit (equality-comparable) and the
//                       committed prefix in commit order (a vector, or a
//                       span into the live log); ops(entry) yields records
//                       with .id and .op
// and, where the stack has them, durable (entries on stable storage beyond
// the committed prefix), recovering (inside a recovery protocol) and
// guard_transitions (clock-guard flips). Absent ones default below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/clock_guard.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/replica.h"
#include "harness/common_config.h"
#include "object/object.h"
#include "raft/raft.h"
#include "vr/vr.h"

namespace cht::harness {

template <class R>
struct StackTraits;

using Callback = std::function<void(const object::Response&)>;

// Defaults for the optional members, plus the submit shape shared by the
// stacks with separate read and RMW entry points.
struct StackTraitsBase {
  template <class R>
  static OperationId submit(R& r, object::Operation op, bool is_read,
                            Callback callback) {
    if (!is_read) return r.submit_rmw(std::move(op), std::move(callback));
    r.submit_read(std::move(op), std::move(callback));
    return OperationId{};
  }
  template <class R>
  static bool recovering(const R&) {
    return false;
  }
  template <class R>
  static std::vector<core::ClockSkewGuard::Transition> guard_transitions(R&) {
    return {};
  }
  template <class Entry>
  static std::span<const Entry, 1> ops(const Entry& entry) {
    return std::span<const Entry, 1>(&entry, 1);
  }
};

// The first `upto` entries of a replicated log (clamped to its length),
// viewed in place.
template <class Entry>
std::span<const Entry> log_prefix(const std::vector<Entry>& log,
                                  std::int64_t upto) {
  return {log.data(), std::min(log.size(), static_cast<std::size_t>(upto))};
}

template <>
struct StackTraits<core::Replica> : StackTraitsBase {
  using Config = core::Config;
  using Extra = core::ConfigOverrides;
  using Entry = core::Batch;
  static constexpr const char* kEpochName = "epoch";

  static Config make_config(const CommonConfig& common, const Extra& extra) {
    Config config = Config::defaults_for(common.delta, common.epsilon);
    config.clock_guard = common.clock_guard;
    extra.apply(config);
    return config;
  }
  static bool is_leader(core::Replica& r) { return r.is_steady_leader(); }
  // Reigns are not numbered: every steady leader is in epoch 0, so "one
  // leader per epoch" is "at most one steady leader at a time".
  static std::int64_t epoch(core::Replica&) { return 0; }
  // Applied batches 1..applied_upto.
  static std::vector<Entry> committed(core::Replica& r) {
    auto snap = r.snapshot();
    std::vector<Entry> out;
    for (auto& [k, batch] : snap.batches) {
      if (k <= snap.applied_upto) out.push_back(std::move(batch));
    }
    return out;
  }
  // Every stored batch, applied or not: a replica revived at heal time may
  // durably hold batches past applied_upto that it has not re-applied before
  // the final-state check runs. The ops are not lost — applying them is a
  // matter of local progress, not of surviving the crash.
  static std::vector<Entry> durable(core::Replica& r) {
    auto snap = r.snapshot();
    std::vector<Entry> out;
    for (auto& [k, batch] : snap.batches) out.push_back(std::move(batch));
    return out;
  }
  static const Entry& ops(const Entry& batch) { return batch; }
  static std::vector<core::ClockSkewGuard::Transition> guard_transitions(
      core::Replica& r) {
    return r.clock_guard().transitions();
  }
};

template <>
struct StackTraits<raft::RaftReplica> : StackTraitsBase {
  using Config = raft::RaftConfig;
  using Extra = raft::ReadMode;
  using Entry = raft::LogEntry;
  static constexpr const char* kEpochName = "term";

  static Config make_config(const CommonConfig& common, const Extra& extra) {
    Config config = Config::defaults_for(common.delta, common.epsilon);
    config.read_mode = extra;
    config.clock_guard = common.clock_guard;
    return config;
  }
  static bool is_leader(raft::RaftReplica& r) {
    return r.role() == raft::RaftReplica::Role::kLeader;
  }
  static std::int64_t epoch(raft::RaftReplica& r) { return r.term(); }
  static std::span<const Entry> committed(raft::RaftReplica& r) {
    return log_prefix(r.log(), r.commit_index());
  }
  static std::vector<core::ClockSkewGuard::Transition> guard_transitions(
      raft::RaftReplica& r) {
    return r.clock_guard().transitions();
  }
};

template <>
struct StackTraits<vr::VrReplica> : StackTraitsBase {
  using Config = vr::VrConfig;
  struct Extra {};
  using Entry = vr::VrLogEntry;
  static constexpr const char* kEpochName = "view";

  static Config make_config(const CommonConfig& common, const Extra&) {
    return Config::defaults_for(common.delta);
  }
  // Reads travel through the log too, under a single entry point.
  static OperationId submit(vr::VrReplica& r, object::Operation op, bool,
                            Callback callback) {
    return r.submit(std::move(op), std::move(callback));
  }
  static bool is_leader(vr::VrReplica& r) { return r.is_primary(); }
  static std::int64_t epoch(vr::VrReplica& r) { return r.view(); }
  static std::span<const Entry> committed(vr::VrReplica& r) {
    return log_prefix(r.log(), r.commit_number());
  }
  static bool recovering(const vr::VrReplica& r) {
    return r.status() == vr::VrReplica::Status::kRecovering;
  }
};

}  // namespace cht::harness

// Compile-time audit of wire-format structs (detlint rule D5's runtime-free
// counterpart). Pulled in by tests only — it includes every protocol's
// message header, so it must never be included from protocol code itself.
//
// Fixed-size payloads (no vectors/strings/optionals) must stay trivially
// copyable and standard-layout: they could be memcpy'd onto a real wire
// verbatim, and a default-constructed instance has no indeterminate bits
// (every scalar field carries a member initializer, enforced by detlint D5).
// That every payload is a copyable value is asserted by Process::send<T>.
#pragma once

#include <type_traits>

#include "baselines/megastore_chubby.h"
#include "baselines/pql_lease.h"
#include "client/wire.h"
#include "common/time.h"
#include "common/types.h"
#include "core/messages.h"
#include "leader/enhanced_leader.h"
#include "leader/omega.h"
#include "raft/raft.h"
#include "vr/vr.h"

namespace cht::audit {

template <class T>
inline constexpr bool wire_scalar_v =
    std::is_trivially_copyable_v<T> && std::is_standard_layout_v<T> &&
    std::is_default_constructible_v<T>;

// --- Identifier & time vocabulary (common/) ---------------------------------
static_assert(wire_scalar_v<ProcessId>);
static_assert(wire_scalar_v<OperationId>);
static_assert(wire_scalar_v<Duration>);
static_assert(wire_scalar_v<LocalTime>);
static_assert(wire_scalar_v<RealTime>);
static_assert(wire_scalar_v<BatchNumber>);

// --- Paper algorithm (core/messages.h) --------------------------------------
static_assert(wire_scalar_v<core::Lease>);
static_assert(wire_scalar_v<core::msg::EstReq>);
static_assert(wire_scalar_v<core::msg::PrepareAck>);
static_assert(wire_scalar_v<core::msg::LeaseRequest>);
static_assert(wire_scalar_v<core::msg::BatchRequest>);

// --- Raft baseline (raft/raft.h) --------------------------------------------
static_assert(wire_scalar_v<raft::msg::RequestVote>);
static_assert(wire_scalar_v<raft::msg::VoteReply>);
static_assert(wire_scalar_v<raft::msg::AppendReply>);

// --- Viewstamped Replication baseline (vr/vr.h) -----------------------------
static_assert(wire_scalar_v<vr::msg::PrepareOk>);
static_assert(wire_scalar_v<vr::msg::Commit>);
static_assert(wire_scalar_v<vr::msg::StartViewChange>);
static_assert(wire_scalar_v<vr::msg::GetState>);
static_assert(wire_scalar_v<vr::msg::Recovery>);

// --- Networked client path (client/wire.h) ----------------------------------
static_assert(wire_scalar_v<client::msg::Redirect>);

// --- Leader service and lease baselines (leader/, baselines/) --------------
static_assert(wire_scalar_v<leader::Heartbeat>);
static_assert(wire_scalar_v<leader::SupportGrant>);
static_assert(wire_scalar_v<baselines::msg::Promise>);
static_assert(wire_scalar_v<baselines::msg::PromiseAck>);
static_assert(wire_scalar_v<baselines::msg::Guarantee>);
static_assert(wire_scalar_v<baselines::msg::GuaranteeAck>);
static_assert(wire_scalar_v<baselines::msg::Revoke>);
static_assert(wire_scalar_v<baselines::msg::RevokeAck>);
static_assert(wire_scalar_v<baselines::chubby_msg::KeepAlive>);
static_assert(wire_scalar_v<baselines::chubby_msg::LeaseGrant>);
static_assert(wire_scalar_v<baselines::chubby_msg::Query>);
static_assert(wire_scalar_v<baselines::chubby_msg::QueryReply>);

}  // namespace cht::audit

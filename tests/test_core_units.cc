// Unit tests for the core wire/data types and configuration relationships.
#include <gtest/gtest.h>

#include "baselines/pql_lease.h"
#include "client/client.h"
#include "core/clock_guard.h"
#include "core/config.h"
#include "core/messages.h"
#include "object/register_object.h"
#include "raft/raft.h"
#include "sim/network.h"
#include "vr/vr.h"

namespace cht::core {
namespace {

BatchOp op(int proc, std::int64_t seq, const std::string& value) {
  return BatchOp{OperationId{ProcessId(proc), seq},
                 object::RegisterObject::write(value)};
}

TEST(BatchTest, CanonicalizeSortsById) {
  Batch batch{op(2, 1, "c"), op(0, 5, "a"), op(1, 1, "b")};
  canonicalize(batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id.process, ProcessId(0));
  EXPECT_EQ(batch[1].id.process, ProcessId(1));
  EXPECT_EQ(batch[2].id.process, ProcessId(2));
}

TEST(BatchTest, CanonicalizeDeduplicates) {
  Batch batch{op(0, 1, "a"), op(0, 1, "a"), op(1, 1, "b")};
  canonicalize(batch);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BatchTest, SameIdOrderedByOpContent) {
  // BatchOp ordering is (id, op); equality needs both.
  Batch a{op(0, 1, "x")};
  Batch b{op(0, 1, "x")};
  EXPECT_EQ(a, b);
  Batch c{op(0, 1, "y")};
  EXPECT_NE(a, c);
}

TEST(EstimateTest, FreshnessIsLexicographic) {
  Estimate older{{}, LocalTime::micros(100), 7};
  Estimate newer_time{{}, LocalTime::micros(200), 3};
  Estimate newer_batch{{}, LocalTime::micros(100), 8};
  EXPECT_LT(older.freshness(), newer_time.freshness());
  EXPECT_LT(older.freshness(), newer_batch.freshness());
  // Leader time dominates the batch number.
  EXPECT_LT(newer_batch.freshness(), newer_time.freshness());
}

TEST(ConfigTest, DefaultsScaleWithDelta) {
  const auto small = Config::defaults_for(Duration::millis(1), Duration::micros(100));
  const auto large = Config::defaults_for(Duration::millis(100), Duration::millis(10));
  EXPECT_EQ(small.lease_period, Duration::millis(12));
  EXPECT_EQ(large.lease_period, Duration::millis(1200));
  // Relationships the protocol's liveness depends on.
  for (const auto& c : {small, large}) {
    EXPECT_LT(c.lease_renew_interval, c.lease_period);
    EXPECT_GT(c.els().support_duration,
              2 * c.els().support_interval + c.delta);
    EXPECT_GT(c.omega().timeout, c.omega().heartbeat_interval + c.delta);
    EXPECT_EQ(c.commit_gate, CommitGate::kLeaseholders);
    EXPECT_EQ(c.read_policy, ReadPolicy::kLocalLease);
    EXPECT_EQ(c.commit_wait, Duration::zero());
  }

  // Every derived value at (10ms, 1ms), pinned to its literal.
  const auto ms = [](std::int64_t v) { return Duration::millis(v); };
  const auto c = Config::defaults_for(ms(10), ms(1));
  EXPECT_EQ(c.lease_period, ms(120));
  EXPECT_EQ(c.lease_renew_interval, ms(30));
  EXPECT_EQ(c.leader_check_interval(), ms(5));
  EXPECT_EQ(c.steady_tick(), Duration::micros(2500));
  EXPECT_EQ(c.estreq_resend(), ms(20));
  EXPECT_EQ(c.prepare_resend(), ms(20));
  EXPECT_EQ(c.rmw_retry(), ms(40));
  EXPECT_EQ(c.anti_entropy_interval(), ms(20));
  EXPECT_EQ(c.commit_rebroadcast(), ms(80));
  EXPECT_EQ(c.omega().heartbeat_interval, ms(10));
  EXPECT_EQ(c.omega().timeout, ms(41));
  EXPECT_EQ(c.els().support_interval, ms(10));
  EXPECT_EQ(c.els().support_duration, ms(80));
  EXPECT_EQ(c.els().history_horizon, Duration::seconds(1));
  EXPECT_TRUE(c.clock_guard);

  const ClockSkewGuard guard(ms(10), ms(1));
  EXPECT_EQ(guard.suspect_threshold(), ms(1));
  EXPECT_EQ(guard.requalify_window(), ms(21));

  const auto raft = raft::RaftConfig::defaults_for(ms(10), ms(1));
  EXPECT_EQ(raft.heartbeat_interval(), ms(10));
  EXPECT_EQ(raft.client_retry(), ms(40));
  EXPECT_EQ(raft.election_timeout_min, ms(100));
  EXPECT_EQ(raft.election_timeout_max, ms(200));
  EXPECT_TRUE(raft.clock_guard);

  const auto vr = vr::VrConfig::defaults_for(ms(10));
  EXPECT_EQ(vr.heartbeat_interval(), ms(10));
  EXPECT_EQ(vr.client_retry(), ms(40));
  EXPECT_EQ(vr.view_change_timeout, ms(100));

  const baselines::PqlConfig pql;  // delta = 10ms, epsilon = 1ms
  EXPECT_EQ(pql.renewal_interval(), ms(30));
  EXPECT_EQ(pql.lease_duration(), ms(120));
  EXPECT_EQ(pql.guard(), ms(10));
  EXPECT_EQ(pql.revoke_quiet(), ms(25));

  const client::ClientConfig client{.delta = ms(10)};
  EXPECT_EQ(client.request_timeout(), ms(80));
  EXPECT_EQ(client.backoff_cap(), ms(640));
  EXPECT_EQ(client::ClientConfig::escalate_reads_after, 2);

  EXPECT_EQ(sim::NetworkConfig::pre_gst_delay_min, Duration::micros(100));
}

TEST(OperationIdTest, OrderingAndHash) {
  const OperationId a{ProcessId(0), 1};
  const OperationId b{ProcessId(0), 2};
  const OperationId c{ProcessId(1), 1};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(std::hash<OperationId>{}(a), std::hash<OperationId>{}(OperationId{ProcessId(0), 1}));
}

}  // namespace
}  // namespace cht::core

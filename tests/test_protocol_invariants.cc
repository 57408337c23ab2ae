// Negative tests for the protocol invariants every stack is held to (one
// leader per epoch, committed-prefix agreement; chaos/invariants.h). The
// checks run on plain per-replica data, so each violation can be built
// directly instead of waiting for a buggy run to produce it. Every stack's
// conventions are covered: chtread puts all steady leaders in epoch 0 and
// commits batches, Raft (both read modes) numbers terms and logs entries
// with their term, VR numbers views and logs bare operations.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "harness/stack_traits.h"
#include "object/kv_object.h"

namespace cht::chaos {
namespace {

// One stack's conventions: its protocol name, the replica type whose traits
// fix the entry type and epoch label, and how to build a committed entry and
// the epoch a second reign would carry.
struct Chtread {
  using R = core::Replica;
  static constexpr const char* kName = "chtread";
  static core::Batch entry(int v) {
    return {core::BatchOp{OperationId{ProcessId(0), v},
                          object::KVObject::put("k", std::to_string(v))}};
  }
  static std::int64_t later_epoch() { return 0; }  // reigns are unnumbered
};

template <const char* Name>
struct Raft {
  using R = raft::RaftReplica;
  static constexpr const char* kName = Name;
  static raft::LogEntry entry(int v) {
    return {1, OperationId{ProcessId(0), v},
            object::KVObject::put("k", std::to_string(v))};
  }
  static std::int64_t later_epoch() { return 2; }
};
constexpr char kRaft[] = "raft";
constexpr char kRaftLease[] = "raft-lease";

struct Vr {
  using R = vr::VrReplica;
  static constexpr const char* kName = "vr";
  static vr::VrLogEntry entry(int v) {
    return {OperationId{ProcessId(0), v},
            object::KVObject::put("k", std::to_string(v))};
  }
  static std::int64_t later_epoch() { return 2; }
};

template <class Stack>
class ProtocolInvariantsTest : public ::testing::Test {
 protected:
  using Traits = harness::StackTraits<typename Stack::R>;
  using View = ReplicaView<std::vector<typename Traits::Entry>>;

  // Five live replicas; replica 0 leads, everyone committed entries 1..3.
  std::vector<View> healthy() const {
    std::vector<View> views(5);
    for (auto& v : views) {
      v.live = true;
      for (int k = 1; k <= 3; ++k) v.committed.push_back(Stack::entry(k));
    }
    views[0].leader = true;
    return views;
  }

  std::vector<std::string> check(const std::vector<View>& views) const {
    return protocol_violations(Stack::kName, Traits::kEpochName, views);
  }
};

using Stacks =
    ::testing::Types<Chtread, Raft<kRaft>, Raft<kRaftLease>, Vr>;
TYPED_TEST_SUITE(ProtocolInvariantsTest, Stacks);

TYPED_TEST(ProtocolInvariantsTest, HealthyClusterIsClean) {
  auto views = this->healthy();
  // Lagging replicas (shorter prefixes) and dead replicas with anything at
  // all in their state are not violations.
  views[1].committed.pop_back();
  views[2].committed.clear();
  views[3].live = false;
  views[3].leader = true;
  views[3].committed = {TypeParam::entry(9)};
  EXPECT_TRUE(this->check(views).empty());
}

TYPED_TEST(ProtocolInvariantsTest, TwoLeadersInOneEpochFire) {
  auto views = this->healthy();
  views[3].leader = true;
  const auto violations = this->check(views);
  ASSERT_EQ(violations.size(), 1u);
  const std::string expected = std::string(TypeParam::kName) +
                               ": 2 leaders in " +
                               TestFixture::Traits::kEpochName;
  EXPECT_EQ(violations[0].rfind(expected, 0), 0u) << violations[0];
}

TYPED_TEST(ProtocolInvariantsTest, LeadersInDistinctEpochsDependOnNumbering) {
  // A deposed leader that has not yet heard of the next epoch is legal where
  // epochs are numbered; chtread has one epoch, so two steady leaders are
  // always a violation.
  auto views = this->healthy();
  views[4].leader = true;
  views[4].epoch = TypeParam::later_epoch();
  const bool numbered = TypeParam::later_epoch() != views[0].epoch;
  EXPECT_EQ(this->check(views).empty(), numbered);
}

TYPED_TEST(ProtocolInvariantsTest, DivergentPrefixFiresAtFirstDifference) {
  auto views = this->healthy();
  views[2].committed[1] = TypeParam::entry(7);  // index 2 differs
  const auto violations = this->check(views);
  // p2 disagrees with each of the four others, once per pair.
  ASSERT_EQ(violations.size(), 4u);
  EXPECT_EQ(violations[0],
            std::string(TypeParam::kName) +
                ": committed prefix diverges at index 2 between p0 and p2");
  EXPECT_EQ(violations[3],
            std::string(TypeParam::kName) +
                ": committed prefix diverges at index 2 between p2 and p4");
}

TYPED_TEST(ProtocolInvariantsTest, DivergenceBeyondTheShorterPrefixIsLag) {
  auto views = this->healthy();
  views[1].committed.resize(1);  // p1 only committed index 1
  views[2].committed[2] = TypeParam::entry(8);
  // p2 diverges from p0/p3/p4 at index 3, but p1 has not reached it.
  const auto violations = this->check(views);
  ASSERT_EQ(violations.size(), 3u);
  for (const auto& v : violations) {
    EXPECT_NE(v.find("at index 3"), std::string::npos) << v;
    EXPECT_EQ(v.find("p1 "), std::string::npos) << v;
  }
}

}  // namespace
}  // namespace cht::chaos

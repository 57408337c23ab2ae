#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace cht::sim {
namespace {

struct Fixture {
  EventQueue queue;
  NetworkConfig config;
  std::vector<std::pair<RealTime, Message>> delivered;

  Network make(std::uint64_t seed = 1) {
    return Network(queue, Rng(seed), config);
  }
};

// A numbered test payload.
struct Seq {
  static constexpr const char* kType = "t";
  int n = 0;
};
struct Other {
  static constexpr const char* kType = "other";
};

Message make_msg(int from, int to, const char* type = Seq::kType, int n = 0) {
  Message m;
  m.from = ProcessId(from);
  m.to = ProcessId(to);
  m.type = type;
  m.tag = &wire_tag<Seq>;
  m.payload = std::make_shared<const Seq>(Seq{n});
  return m;
}

TEST(NetworkTest, PostGstDelaysBoundedByDelta) {
  Fixture f;
  f.config.gst = RealTime::zero();
  f.config.delta = Duration::millis(5);
  f.config.delta_min = Duration::micros(100);
  Network network = f.make();
  network.set_deliver_fn([&](const Message& m) {
    f.delivered.emplace_back(f.queue.now(), m);
  });
  for (int i = 0; i < 200; ++i) network.send(make_msg(0, 1));
  RealTime start = f.queue.now();
  while (f.queue.step()) {
  }
  ASSERT_EQ(f.delivered.size(), 200u);
  for (const auto& [at, m] : f.delivered) {
    EXPECT_LE(at - start, Duration::millis(5));
    EXPECT_GE(at - start, Duration::micros(100));
  }
  EXPECT_EQ(network.stats().sent, 200);
  EXPECT_EQ(network.stats().delivered, 200);
  EXPECT_EQ(network.stats().dropped, 0);
}

TEST(NetworkTest, PreGstMessagesCanBeLost) {
  Fixture f;
  f.config.gst = RealTime::max();
  f.config.pre_gst_loss_probability = 0.5;
  Network network = f.make();
  int delivered = 0;
  network.set_deliver_fn([&](const Message&) { ++delivered; });
  for (int i = 0; i < 1000; ++i) network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  EXPECT_GT(delivered, 300);
  EXPECT_LT(delivered, 700);
  EXPECT_EQ(network.stats().dropped, 1000 - delivered);
}

TEST(NetworkTest, NeverStabilizingRunKeepsPreGstDelays) {
  // gst == RealTime::max() must not overflow the in-flight cap: every delay
  // stays a pre-GST draw spread over [pre_gst_delay_min, pre_gst_delay_max].
  Fixture f;
  f.config.gst = RealTime::max();
  f.config.pre_gst_loss_probability = 0.0;
  Network network = f.make();
  const RealTime start = f.queue.now();
  std::vector<Duration> delays;
  network.set_deliver_fn(
      [&](const Message&) { delays.push_back(f.queue.now() - start); });
  for (int i = 0; i < 500; ++i) network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  ASSERT_EQ(delays.size(), 500u);
  const auto [lo, hi] = std::minmax_element(delays.begin(), delays.end());
  EXPECT_GE(*lo, NetworkConfig::pre_gst_delay_min);
  EXPECT_LE(*hi, f.config.pre_gst_delay_max);
  EXPECT_LT(*lo, f.config.pre_gst_delay_max / 10);
  EXPECT_GT(*hi, f.config.pre_gst_delay_max * 9 / 10);
}

TEST(NetworkTest, InFlightMessagesRespectDeltaAfterGst) {
  // A message sent just before GST must arrive within delta after GST.
  Fixture f;
  f.config.gst = RealTime::zero() + Duration::millis(100);
  f.config.pre_gst_delay_max = Duration::seconds(10);  // would overshoot
  f.config.pre_gst_loss_probability = 0.0;
  Network network = f.make();
  RealTime arrival = RealTime::zero();
  network.set_deliver_fn([&](const Message&) { arrival = f.queue.now(); });
  f.queue.schedule(f.config.gst - Duration::millis(1),
                   [&] { network.send(make_msg(0, 1)); });
  while (f.queue.step()) {
  }
  EXPECT_LE(arrival, f.config.gst + f.config.delta);
}

TEST(NetworkTest, DownLinksDropMessages) {
  Fixture f;
  Network network = f.make();
  int delivered = 0;
  network.set_deliver_fn([&](const Message&) { ++delivered; });
  network.set_link_down(ProcessId(0), ProcessId(1), true);
  network.send(make_msg(0, 1));
  network.send(make_msg(1, 0));  // reverse direction unaffected
  while (f.queue.step()) {
  }
  EXPECT_EQ(delivered, 1);
  network.set_link_down(ProcessId(0), ProcessId(1), false);
  network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  EXPECT_EQ(delivered, 2);
}

TEST(NetworkTest, IsolationCutsBothDirections) {
  Fixture f;
  Network network = f.make();
  int delivered = 0;
  network.set_deliver_fn([&](const Message&) { ++delivered; });
  network.set_process_isolated(ProcessId(1), true, 3);
  network.send(make_msg(0, 1));
  network.send(make_msg(1, 2));
  network.send(make_msg(0, 2));  // unaffected pair
  while (f.queue.step()) {
  }
  EXPECT_EQ(delivered, 1);
}

TEST(NetworkTest, PerTypeCounters) {
  Fixture f;
  Network network = f.make();
  network.set_deliver_fn([](const Message&) {});
  network.send(make_msg(0, 1, "a"));
  network.send(make_msg(0, 1, "a"));
  network.send(make_msg(0, 1, "b"));
  EXPECT_EQ(network.stats().sent_of("a"), 2);
  EXPECT_EQ(network.stats().sent_of("b"), 1);
  EXPECT_EQ(network.stats().sent_of("c"), 0);
}

TEST(NetworkTest, PerTypeCountersSumPointersSpellingOneName) {
  // Two distinct arrays, so two type pointers with the same spelling.
  static const char kOne[] = "same";
  static const char kTwo[] = "same";
  ASSERT_NE(static_cast<const char*>(kOne), static_cast<const char*>(kTwo));
  Fixture f;
  Network network = f.make();
  network.set_deliver_fn([](const Message&) {});
  const MessageStats& stats = network.stats();
  network.send(make_msg(0, 1, kOne));
  network.send(make_msg(0, 1, kTwo));
  network.send(make_msg(0, 1, kOne));
  EXPECT_EQ(stats.sent_of("same"), 3) << "a held reference sees live counts";
  EXPECT_EQ(stats.sent_by_type.size(), 1u);
}

TEST(NetworkTest, PreGstDuplicateIsDeliveredTwiceInOrder) {
  Fixture f;
  f.config.gst = RealTime::max();
  f.config.pre_gst_loss_probability = 0.0;
  f.config.pre_gst_duplicate_probability = 1.0;
  Network network = f.make();
  std::vector<std::pair<RealTime, Message>> delivered;
  network.set_deliver_fn(
      [&](const Message& m) { delivered.emplace_back(f.queue.now(), m); });
  network.send(make_msg(0, 1, Seq::kType, 7));
  while (f.queue.step()) {
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1].first - delivered[0].first, f.config.delta_min)
      << "the duplicate arrives delta_min after the original";
  for (const auto& [at, m] : delivered) {
    ASSERT_NE(m.get<Seq>(), nullptr);
    EXPECT_EQ(m.get<Seq>()->n, 7);
  }
  EXPECT_EQ(delivered[0].second.payload, delivered[1].second.payload)
      << "the copies share one payload";
  EXPECT_EQ(network.stats().sent, 1);
  EXPECT_EQ(network.stats().delivered, 2);
}

TEST(NetworkTest, GetOfAnotherTypeIsNull) {
  const Message m = make_msg(0, 1, Seq::kType, 3);
  ASSERT_NE(m.get<Seq>(), nullptr);
  EXPECT_EQ(m.get<Seq>()->n, 3);
  EXPECT_EQ(m.get<Other>(), nullptr);
  EXPECT_EQ(Message{}.get<Seq>(), nullptr) << "an empty envelope holds no T";
}

TEST(NetworkTest, ExtraLinkDelayAppliesOnce) {
  Fixture f;
  f.config.delta = Duration::millis(1);
  f.config.delta_min = Duration::millis(1);
  Network network = f.make();
  std::vector<RealTime> arrivals;
  network.set_deliver_fn([&](const Message&) { arrivals.push_back(f.queue.now()); });
  network.add_link_delay(ProcessId(0), ProcessId(1), Duration::millis(50));
  network.send(make_msg(0, 1));
  network.send(make_msg(0, 1));
  while (f.queue.step()) {
  }
  ASSERT_EQ(arrivals.size(), 2u);
  std::sort(arrivals.begin(), arrivals.end());
  EXPECT_EQ(arrivals[0] - RealTime::zero(), Duration::millis(1));
  EXPECT_EQ(arrivals[1] - RealTime::zero(), Duration::millis(51));
}

}  // namespace
}  // namespace cht::sim

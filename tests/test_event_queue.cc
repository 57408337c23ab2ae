#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace cht::sim {
namespace {

RealTime at_us(std::int64_t us) { return RealTime::zero() + Duration::micros(us); }

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(at_us(30), [&] { fired.push_back(3); });
  q.schedule(at_us(10), [&] { fired.push_back(1); });
  q.schedule(at_us(20), [&] { fired.push_back(2); });
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), at_us(30));
}

TEST(EventQueueTest, SameInstantFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at_us(5), [&fired, i] { fired.push_back(i); });
  }
  while (q.step()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, CancelledEventsAreSkipped) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(at_us(10), [&] { fired = true; });
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
  while (q.step()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(q.now() + Duration::micros(1), chain);
  };
  q.schedule(at_us(1), chain);
  while (q.step()) {
  }
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), at_us(5));
}

TEST(EventQueueTest, NextEventTime) {
  EventQueue q;
  EXPECT_EQ(q.next_event_time(), RealTime::max());
  auto h = q.schedule(at_us(42), [] {});
  EXPECT_EQ(q.next_event_time(), at_us(42));
  h.cancel();
  EXPECT_EQ(q.next_event_time(), RealTime::max());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelTwiceAndThroughACopy) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle h = q.schedule(at_us(10), [&] { fired.push_back(1); });
  q.schedule(at_us(20), [&] { fired.push_back(2); });
  const EventHandle copy = h;
  EventHandle(copy).cancel();
  EXPECT_FALSE(h.active());
  EXPECT_FALSE(copy.active());
  h.cancel();
  h.cancel();
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueueTest, FiredHandleCannotCancelTheSlotsNextEvent) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle first = q.schedule(at_us(10), [&] { fired.push_back(1); });
  const EventHandle copy = first;
  ASSERT_TRUE(q.step());
  EXPECT_FALSE(first.active()) << "a fired event is no longer pending";
  // The freed slot is reused by the next event.
  EventHandle second = q.schedule(at_us(20), [&] { fired.push_back(2); });
  first.cancel();
  EventHandle(copy).cancel();
  EXPECT_TRUE(second.active());
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, CancelledHandleCannotCancelTheSlotsNextEvent) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle first = q.schedule(at_us(10), [&] { fired.push_back(1); });
  first.cancel();
  // Reuses the cancelled event's slot while its stale key is still queued.
  EventHandle second = q.schedule(at_us(5), [&] { fired.push_back(2); });
  first.cancel();
  EXPECT_TRUE(second.active());
  EXPECT_EQ(q.next_event_time(), at_us(5));
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(q.now(), at_us(5));
}

TEST(EventQueueTest, HandlerCancellingItsOwnHandleIsHarmless) {
  EventQueue q;
  std::vector<int> fired;
  EventHandle self;
  self = q.schedule(at_us(10), [&] {
    fired.push_back(1);
    // Lands in the slot just freed; the stale handle must not reach it.
    q.schedule(at_us(11), [&] { fired.push_back(2); });
    self.cancel();
  });
  while (q.step()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, SkipFlagSwallowsTheCallbackButNotTheStep) {
  EventQueue q;
  bool skip = false;
  int fired = 0;
  q.schedule(at_us(10), [&] { ++fired; }, &skip);
  q.schedule(at_us(20), [&] { ++fired; }, &skip);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  skip = true;
  ASSERT_TRUE(q.step()) << "a skipped event still fires and counts";
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), at_us(20));
}

Message typed(const char* type) {
  Message m;
  m.type = type;
  return m;
}

TEST(EventQueueTest, DeliveriesInterleaveWithCallbacksInOrder) {
  EventQueue q;
  std::vector<std::string> seen;
  q.set_deliver_fn([&](const Message& m) { seen.push_back(m.type); });
  q.schedule_delivery(at_us(10), typed("a"));
  q.schedule(at_us(10), [&] { seen.push_back("timer"); });
  q.schedule_delivery(at_us(5), typed("b"));
  while (q.step()) {
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"b", "a", "timer"}));
}

TEST(EventQueueTest, EmptyQueueStepReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
}

}  // namespace
}  // namespace cht::sim

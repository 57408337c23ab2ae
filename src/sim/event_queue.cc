#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace cht::sim {

std::uint32_t EventQueue::push(RealTime at) {
  CHT_ASSERT(at >= now_, "cannot schedule an event in the past");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  heap_.push_back(Key{at, next_seq_++, slot, slots_[slot].generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return slot;
}

EventHandle EventQueue::schedule(RealTime at, std::function<void()> fn,
                                 const bool* skip_if) {
  CHT_ASSERT(fn != nullptr, "cannot schedule an empty callback");
  const std::uint32_t slot = push(at);
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.skip_if = skip_if;
  return EventHandle(this, slot, s.generation);
}

void EventQueue::schedule_delivery(RealTime at, Message message) {
  slots_[push(at)].message = std::move(message);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;
  s.fn = nullptr;
  s.skip_if = nullptr;
  free_.push_back(slot);
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty() &&
         !pending(heap_.front().slot, heap_.front().generation)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::empty() const {
  drop_cancelled();
  return heap_.empty();
}

RealTime EventQueue::next_event_time() const {
  drop_cancelled();
  return heap_.empty() ? RealTime::max() : heap_.front().at;
}

bool EventQueue::step() {
  drop_cancelled();
  if (heap_.empty()) return false;
  const Key key = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  CHT_ASSERT(key.at >= now_, "event queue time went backwards");
  now_ = key.at;
  // Move the event out and free its slot before running it: the handler may
  // schedule events (reusing this slot, or growing slots_).
  Slot& s = slots_[key.slot];
  if (s.fn != nullptr) {
    const std::function<void()> fn = std::move(s.fn);
    const bool* skip_if = s.skip_if;
    release(key.slot);
    if (skip_if == nullptr || !*skip_if) fn();
  } else {
    const Message message = std::move(s.message);
    release(key.slot);
    CHT_ASSERT(deliver_ != nullptr, "event queue has no delivery callback");
    deliver_(message);
  }
  return true;
}

}  // namespace cht::sim

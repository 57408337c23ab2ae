// Deterministic discrete-event queue.
//
// Events are ordered by (real time, insertion sequence), so two events at the
// same instant fire in insertion order and every run of the simulator is a
// deterministic function of its seed.
//
// Storage is a slab: each pending event lives in a reusable slot, and the
// heap orders small {at, seq, slot, generation} keys. A slot's generation
// advances whenever its event fires or is cancelled, so a heap key or handle
// whose generation no longer matches names a dead event; cancelled keys are
// skipped lazily at pop time. An event is either a callback or a network
// delivery, which stores its Message in the slot instead of in a closure.
// step() moves the event out of its slot; nothing is copied per event.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/time.h"
#include "sim/message.h"

namespace cht::sim {

class EventQueue;

// Handle for cancelling a scheduled event. Default-constructed handles are
// inert. Copyable; cancelling any copy cancels the event. Once the event has
// fired or been cancelled the handle is inert: it never reaches a later
// event that reuses the slot. A handle must not outlive its queue.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  // True while the event is pending: neither fired nor cancelled.
  bool active() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  using DeliverFn = std::function<void(const Message&)>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;  // handles point at this queue
  EventQueue& operator=(const EventQueue&) = delete;

  // Runs `fn` at `at`. With `skip_if`, the event still fires at `at` but
  // `fn` does not run if *skip_if is true by then (a crashed process's
  // timers: Process::schedule_after passes its crash flag).
  EventHandle schedule(RealTime at, std::function<void()> fn,
                       const bool* skip_if = nullptr);

  // Hands `message` to the delivery callback at `at`. Not cancellable.
  void schedule_delivery(RealTime at, Message message);
  // Where deliveries go (installed by the Network).
  void set_deliver_fn(DeliverFn fn) { deliver_ = std::move(fn); }

  // Runs the next non-cancelled event, advancing the queue clock.
  // Returns false if the queue is empty.
  bool step();

  RealTime now() const { return now_; }
  bool empty() const;
  std::size_t size() const { return heap_.size(); }  // includes cancelled

  // Real time of the next pending event; RealTime::max() if none.
  RealTime next_event_time() const;

 private:
  friend class EventHandle;
  struct Key {
    RealTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::uint32_t generation = 0;
    std::function<void()> fn;  // empty for a delivery
    const bool* skip_if = nullptr;
    Message message;
  };

  // Claims a free slot and queues its key; returns the slot index.
  std::uint32_t push(RealTime at);
  // Ends the slot's current event and returns it to the free list.
  void release(std::uint32_t slot);
  bool pending(std::uint32_t slot, std::uint32_t generation) const {
    return slots_[slot].generation == generation;
  }
  void drop_cancelled() const;

  mutable std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  DeliverFn deliver_;
  RealTime now_ = RealTime::zero();
  std::uint64_t next_seq_ = 0;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr && queue_->pending(slot_, generation_)) {
    queue_->release(slot_);
  }
}

inline bool EventHandle::active() const {
  return queue_ != nullptr && queue_->pending(slot_, generation_);
}

}  // namespace cht::sim

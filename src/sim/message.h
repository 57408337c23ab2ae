// Message envelope carried by the simulated network.
//
// Payloads are type-erased so each protocol module defines its own message
// structs without a shared grand variant. Each payload struct names itself
// (`static constexpr const char* kType = "core.prepare";`); Process::send
// stamps that name into `type` for per-type accounting and tracing, and
// `tag` with the payload's type identity, &wire_tag<T>. Receivers dispatch
// with get<T>(), one pointer comparison per arm.
//
// The payload is immutable and shared: Process::broadcast builds it once and
// every recipient's envelope points at the same object, so copying an
// envelope never copies its payload.
#pragma once

#include <memory>
#include <type_traits>

#include "common/time.h"
#include "common/types.h"

namespace cht::sim {

// What Process::send demands of a payload: it must behave like a serialized
// value, so that sharing one immutable copy is the same as sending a copy.
template <class T>
inline constexpr bool wire_value_v =
    std::is_default_constructible_v<T> && std::is_copy_constructible_v<T> &&
    std::is_copy_assignable_v<T>;

// The type identity of payload T is the address of wire_tag<T>: an inline
// variable has one address in the whole program, distinct per T, which a
// string literal's address is not guaranteed to be.
template <class T>
inline constexpr char wire_tag = 0;

struct Message {
  ProcessId from;
  ProcessId to;
  // The payload's T::kType: static storage, never owned.
  const char* type = "";
  // &wire_tag<T> for the payload's T; nullptr when there is no payload.
  const void* tag = nullptr;
  std::shared_ptr<const void> payload;
  // The sender's local clock reading at send time, stamped by Process::send.
  // Receivers with a clock guard derive a sound pairwise-skew lower bound
  // from it (clock_guard.h). LocalTime::min() marks an unstamped message
  // (hand-crafted in tests); guards ignore those.
  LocalTime sent_local = LocalTime::min();

  // The payload if it is a T, else nullptr.
  template <class T>
  const T* get() const {
    return tag == &wire_tag<T> ? static_cast<const T*>(payload.get())
                               : nullptr;
  }
};

}  // namespace cht::sim

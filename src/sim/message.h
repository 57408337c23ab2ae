// Message envelope carried by the simulated network.
//
// Payloads are type-erased so each protocol module defines its own message
// structs without a shared grand variant. Each payload struct names itself
// (`static constexpr const char* kType = "core.prepare";`); Process::send
// stamps that name into `type` for per-type accounting and tracing, and
// receivers dispatch on the payload type with get<T>().
#pragma once

#include <any>
#include <type_traits>

#include "common/time.h"
#include "common/types.h"

namespace cht::sim {

// What Process::send demands of a payload: the std::any envelope copies it
// per recipient, so it must behave like a serialized value.
template <class T>
inline constexpr bool wire_value_v =
    std::is_default_constructible_v<T> && std::is_copy_constructible_v<T> &&
    std::is_copy_assignable_v<T>;

struct Message {
  ProcessId from;
  ProcessId to;
  // The payload's T::kType: static storage, never owned.
  const char* type = "";
  std::any payload;
  // The sender's local clock reading at send time, stamped by Process::send.
  // Receivers with a clock guard derive a sound pairwise-skew lower bound
  // from it (clock_guard.h). LocalTime::min() marks an unstamped message
  // (hand-crafted in tests); guards ignore those.
  LocalTime sent_local = LocalTime::min();

  // The payload if it is a T, else nullptr.
  template <class T>
  const T* get() const {
    return std::any_cast<T>(&payload);
  }
};

}  // namespace cht::sim

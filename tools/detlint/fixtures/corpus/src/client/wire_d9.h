// Fixture: rule D9 — the wire structs for d9_dispatch.cc. A struct nobody
// dispatches, or one reusing another's kType, is flagged at its kType.
// Declaring a kType also puts this file under rule D5.
#pragma once

namespace fixture::msg {

struct Ping { static constexpr const char* kType = "cl.ping"; };
struct Pong {
  static constexpr const char* kType = "cl.pong";
  int seq;  // detlint-expect: D5
};
// Declared and sent, but no dispatch arm handles it.
struct Lost { static constexpr const char* kType = "cl.lost"; };  // detlint-expect: D9
// Dispatched but never sent: the finding lands on the arm.
struct Ghost { static constexpr const char* kType = "cl.ghost"; };
// Sent only as a named local, and as a parameter.
struct Echo { static constexpr const char* kType = "cl.echo"; };
struct Relay { static constexpr const char* kType = "cl.relay"; };
// Wired up, but under Twin's name: their counts and trace lines would merge.
struct Twin { static constexpr const char* kType = "cl.twin"; };
struct TwinCopy { static constexpr const char* kType = "cl.twin"; };  // detlint-expect: D9

}  // namespace fixture::msg

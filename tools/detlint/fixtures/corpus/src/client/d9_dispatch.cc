// Fixture: rule D9 — handler exhaustiveness over the wire structs declared
// in wire_d9.h. Positive cases: an arm for a type that is never sent, and an
// arm for a type the stack never declared.
namespace fixture {

struct Message {
  template <class T> const T* get() const;
};

struct Endpoint {
  template <class T> void send(int to, T payload);
  template <class T> void broadcast(const T& payload);

  void pump() {
    send(1, msg::Ping{});
    broadcast(msg::Pong{7});
    send(2, msg::Lost{});
    send(3, msg::Twin{});
    send(3, msg::TwinCopy{});
    const msg::Echo echo{};
    send(4, echo);
    msg::Echo copy;
    send(4, std::move(copy));
  }

  void forward(int to, const msg::Relay& relay) { send(to, relay); }

  void on_message(const Message& message) {
    if (message.get<msg::Ping>() != nullptr) {
    } else if (const auto* pong = message.get<msg::Pong>()) {
    } else if (message.get<msg::Echo>() != nullptr) {
    } else if (message.get<msg::Relay>() != nullptr) {
    } else if (message.get<msg::Twin>() != nullptr) {
    } else if (message.get<msg::TwinCopy>() != nullptr) {
    } else if (message.get<msg::Ghost>() != nullptr) {  // detlint-expect: D9
      // Unreachable: nothing in this stack ever sends cl.ghost.
    } else if (message.get<msg::Alien>() != nullptr) {  // detlint-expect: D9
      // Undeclared: Alien is not part of this stack's vocabulary.
    }
  }
};

}  // namespace fixture

#include "calibrate.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace chtbench {
namespace {

// Steps per kernel run: about 1 ms on the host the benchmark was built on.
constexpr int kSteps = 3500;

std::uint64_t kernel() {
  struct Event {
    std::uint64_t at = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::map<std::string, std::uint64_t> bytes_by_key;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t seq = 0;
  std::uint64_t delivered = 0;
  for (int i = 0; i < 64; ++i) queue.push({next() % 1000, seq++, nullptr});
  for (int step = 0; step < kSteps; ++step) {
    Event e = queue.top();
    queue.pop();
    std::string key(1, 'k');
    key += std::to_string(next() % 37);
    const auto payload =
        std::make_shared<std::string>(64, static_cast<char>('a' + step % 26));
    bytes_by_key[key] += payload->size();
    queue.push({e.at + next() % 1000, seq++,
                [payload, &delivered] { delivered += payload->size(); }});
    if (e.fn) e.fn();
  }
  return delivered + bytes_by_key.size();
}

}  // namespace

double time_calibration_kernel() {
  static volatile std::uint64_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  sink = sink + kernel();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace chtbench

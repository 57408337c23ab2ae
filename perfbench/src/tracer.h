// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own driver around each call into a layer, kept in memory, and
// written once at exit as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it directly).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace chtbench {

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  // Every span begun from now on carries `seed` as its id.
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  // Opens a span whose parent is the innermost open span. `name` must be a
  // string literal (spans keep the pointer).
  int begin(const char* name);
  void end(int span);

  // RAII form of begin/end.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), span_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int span_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  // Drops recorded spans (all must be closed).
  void clear() { spans_.clear(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t seed_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Writes spans as Chrome trace-event JSON ("X" complete events, microsecond
// timestamps, the seed in each event's args). Returns false on I/O failure.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& label);

}  // namespace chtbench

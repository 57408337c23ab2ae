#include "tracer.h"

#include <cstdio>
#include <fstream>

namespace chtbench {

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.seed = seed_;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Stamp last so the bookkeeping above is charged to the parent.
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  open_.pop_back();
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& label) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":\"" << label
      << "\"},\"traceEvents\":[\n";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"chtbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,";
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << buf << "\"args\":{\"seed\":" << s.seed << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace chtbench

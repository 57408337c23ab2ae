// Flag parsing shared by the command-line tools: `--name=VALUE` matching
// with strict value parsing (common/parse.h). A malformed value is a usage
// error, like an unknown flag: the tool prints why and exits 2.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"

namespace cht::cli {

[[noreturn]] inline void usage_error(const std::string& message) {
  std::cerr << message << "\n";
  std::exit(2);
}

// True iff `arg` is `--name=VALUE`; stores VALUE in `out`.
inline bool parse_flag(const std::string& arg, const std::string& name,
                       std::string& out) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  out = arg.substr(prefix.size());
  return true;
}

// As above for a number (or a 0/1 bool); exits 2 if VALUE is not one.
template <class T>
bool parse_flag(const std::string& arg, const std::string& name, T& out) {
  std::string text;
  if (!parse_flag(arg, name, text)) return false;
  const auto value = parse_number<T>(text);
  if (!value) usage_error("bad --" + name + "=" + text + " (not a number)");
  out = *value;
  return true;
}

// Exits 2 if `value` is below `min`.
inline void require_at_least(const std::string& flag, std::int64_t value,
                             std::int64_t min) {
  if (value >= min) return;
  usage_error("--" + flag + " must be >= " + std::to_string(min) + " (got " +
              std::to_string(value) + ")");
}

// Exits 2 unless `lo <= value <= hi` (a NaN is never in range).
inline void require_in_range(const std::string& flag, double value, double lo,
                             double hi) {
  if (value >= lo && value <= hi) return;
  std::ostringstream message;
  message << "--" << flag << " must be in [" << lo << ", " << hi << "] (got "
          << value << ")";
  usage_error(message.str());
}

// Exits 2 unless `value` is one of `known`, listing them.
inline void require_one_of(const std::string& flag, const std::string& value,
                           const std::vector<std::string>& known) {
  if (std::find(known.begin(), known.end(), value) != known.end()) return;
  std::string message = "unknown --" + flag + "=" + value + " (known:";
  for (const auto& name : known) message += " " + name;
  usage_error(message + (known.empty() ? " none)" : ")"));
}

}  // namespace cht::cli

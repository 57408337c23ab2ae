// Strict text-to-number conversion for command lines and repro artifacts.
//
// The whole text must spell one value of the target type: no leading
// whitespace or '+', no trailing characters, no out-of-range values, no
// negative unsigned numbers. Anything else is nullopt, so a caller can turn
// a garbled value into a usage error instead of an uncaught exception
// (std::stoi and friends throw) or a silently truncated prefix ("12abc").
// A bool is spelled as an integer; any nonzero value is true.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace cht {

template <class T>
std::optional<T> parse_number(std::string_view text) {
  if constexpr (std::is_same_v<T, bool>) {
    const auto value = parse_number<long long>(text);
    if (!value) return std::nullopt;
    return *value != 0;
  } else {
    static_assert(std::is_arithmetic_v<T>);
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
    return value;
  }
}

}  // namespace cht

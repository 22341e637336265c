#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace readys::util {

/// Strict numeric text: all of `text` must be one decimal literal of T
/// as std::from_chars reads it — no leading whitespace or '+', nothing
/// after the digits, no hex, inf or nan spellings. Values outside T's
/// range, and non-finite floating-point values, give nullopt.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace readys::util

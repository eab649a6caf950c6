#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace gemsd {

/// The one number reader for every user-typed value: spec keys, command-line
/// flags and trace-file fields. All of `s` must be the number, read by
/// std::from_chars: no leading space or '+', no trailing text. An integer
/// type takes only an integer in its range, read exactly (no detour through
/// a double, no '-' for an unsigned type); a double takes the nearest value
/// ("inf" and "nan" included — range checks belong to the caller). Returns
/// false, and leaves `out` unchanged, otherwise.
template <typename T>
bool parse_number(std::string_view s, T& out) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  out = v;
  return true;
}

}  // namespace gemsd

// Strict command-line number parsing for the churn drivers and
// bench_extension_scenarios. The whole token must parse: "abc", "7x", "-5"
// as a count, "nan" and "inf" are errors, never silently 0 or a crash.
// Each parser throws std::invalid_argument naming the flag; the drivers
// catch it (and any other std::exception from set-up or the run), print
// the message and exit 2.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace odn::bench {

inline std::invalid_argument bad_value(const std::string& flag,
                                       const char* text, const char* want) {
  return std::invalid_argument(flag + ": '" + text + "' is not " + want);
}

// A non-negative decimal integer that fits in 64 bits.
inline std::uint64_t parse_u64(const std::string& flag, const char* text) {
  const std::string token = text;
  if (token.empty() || token.find_first_not_of("0123456789") != token.npos)
    throw bad_value(flag, text, "a non-negative integer");
  errno = 0;
  const unsigned long long value = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE) throw bad_value(flag, text, "a 64-bit integer");
  return static_cast<std::uint64_t>(value);
}

// A finite number; with `positive`, also > 0.
inline double parse_double(const std::string& flag, const char* text,
                           bool positive = false) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value))
    throw bad_value(flag, text, "a finite number");
  if (positive && !(value > 0.0)) throw bad_value(flag, text, "positive");
  return value;
}

}  // namespace odn::bench

#include "support/knob.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>

namespace bzc {

std::optional<std::uint64_t> parseUnsigned(std::string_view text, std::uint64_t lo,
                                           std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

std::uint64_t envKnob(const char* name, std::uint64_t fallback, std::uint64_t lo,
                      std::uint64_t hi) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  if (const auto value = parseUnsigned(env, lo, hi)) return *value;
  std::cerr << name << "='" << env << "': expected a decimal integer in [" << lo << ", " << hi
            << "]\n";
  std::exit(2);
}

}  // namespace bzc

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

namespace {

std::uint64_t parseOrExit(const char* name, const char* text, std::uint64_t lo, std::uint64_t hi) {
  if (const auto value = parseUnsigned(text, lo, hi)) return *value;
  std::cerr << name << "='" << text << "': expected a decimal integer in [" << lo << ", " << hi
            << "]\n";
  std::exit(2);
}

}  // namespace

std::uint64_t envKnob(const char* name, std::uint64_t fallback, std::uint64_t lo,
                      std::uint64_t hi) {
  const char* env = std::getenv(name);
  return env == nullptr ? fallback : parseOrExit(name, env, lo, hi);
}

std::uint64_t argKnob(int argc, char** argv, int index, const char* name, std::uint64_t fallback,
                      std::uint64_t lo, std::uint64_t hi) {
  return index < argc ? parseOrExit(name, argv[index], lo, hi) : fallback;
}

}  // namespace bzc

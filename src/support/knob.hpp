// Strict parsing of the integer environment knobs the benches and examples
// read (BZC_TRIALS, BZC_THREADS, BZC_N), of the enumerated ones (BZC_OUTPUT,
// BZC_LOG) and of the examples' positional arguments. atoi-style parsing
// reads "1e6" as 1 and "abc" as 0; these parsers take the whole string or
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string_view>

namespace bzc {

/// Parses all of `text` as a base-10 unsigned integer in [lo, hi]. An empty
/// string, any character other than a digit (sign, space, exponent, suffix)
/// and an out-of-range value all yield nullopt.
[[nodiscard]] std::optional<std::uint64_t> parseUnsigned(std::string_view text, std::uint64_t lo,
                                                         std::uint64_t hi);

/// The integer environment knob `name`: `fallback` when it is unset, else its
/// value parsed by parseUnsigned. A value that does not parse into [lo, hi]
/// prints a message naming the knob to stderr and exits with status 2.
[[nodiscard]] std::uint64_t envKnob(const char* name, std::uint64_t fallback, std::uint64_t lo,
                                    std::uint64_t hi);

/// The enumerated environment knob `name`: nullopt when it is unset or empty,
/// else the index of its value in `accepted`. Any other value (case
/// included) prints a message naming the knob and listing the accepted
/// values to stderr and exits with status 2.
[[nodiscard]] std::optional<std::size_t> envChoice(
    const char* name, std::initializer_list<std::string_view> accepted);

/// Positional argument argv[index], called `name` in messages: `fallback`
/// when argc <= index, else parsed like envKnob — a value that does not parse
/// into [lo, hi] prints a message naming the argument and exits with status 2.
[[nodiscard]] std::uint64_t argKnob(int argc, char** argv, int index, const char* name,
                                    std::uint64_t fallback, std::uint64_t lo, std::uint64_t hi);

}  // namespace bzc

// Minimal leveled logger. Simulations are deterministic, so logging exists
// mainly for example binaries and for debugging failing tests; it defaults
// to Warn to keep test output quiet.
//
// The threshold initializes from BZC_LOG=off|error|warn|info|debug|trace at
// static initialisation — any other non-empty value exits with status 2 —
// and setLogLevel still overrides it programmatically. Emission
// routes through a single pluggable sink: the default writes to stderr, and
// the observability layer (src/obs/) swaps in a sink that additionally
// mirrors Warn+ lines into the active trial trace, so a warning fired mid-
// run lands on the same timeline as the round records (DESIGN.md §12). The
// BZC_LOG macro evaluates its expression only when the level passes, so a
// discarded Debug line formats nothing.
#pragma once

#include <sstream>
#include <string>

namespace bzc {

enum class LogLevel : int { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

/// Global threshold; messages below it are discarded.
void setLogLevel(LogLevel level) noexcept;
[[nodiscard]] LogLevel logLevel() noexcept;

/// Where formatted lines go. Sinks must be callable from any thread.
using LogSinkFn = void (*)(LogLevel, const std::string&);

/// The stock sink: "[LEVEL] message" to stderr.
void defaultLogSink(LogLevel level, const std::string& message);

/// Swaps the process-wide sink (nullptr restores the default).
void setLogSink(LogSinkFn sink) noexcept;

namespace detail {
void logLine(LogLevel level, const std::string& message);
}

}  // namespace bzc

#define BZC_LOG(level, expr)                                     \
  do {                                                           \
    if (static_cast<int>(level) >= static_cast<int>(::bzc::logLevel())) { \
      std::ostringstream bzc_log_os;                             \
      bzc_log_os << expr;                                        \
      ::bzc::detail::logLine(level, bzc_log_os.str());           \
    }                                                            \
  } while (false)

#define BZC_INFO(expr) BZC_LOG(::bzc::LogLevel::Info, expr)
#define BZC_WARN(expr) BZC_LOG(::bzc::LogLevel::Warn, expr)
#define BZC_DEBUG(expr) BZC_LOG(::bzc::LogLevel::Debug, expr)

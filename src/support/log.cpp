#include "support/log.hpp"

#include <atomic>
#include <iostream>

#include "support/knob.hpp"

namespace bzc {

namespace {

const char* levelName(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

/// BZC_LOG env knob; unset or empty keeps the quiet default. The accepted
/// names are listed in LogLevel order, so a name's index is its level.
int initialLevel() {
  const auto level =
      envChoice("BZC_LOG", {"trace", "debug", "info", "warn", "error", "off"});
  return static_cast<int>(level.value_or(static_cast<std::size_t>(LogLevel::Warn)));
}

std::atomic<int>& levelRef() {
  static std::atomic<int> level{initialLevel()};
  return level;
}

// Reads BZC_LOG during static initialisation, so a garbage value exits with
// status 2 before main whether or not the program ever logs.
[[maybe_unused]] const bool g_levelRead = (levelRef(), true);

std::atomic<LogSinkFn> g_sink{&defaultLogSink};

}  // namespace

void setLogLevel(LogLevel level) noexcept { levelRef().store(static_cast<int>(level)); }

LogLevel logLevel() noexcept { return static_cast<LogLevel>(levelRef().load()); }

void defaultLogSink(LogLevel level, const std::string& message) {
  std::clog << '[' << levelName(level) << "] " << message << '\n';
}

void setLogSink(LogSinkFn sink) noexcept {
  g_sink.store(sink != nullptr ? sink : &defaultLogSink);
}

namespace detail {
void logLine(LogLevel level, const std::string& message) {
  g_sink.load()(level, message);
}
}  // namespace detail

}  // namespace bzc

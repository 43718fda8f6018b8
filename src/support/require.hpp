// Lightweight precondition / invariant checking.
//
// BZC_REQUIRE   - precondition on public API arguments; throws std::invalid_argument.
// BZC_CHECK     - runtime invariant that must hold in all builds; throws std::logic_error.
// BZC_ASSERT    - debug-only internal invariant (compiled out in NDEBUG unless
//                 the build defines BZC_CHECKED; see the BZC_CHECKED CMake option).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace bzc::detail {

[[noreturn]] inline void throw_invalid_argument(const char* expr, const char* file, int line,
                                                const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::invalid_argument(os.str());
}

[[noreturn]] inline void throw_logic_error(const char* expr, const char* file, int line,
                                           const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw std::logic_error(os.str());
}

}  // namespace bzc::detail

#define BZC_REQUIRE(expr, msg)                                                   \
  do {                                                                           \
    if (!(expr)) ::bzc::detail::throw_invalid_argument(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

#define BZC_CHECK(expr, msg)                                                     \
  do {                                                                           \
    if (!(expr)) ::bzc::detail::throw_logic_error(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

#if defined(NDEBUG) && !defined(BZC_CHECKED)
#define BZC_ASSERT(expr) ((void)0)
namespace bzc { inline constexpr bool kAssertsLive = false; }
#else
#define BZC_ASSERT(expr) BZC_CHECK(expr, "debug assertion")
namespace bzc { inline constexpr bool kAssertsLive = true; }
#endif

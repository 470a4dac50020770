/**
 * @file
 * Error reporting and status messages.
 *
 * Follows the gem5 convention: fatal() is for conditions caused by the
 * user (bad graph, invalid configuration), panic() is for internal
 * invariant violations (a compiler bug). Both throw typed exceptions so
 * library embedders and tests can recover; warn() prints a status line
 * to stderr and never interrupts execution.
 */
#ifndef ASTITCH_SUPPORT_LOGGING_H
#define ASTITCH_SUPPORT_LOGGING_H

#include <stdexcept>
#include <string>
#include <utility>

#include "support/strings.h"

namespace astitch {

/** Thrown by fatal(): the user asked for something unsupported/invalid. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Thrown by panic(): an internal invariant was violated (library bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

namespace detail {

[[noreturn]] void throwFatal(const std::string &msg);
[[noreturn]] void throwPanic(const std::string &msg);
void logLine(const char *level, const std::string &msg);

} // namespace detail

/** Report a user-caused error and abort the current operation. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::throwFatal(strCat(args...));
}

/** Report an internal invariant violation (a bug in this library). */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::throwPanic(strCat(args...));
}

/** Fatal-if-not: validate user-provided input. */
template <typename... Args>
void
fatalIf(bool condition, Args &&...args)
{
    if (condition)
        fatal(std::forward<Args>(args)...);
}

/** Panic-if-not: assert an internal invariant with a message. */
template <typename... Args>
void
panicIf(bool condition, Args &&...args)
{
    if (condition)
        panic(std::forward<Args>(args)...);
}

/** Print a warning status line. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::logLine("warn", strCat(args...));
}

} // namespace astitch

#endif // ASTITCH_SUPPORT_LOGGING_H

#include "support/logging.h"

#include <cstdio>

namespace astitch {
namespace detail {

void
throwFatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
throwPanic(const std::string &msg)
{
    throw PanicError(msg);
}

void
logLine(const char *level, const std::string &msg)
{
    std::fprintf(stderr, "[astitch %s] %s\n", level, msg.c_str());
}

} // namespace detail
} // namespace astitch

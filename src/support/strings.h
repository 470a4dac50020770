/**
 * @file
 * Small string helpers shared across the library.
 */
#ifndef ASTITCH_SUPPORT_STRINGS_H
#define ASTITCH_SUPPORT_STRINGS_H

#include <sstream>
#include <string>
#include <vector>

namespace astitch {

/** Concatenate any streamable values into a string. */
template <typename... Args>
std::string
strCat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Join a range of streamable values with a separator. */
template <typename Range>
std::string
strJoin(const Range &range, const std::string &sep)
{
    std::ostringstream oss;
    bool first = true;
    for (const auto &item : range) {
        if (!first)
            oss << sep;
        oss << item;
        first = false;
    }
    return oss.str();
}

/** Split a string on a single-character separator (no empty trimming). */
std::vector<std::string> strSplit(const std::string &text, char sep);

/** True if @p text begins with @p prefix. */
bool strStartsWith(const std::string &text, const std::string &prefix);

/** True if @p text ends with @p suffix. */
bool strEndsWith(const std::string &text, const std::string &suffix);

/** Copy with leading/trailing ASCII whitespace removed. */
std::string strTrim(const std::string &text);

/** Render a double with fixed precision (for table output). */
std::string strFixed(double value, int digits);

/** Left-pad to a field width (for table output). */
std::string strPad(const std::string &text, std::size_t width);

/** Escape @p text for a JSON string literal: double quote, backslash,
 * newline and tab. */
std::string jsonEscape(const std::string &text);

} // namespace astitch

#endif // ASTITCH_SUPPORT_STRINGS_H

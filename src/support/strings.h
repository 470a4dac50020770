/**
 * @file
 * Small string helpers shared across the library.
 */
#ifndef ASTITCH_SUPPORT_STRINGS_H
#define ASTITCH_SUPPORT_STRINGS_H

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace astitch {

namespace detail {

/** Append one part to @p out; see strAppend for the rules. */
template <typename T>
void
appendPart(std::string &out, const T &part)
{
    using U = std::remove_cv_t<T>;
    static_assert(!std::is_function_v<U> &&
                      !std::is_function_v<std::remove_pointer_t<U>>,
                  "stream manipulators do not carry across parts; format "
                  "the value explicitly (e.g. strHex)");
    if constexpr (std::is_convertible_v<const T &, std::string_view>) {
        out.append(std::string_view(part));
    } else if constexpr (std::is_same_v<U, bool>) {
        out.push_back(part ? '1' : '0');
    } else if constexpr (std::is_same_v<U, char> ||
                         std::is_same_v<U, signed char> ||
                         std::is_same_v<U, unsigned char>) {
        out.push_back(static_cast<char>(part));
    } else if constexpr (std::is_integral_v<U>) {
        char digits[std::numeric_limits<U>::digits10 + 3];
        const auto end =
            std::to_chars(digits, digits + sizeof(digits), part).ptr;
        out.append(digits, static_cast<std::size_t>(end - digits));
    } else {
        std::ostringstream oss;
        oss << part;
        out += oss.str();
    }
}

} // namespace detail

/**
 * Append the text of @p parts to @p out, the one formatter behind
 * strCat, strJoin and the logging calls. Strings and string views
 * append as they are, integers through std::to_chars, char types as
 * characters and bool as 0/1; every other type (floating point, types
 * with operator<<) goes through a std::ostringstream at its defaults.
 * The text is what streaming the parts into one std::ostringstream
 * gives, without the stream.
 */
template <typename... Parts>
void
strAppend(std::string &out, const Parts &...parts)
{
    (detail::appendPart(out, parts), ...);
}

/** Concatenate the text of @p parts into a string (see strAppend). */
template <typename... Parts>
std::string
strCat(const Parts &...parts)
{
    std::string out;
    strAppend(out, parts...);
    return out;
}

/** Join a range of values with a separator (see strAppend). */
template <typename Range>
std::string
strJoin(const Range &range, std::string_view sep)
{
    std::string out;
    bool first = true;
    for (const auto &item : range) {
        if (!first)
            out.append(sep);
        strAppend(out, item);
        first = false;
    }
    return out;
}

/** Lower-case hexadecimal digits of @p value, as std::hex streams it. */
std::string strHex(std::uint64_t value);

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

#include "analysis/cuda_lexer.h"

#include <algorithm>
#include <array>
#include <string>

namespace astitch {

namespace {

/** Byte classes of the C locale's <cctype>, as one table lookup. */
enum : unsigned char {
    kSpace = 1,
    kDigit = 2,
    kAlpha = 4,
    kHexLetter = 8,
};

constexpr std::array<unsigned char, 256> kByteClass = [] {
    std::array<unsigned char, 256> table{};
    for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        table[static_cast<unsigned char>(c)] = kSpace;
    for (int c = '0'; c <= '9'; ++c)
        table[c] = kDigit;
    for (int c = 'a'; c <= 'z'; ++c) {
        table[c] = kAlpha;
        table[c - 'a' + 'A'] = kAlpha;
    }
    for (int c = 'a'; c <= 'f'; ++c) {
        table[c] |= kHexLetter;
        table[c - 'a' + 'A'] |= kHexLetter;
    }
    return table;
}();

bool
hasClass(char c, unsigned char classes)
{
    return kByteClass[static_cast<unsigned char>(c)] & classes;
}

bool
isDigit(char c)
{
    return hasClass(c, kDigit);
}

bool
isAlpha(char c)
{
    return hasClass(c, kAlpha);
}

bool
isIdentStart(char c)
{
    return isAlpha(c) || c == '_';
}

bool
isIdentChar(char c)
{
    return hasClass(c, kAlpha | kDigit) || c == '_';
}

/**
 * Length of the punctuator at the front of @p rest, longest match
 * first. The emitted subset's multi-character operators are
 *   <<= >>= ... -> ++ -- << >> <= >= == != && || += -= *= /= %= &= |=
 *   ^= ::
 * and every other byte is a one-character punctuator.
 */
std::size_t
punctLength(std::string_view rest)
{
    const char b = rest.size() > 1 ? rest[1] : '\0';
    const char c = rest.size() > 2 ? rest[2] : '\0';
    switch (rest[0]) {
      case '<':
      case '>':
        if (b == rest[0])
            return c == '=' ? 3 : 2;
        return b == '=' ? 2 : 1;
      case '.':
        return b == '.' && c == '.' ? 3 : 1;
      case '-':
        return b == '>' || b == '-' || b == '=' ? 2 : 1;
      case '+':
      case '&':
      case '|':
        return b == rest[0] || b == '=' ? 2 : 1;
      case '=':
      case '!':
      case '*':
      case '/':
      case '%':
      case '^':
        return b == '=' ? 2 : 1;
      case ':':
        return b == ':' ? 2 : 1;
      default:
        return 1;
    }
}

/**
 * std::stoll(text, nullptr, 0) (0x is hex, a leading 0 octal, a suffix
 * ends the digits), with overflow reported as false instead of thrown.
 */
bool
parseInteger(std::string_view text, std::int64_t *value)
{
    try {
        *value = std::stoll(std::string(text), nullptr, 0);
        return true;
    } catch (...) {
        return false;
    }
}

} // namespace

std::vector<CudaToken>
lexCudaSource(std::string_view source)
{
    std::vector<CudaToken> tokens;
    const std::size_t n = source.size();
    std::size_t i = 0;
    int line = 1;

    const auto push = [&](CudaTokenKind kind, std::size_t start,
                          std::size_t end) -> CudaToken & {
        CudaToken &tok = tokens.emplace_back();
        tok.kind = kind;
        tok.text = source.substr(start, end - start);
        tok.line = line;
        return tok;
    };

    while (i < n) {
        const char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (hasClass(c, kSpace)) {
            ++i;
            continue;
        }
        // Preprocessor line or line comment: skip to end of line (no
        // continuations in the emitted subset).
        if (c == '#' || (c == '/' && i + 1 < n && source[i + 1] == '/')) {
            i = std::min(source.find('\n', i), n);
            continue;
        }
        // Block comment. An unterminated one runs to the end of input;
        // its last byte is never a line break that counts.
        if (c == '/' && i + 1 < n && source[i + 1] == '*') {
            i += 2;
            const std::size_t close = source.find("*/", i);
            const std::size_t stop =
                close != std::string_view::npos ? close
                                                : std::max(i, n - 1);
            line += static_cast<int>(std::count(
                source.begin() + i, source.begin() + stop, '\n'));
            i = close != std::string_view::npos ? close + 2 : n;
            continue;
        }
        // String literal: the token views the raw bytes between the
        // quotes.
        if (c == '"') {
            const std::size_t start = ++i;
            while (i < n && source[i] != '"') {
                if (source[i] == '\\' && i + 1 < n)
                    ++i;
                ++i;
            }
            push(CudaTokenKind::String, start, i);
            if (i < n)
                ++i; // closing quote
            continue;
        }
        // Number: integer or float, optional suffix (f, u, l, ...).
        if (isDigit(c) ||
            (c == '.' && i + 1 < n && isDigit(source[i + 1]))) {
            const std::size_t start = i;
            bool integer = true;
            while (i < n) {
                const char d = source[i];
                const bool hex = i - start >= 2 &&
                                 (source[start + 1] == 'x' ||
                                  source[start + 1] == 'X');
                if (isDigit(d) || (hex && hasClass(d, kHexLetter))) {
                    ++i;
                    continue;
                }
                if (d == '.' || d == 'e' || d == 'E' || d == 'x' ||
                    d == 'X' ||
                    ((d == '+' || d == '-') &&
                     (source[i - 1] == 'e' || source[i - 1] == 'E'))) {
                    integer = integer && (d == 'x' || d == 'X');
                    ++i;
                    continue;
                }
                if (isAlpha(d)) {
                    // Suffix: u/l keep an integer, f (or any other
                    // letter outside a hex literal) does not.
                    if (!hex && d != 'u' && d != 'U' && d != 'l' &&
                        d != 'L') {
                        integer = false;
                    }
                    ++i;
                    continue;
                }
                break;
            }
            CudaToken &tok = push(CudaTokenKind::Number, start, i);
            tok.is_integer = integer && parseInteger(tok.text, &tok.value);
            continue;
        }
        // Identifier / keyword.
        if (isIdentStart(c)) {
            const std::size_t start = i;
            while (i < n && isIdentChar(source[i]))
                ++i;
            push(CudaTokenKind::Identifier, start, i);
            continue;
        }
        // Punctuation, longest match first.
        const std::size_t start = i;
        i += punctLength(source.substr(i));
        push(CudaTokenKind::Punct, start, i);
    }

    CudaToken &end = tokens.emplace_back();
    end.kind = CudaTokenKind::End;
    end.line = line;
    return tokens;
}

} // namespace astitch

#include "analysis/cuda_lexer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

namespace astitch {

namespace {

/** Byte classes of the C locale's <cctype>, as one table lookup. */
enum : unsigned char {
    kSpace = 1,
    kDigit = 2,
    kAlpha = 4,
    kHexLetter = 8,
    kWordByte = 16, ///< letters, digits and '_'
};

constexpr std::array<unsigned char, 256> kByteClass = [] {
    std::array<unsigned char, 256> table{};
    for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'})
        table[static_cast<unsigned char>(c)] = kSpace;
    for (int c = '0'; c <= '9'; ++c)
        table[c] = kDigit | kWordByte;
    for (int c = 'a'; c <= 'z'; ++c) {
        table[c] = kAlpha | kWordByte;
        table[c - 'a' + 'A'] = kAlpha | kWordByte;
    }
    for (int c = 'a'; c <= 'f'; ++c) {
        table[c] |= kHexLetter;
        table[c - 'a' + 'A'] |= kHexLetter;
    }
    table['_'] = kWordByte;
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
    return hasClass(c, kWordByte);
}

/** Spellings of the words cuda_sym fixes, from kEmpty on. */
constexpr std::string_view kWordSpellings[] = {
    "",           "if",           "else",          "for",
    "while",      "extern",       "__global__",    "__device__",
    "__launch_bounds__",          "const",         "volatile",
    "__restrict__",               "__shared__",    "__syncthreads",
    "grid_barrier",               "blockReduce",   "atomicAdd",
    "threadIdx",  "blockIdx",     "gridDim",       "blockDim",
    "float",      "smem",
};
static_assert(std::size(kWordSpellings) ==
              cuda_sym::kFirstInterned - cuda_sym::kEmpty);

std::uint64_t
load64(const char *p)
{
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
}

std::uint32_t
load32(const char *p)
{
    std::uint32_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
}

/**
 * Hash of a spelling for the table (never stored or compared across
 * processes): 8-byte words, the last one overlapping when the length
 * is no multiple of 8; shorter spellings read two overlapping 4-byte
 * halves or three bytes.
 */
std::uint64_t
spellingHash(std::string_view s)
{
    const char *p = s.data();
    const std::size_t n = s.size();
    std::uint64_t h = n * 0x9e3779b97f4a7c15ULL;
    const auto mix = [&](std::uint64_t word) {
        h = (std::rotl(h, 23) ^ word) * 0xff51afd7ed558ccdULL;
    };
    if (n >= 8) {
        for (std::size_t i = 0; i + 8 < n; i += 8)
            mix(load64(p + i));
        mix(load64(p + n - 8));
    } else if (n >= 4) {
        mix(std::uint64_t{load32(p)} << 32 | load32(p + n - 4));
    } else if (n > 0) {
        mix(std::uint64_t{static_cast<unsigned char>(p[0])} << 16 |
            std::uint64_t{static_cast<unsigned char>(p[n / 2])} << 8 |
            static_cast<unsigned char>(p[n - 1]));
    }
    h ^= h >> 32;
    h *= 0xc2b2ae3d27d4eb4fULL;
    return h ^ (h >> 29);
}

/** Whether @p a and @p b hold the same bytes, compared a word at a time. */
bool
sameSpelling(std::string_view a, std::string_view b)
{
    const std::size_t n = a.size();
    if (n != b.size())
        return false;
    const char *p = a.data();
    const char *q = b.data();
    if (n >= 8) {
        for (std::size_t i = 0; i + 8 < n; i += 8) {
            if (load64(p + i) != load64(q + i))
                return false;
        }
        return load64(p + n - 8) == load64(q + n - 8);
    }
    if (n >= 4)
        return load32(p) == load32(q) && load32(p + n - 4) == load32(q + n - 4);
    for (std::size_t i = 0; i < n; ++i) {
        if (p[i] != q[i])
            return false;
    }
    return true;
}

/**
 * Length and code of the punctuator at the front of @p rest, longest
 * match first. The emitted subset's multi-character operators are
 *   <<= >>= ... -> ++ -- << >> <= >= == != && || += -= *= /= %= &= |=
 *   ^= ::
 * and every other byte is a one-character punctuator.
 */
std::size_t
punctuator(std::string_view rest, CudaSymbol *sym)
{
    using namespace cuda_sym;
    const char a = rest[0];
    const char b = rest.size() > 1 ? rest[1] : '\0';
    const char c = rest.size() > 2 ? rest[2] : '\0';
    const auto two = [&](CudaSymbol code) {
        *sym = code;
        return std::size_t{2};
    };
    switch (a) {
      case '<':
      case '>':
        if (b == a) {
            if (c == '=') {
                *sym = a == '<' ? kShlAssign : kShrAssign;
                return 3;
            }
            return two(a == '<' ? kShl : kShr);
        }
        if (b == '=')
            return two(a == '<' ? kLessEqual : kGreaterEqual);
        break;
      case '.':
        if (b == '.' && c == '.') {
            *sym = kEllipsis;
            return 3;
        }
        break;
      case '-':
        if (b == '>')
            return two(kArrow);
        if (b == '-')
            return two(kDecrement);
        if (b == '=')
            return two(kSubAssign);
        break;
      case '+':
        if (b == '+')
            return two(kIncrement);
        if (b == '=')
            return two(kAddAssign);
        break;
      case '&':
        if (b == '&')
            return two(kLogicalAnd);
        if (b == '=')
            return two(kAndAssign);
        break;
      case '|':
        if (b == '|')
            return two(kLogicalOr);
        if (b == '=')
            return two(kOrAssign);
        break;
      case '=':
        if (b == '=')
            return two(kEqual);
        break;
      case '!':
        if (b == '=')
            return two(kNotEqual);
        break;
      case '*':
        if (b == '=')
            return two(kMulAssign);
        break;
      case '/':
        if (b == '=')
            return two(kDivAssign);
        break;
      case '%':
        if (b == '=')
            return two(kModAssign);
        break;
      case '^':
        if (b == '=')
            return two(kXorAssign);
        break;
      case ':':
        if (b == ':')
            return two(kScope);
        break;
      default:
        break;
    }
    *sym = punct(a);
    return 1;
}

/**
 * The code of a string literal's raw text: a punctuator's when the
 * text is one (a byte that starts no word, number, string, comment,
 * directive or blank), else its interned code, which a word spelled
 * alike shares.
 */
CudaSymbol
stringSymbol(std::string_view text, CudaSymbols &symbols)
{
    if (!text.empty() && !isIdentChar(text[0]) && !hasClass(text[0], kSpace) &&
        text[0] != '#' && text[0] != '"') {
        CudaSymbol code = cuda_sym::kNone;
        if (punctuator(text, &code) == text.size())
            return code;
    }
    return symbols.intern(text);
}

/** Value of hex digit @p c, or 16 when it is none. */
int
hexValue(char c)
{
    if (isDigit(c))
        return c - '0';
    if (hasClass(c, kHexLetter))
        return (c | 0x20) - 'a' + 10;
    return 16;
}

/**
 * std::stoll(text, nullptr, 0) over a Number's text, which starts with
 * a digit: 0x followed by a hex digit is hex, a leading 0 octal, and
 * the digits end at the first byte the base rejects. Overflow returns
 * false where std::stoll throws.
 */
bool
parseInteger(std::string_view text, std::int64_t *value)
{
    int base = 10;
    std::size_t i = 0;
    if (text[0] == '0') {
        base = 8;
        if (text.size() > 2 && (text[1] == 'x' || text[1] == 'X') &&
            hexValue(text[2]) < 16) {
            base = 16;
            i = 2;
        }
    }
    constexpr std::uint64_t kMax = std::numeric_limits<std::int64_t>::max();
    std::uint64_t result = 0;
    for (; i < text.size(); ++i) {
        const int digit = hexValue(text[i]);
        if (digit >= base)
            break;
        if (result > (kMax - digit) / base)
            return false;
        result = result * base + digit;
    }
    *value = static_cast<std::int64_t>(result);
    return true;
}

} // namespace

CudaSymbols::CudaSymbols() : slots_(512)
{
    words_.reserve(256);
    for (const std::string_view word : kWordSpellings)
        intern(word);
}

std::size_t
CudaSymbols::slotOf(std::string_view spelling, std::uint64_t hash) const
{
    const std::size_t mask = slots_.size() - 1;
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    std::size_t slot = hash & mask;
    while (slots_[slot].sym != cuda_sym::kNone &&
           (slots_[slot].tag != tag ||
            !sameSpelling(this->spelling(slots_[slot].sym), spelling)))
        slot = (slot + 1) & mask;
    return slot;
}

CudaSymbol
CudaSymbols::intern(std::string_view spelling)
{
    const std::uint64_t hash = spellingHash(spelling);
    const std::size_t slot = slotOf(spelling, hash);
    if (slots_[slot].sym != cuda_sym::kNone)
        return slots_[slot].sym;
    const auto sym = static_cast<CudaSymbol>(size());
    words_.push_back(spelling);
    slots_[slot] = {sym, static_cast<std::uint32_t>(hash >> 32)};
    if (words_.size() * 2 > slots_.size()) {
        // Keep the load at most one half: rehash into twice the slots.
        slots_.assign(slots_.size() * 2, Slot());
        for (CudaSymbol s = cuda_sym::kEmpty; s < size(); ++s) {
            const std::uint64_t h = spellingHash(this->spelling(s));
            slots_[slotOf(this->spelling(s), h)] = {
                s, static_cast<std::uint32_t>(h >> 32)};
        }
    }
    return sym;
}

CudaSymbol
CudaSymbols::find(std::string_view spelling) const
{
    return slots_[slotOf(spelling, spellingHash(spelling))].sym;
}

std::vector<CudaToken>
lexCudaSource(std::string_view source, CudaSymbols &symbols)
{
    std::vector<CudaToken> tokens;
    // Emitted kernels average about ten bytes a token.
    tokens.reserve(source.size() / 9 + 16);
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
        if (hasClass(c, kSpace)) {
            line += c == '\n';
            ++i;
            continue;
        }
        // Identifier / keyword.
        if (isIdentStart(c)) {
            const std::size_t start = i;
            while (i < n && isIdentChar(source[i]))
                ++i;
            CudaToken &tok = push(CudaTokenKind::Identifier, start, i);
            tok.sym = symbols.intern(tok.text);
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
            CudaToken &tok = push(CudaTokenKind::String, start, i);
            tok.sym = stringSymbol(tok.text, symbols);
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
        // Punctuation, longest match first.
        const std::size_t start = i;
        CudaSymbol code = cuda_sym::kNone;
        i += punctuator(source.substr(i), &code);
        push(CudaTokenKind::Punct, start, i).sym = code;
    }

    CudaToken &end = tokens.emplace_back();
    end.kind = CudaTokenKind::End;
    end.line = line;
    return tokens;
}

std::vector<CudaToken>
lexCudaSource(std::string_view source)
{
    CudaSymbols symbols;
    return lexCudaSource(source, symbols);
}

} // namespace astitch

/**
 * @file
 * Tokenizer for emitted CUDA C++ kernel source.
 *
 * The emitted-source static analyzer (cuda_static.h) re-derives kernel
 * structure from the *text* the CUDA emitter rendered, independently of
 * the plan metadata stitch codegen self-reports. This lexer is its
 * front end: a small, self-contained scanner over the C-like subset the
 * emitter produces. Comments and preprocessor lines are skipped — the
 * analysis must never depend on the emitter's own commentary (access
 * summaries, boundary annotations), only on executable text.
 *
 * Tokens do not copy their spelling: each one views the lexed source,
 * so the source must outlive every token lexed from it. Each token also
 * carries a symbol code (CudaSymbol) for its spelling, so the analyzer
 * compares integers where it would compare spellings.
 */
#ifndef ASTITCH_ANALYSIS_CUDA_LEXER_H
#define ASTITCH_ANALYSIS_CUDA_LEXER_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace astitch {

/** Lexical class of one token. */
enum class CudaTokenKind {
    Identifier, ///< identifiers and keywords (if/for/while/...)
    Number,     ///< integer or floating literal (value kept as text)
    String,     ///< quoted string literal, e.g. "C" in extern "C"
    Punct,      ///< operators and punctuation, longest-match
    End,        ///< end of input sentinel
};

/**
 * Code of a token's spelling. Within one CudaSymbols table, two
 * Identifier, String or Punct tokens carry the same code exactly when
 * they are spelled alike, whatever their kinds (a string literal "("
 * carries the code of the punctuator). Numbers and End carry kNone.
 */
using CudaSymbol = std::uint32_t;

namespace cuda_sym {

inline constexpr CudaSymbol kNone = 0;

/** The code of the one-character punctuator @p c. */
constexpr CudaSymbol
punct(char c)
{
    return 1 + static_cast<unsigned char>(c);
}

/**
 * Fixed codes: the multi-character operators, then the words every
 * CudaSymbols table interns first, in this order (kWordSpellings in
 * cuda_lexer.cc spells them).
 */
enum : CudaSymbol {
    kShlAssign = 257, ///< <<=
    kShrAssign,       ///< >>=
    kEllipsis,        ///< ...
    kArrow,           ///< ->
    kIncrement,       ///< ++
    kDecrement,       ///< --
    kShl,             ///< <<
    kShr,             ///< >>
    kLessEqual,       ///< <=
    kGreaterEqual,    ///< >=
    kEqual,           ///< ==
    kNotEqual,        ///< !=
    kLogicalAnd,      ///< &&
    kLogicalOr,       ///< ||
    kAddAssign,       ///< +=
    kSubAssign,       ///< -=
    kMulAssign,       ///< *=
    kDivAssign,       ///< /=
    kModAssign,       ///< %=
    kAndAssign,       ///< &=
    kOrAssign,        ///< |=
    kXorAssign,       ///< ^=
    kScope,           ///< ::
    kEmpty,           ///< the empty spelling (an empty string literal)
    kIf,
    kElse,
    kFor,
    kWhile,
    kExtern,
    kGlobal,          ///< __global__
    kDevice,          ///< __device__
    kLaunchBounds,    ///< __launch_bounds__
    kConst,
    kVolatile,
    kRestrict,        ///< __restrict__
    kShared,          ///< __shared__
    kSyncthreads,     ///< __syncthreads
    kGridBarrier,     ///< grid_barrier
    kBlockReduce,     ///< blockReduce
    kAtomicAdd,       ///< atomicAdd
    kThreadIdx,
    kBlockIdx,
    kGridDim,
    kBlockDim,
    kFloat,
    kSmem,            ///< smem, the shared arena
    kFirstInterned,   ///< codes from here on are assigned as met
};

} // namespace cuda_sym

/**
 * Interning table of one analysis: spellings to dense codes. Words and
 * string literals get codes from kEmpty on; the words named in
 * cuda_sym are interned first, so their codes are fixed. The table
 * views what it interns: every interned spelling must outlive it. One
 * table serves one call — nothing is shared between threads.
 */
class CudaSymbols
{
  public:
    CudaSymbols();

    /** The code of @p spelling, interning it when new. */
    CudaSymbol intern(std::string_view spelling);

    /** The code of @p spelling, or kNone when it was never interned. */
    CudaSymbol find(std::string_view spelling) const;

    /** The spelling of interned code @p sym (kEmpty or above). */
    std::string_view spelling(CudaSymbol sym) const
    {
        return words_[sym - cuda_sym::kEmpty];
    }

    /** One past the largest code handed out so far. */
    std::size_t size() const { return cuda_sym::kEmpty + words_.size(); }

  private:
    /** One open-addressing slot: a code (kNone when free) and the high
     * half of its spelling's hash, which rules most mismatches out. */
    struct Slot
    {
        CudaSymbol sym = cuda_sym::kNone;
        std::uint32_t tag = 0;
    };

    /** The slot holding @p spelling, or the free slot it would take. */
    std::size_t slotOf(std::string_view spelling, std::uint64_t hash) const;

    std::vector<std::string_view> words_; ///< by code - kEmpty
    std::vector<Slot> slots_;             ///< a power of two of them
};

/** One token of emitted CUDA source. */
struct CudaToken
{
    CudaTokenKind kind = CudaTokenKind::End;
    CudaSymbol sym = cuda_sym::kNone; ///< code of the spelling
    /** Exact source spelling, viewing the lexed source (a String views
     * its raw bytes between the quotes, escapes unprocessed). */
    std::string_view text;
    std::int64_t value = 0; ///< integer value for integer Numbers
    bool is_integer = false; ///< Number parsed as a plain integer
    int line = 0;           ///< 1-based source line

    bool is(std::string_view t) const { return text == t; }
};

/**
 * Tokenize @p source, skipping whitespace, // and C-style comments and
 * preprocessor lines. The returned vector always ends with one End
 * token. Unknown bytes lex as single-character Punct tokens — the
 * lexer never fails, so the analyzer can always report *something*
 * about malformed text instead of crashing on it. Integer Numbers take
 * the value std::stoll(text, nullptr, 0) gives; one it would reject
 * (overflow) is not an integer. The tokens view @p source, which must
 * outlive them, and carry codes from @p symbols.
 */
std::vector<CudaToken> lexCudaSource(std::string_view source,
                                     CudaSymbols &symbols);

/** lexCudaSource() with a table of its own. */
std::vector<CudaToken> lexCudaSource(std::string_view source);

} // namespace astitch

#endif // ASTITCH_ANALYSIS_CUDA_LEXER_H

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
 * so the source must outlive every token lexed from it.
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

/** One token of emitted CUDA source. */
struct CudaToken
{
    CudaTokenKind kind = CudaTokenKind::End;
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
 * about malformed text instead of crashing on it. The tokens view
 * @p source, which must outlive them.
 */
std::vector<CudaToken> lexCudaSource(std::string_view source);

} // namespace astitch

#endif // ASTITCH_ANALYSIS_CUDA_LEXER_H

#include "analysis/cuda_static.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <set>
#include <span>
#include <string_view>

#include "analysis/access_model.h"
#include "analysis/cuda_lexer.h"
#include "support/strings.h"

namespace astitch {

namespace {

namespace sym = cuda_sym;

constexpr CudaSymbol kOpenParen = sym::punct('(');
constexpr CudaSymbol kCloseParen = sym::punct(')');
constexpr CudaSymbol kOpenBracket = sym::punct('[');
constexpr CudaSymbol kCloseBracket = sym::punct(']');
constexpr CudaSymbol kOpenBrace = sym::punct('{');
constexpr CudaSymbol kCloseBrace = sym::punct('}');
constexpr CudaSymbol kSemicolon = sym::punct(';');
constexpr CudaSymbol kComma = sym::punct(',');
constexpr CudaSymbol kStar = sym::punct('*');
constexpr CudaSymbol kDot = sym::punct('.');
constexpr CudaSymbol kAssign = sym::punct('=');
constexpr CudaSymbol kLess = sym::punct('<');
constexpr CudaSymbol kPlus = sym::punct('+');
constexpr CudaSymbol kAmpersand = sym::punct('&');

// =====================================================================
// Parser: the emitted C-like subset -> structured statements.
// =====================================================================

/** A run of tokens inside CudaProgram::tokens. */
using TokenSpan = std::span<const CudaToken>;

enum class BarrierKind { None, Sync, Grid, BlockReduce };

/**
 * One parsed statement. Every statement of a program sits in one array
 * in pre-order, so statement i's subtree is [i, end): its first child
 * (a block's first statement, the then branch, a loop body) is i + 1,
 * and each child's `end` is where the next child starts.
 */
struct CudaStmt
{
    enum class Kind { Block, If, For, While, Simple };

    Kind kind = Kind::Simple;
    int line = 0;

    TokenSpan cond;   ///< if/while condition, for condition
    TokenSpan init;   ///< for initializer
    TokenSpan step;   ///< for step expression
    TokenSpan tokens; ///< Simple statement tokens (no ';')

    /** The barrier a Simple statement calls, if any. */
    BarrierKind barrier = BarrierKind::None;
    bool has_else = false;

    int end = 0;           ///< one past the last statement of the subtree
    int last_child = -1;   ///< Block: its last statement, -1 when empty
    int prev_sibling = -1; ///< in a Block: the statement before, or -1
};

/** One declared function parameter. */
struct CudaParam
{
    std::string_view name;
    CudaSymbol name_sym = sym::kNone;
    CudaSymbol base_type = sym::kNone;
    bool is_pointer = false;
    bool is_volatile = false;
};

/** One parsed function definition. */
struct CudaFunction
{
    CudaSymbol name = sym::kNone;
    bool is_global = false;
    std::int64_t launch_bounds_block = -1;
    std::vector<CudaParam> params;
    int body = -1; ///< its Block in CudaProgram::stmts, -1 = no body
};

/**
 * Parse result for one translation unit. It owns the symbol table and
 * the one token vector that every statement's spans view, and both view
 * the source text: the program is valid only while that text lives.
 * Move-only, as a copy's spans would still view the original's tokens.
 */
struct CudaProgram
{
    CudaSymbols symbols;
    std::vector<CudaToken> tokens;
    std::vector<CudaStmt> stmts;
    std::vector<CudaFunction> functions;
    bool ok = true;
    std::string error;

    CudaProgram() = default;
    CudaProgram(CudaProgram &&) = default;
    CudaProgram(const CudaProgram &) = delete;
    CudaProgram &operator=(const CudaProgram &) = delete;
};

/** Single-scan barrier classification of one statement's tokens. */
BarrierKind
barrierKindOf(TokenSpan tokens)
{
    bool grid = false;
    bool reduce = false;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (tokens[i].kind != CudaTokenKind::Identifier ||
            tokens[i + 1].sym != kOpenParen) {
            continue;
        }
        if (tokens[i].sym == sym::kSyncthreads)
            return BarrierKind::Sync;
        grid = grid || tokens[i].sym == sym::kGridBarrier;
        reduce = reduce || tokens[i].sym == sym::kBlockReduce;
    }
    return grid     ? BarrierKind::Grid
           : reduce ? BarrierKind::BlockReduce
                    : BarrierKind::None;
}

class Parser
{
  public:
    explicit Parser(CudaProgram &prog) : prog_(prog), toks_(prog.tokens) {}

    void
    parse()
    {
        while (!atEnd()) {
            const std::size_t before = pos_;
            if (!parseFunction()) {
                if (!prog_.ok)
                    break;
                // Not a function start here; skip one token. The
                // emitted subset has only function definitions at the
                // top level, so this path only swallows stray tokens
                // of text the analyzer has no opinion about.
                pos_ = before + 1;
            }
        }
    }

  private:
    const CudaToken &cur() const { return toks_[pos_]; }

    const CudaToken &
    peek() const
    {
        return toks_[std::min(pos_ + 1, toks_.size() - 1)];
    }

    bool atEnd() const { return cur().kind == CudaTokenKind::End; }

    void advance() { pos_ = std::min(pos_ + 1, toks_.size() - 1); }

    bool
    fail(std::string_view what)
    {
        prog_.ok = false;
        prog_.error = strCat(what, " at line ", cur().line);
        return false;
    }

    /** Try to parse one function definition at the cursor. */
    bool
    parseFunction()
    {
        const std::size_t start = pos_;
        CudaFunction fn;

        // Declaration specifiers up to the function name. The name is
        // recognized as an identifier directly followed by '(' that is
        // not one of the paren-taking specifiers.
        bool found_name = false;
        while (!atEnd()) {
            const CudaSymbol s = cur().sym;
            if (s == sym::kExtern) {
                advance();
                if (cur().kind == CudaTokenKind::String)
                    advance();
                continue;
            }
            if (s == sym::kGlobal) {
                fn.is_global = true;
                advance();
                continue;
            }
            if (s == sym::kDevice) {
                advance();
                continue;
            }
            if (s == sym::kLaunchBounds) {
                advance();
                if (cur().sym != kOpenParen) {
                    pos_ = start;
                    return false;
                }
                advance();
                // The first integer argument is the block size.
                int depth = 1;
                bool first = true;
                while (!atEnd() && depth > 0) {
                    if (cur().sym == kOpenParen) {
                        ++depth;
                    } else if (cur().sym == kCloseParen) {
                        --depth;
                    } else if (first && cur().kind == CudaTokenKind::Number &&
                               cur().is_integer) {
                        fn.launch_bounds_block = cur().value;
                        first = false;
                    }
                    advance();
                }
                continue;
            }
            if (cur().kind == CudaTokenKind::Identifier &&
                peek().sym == kOpenParen) {
                fn.name = s;
                advance();
                found_name = true;
                break;
            }
            if (cur().kind == CudaTokenKind::Identifier || s == kStar) {
                // return-type tokens (void, float, unsigned, ...)
                advance();
                continue;
            }
            break;
        }
        if (!found_name) {
            pos_ = start;
            return false;
        }

        advance(); // '('
        CudaParam param;
        const auto flush_param = [&] {
            // "void" alone and empty fragments are not parameters.
            if (param.name_sym != sym::kNone &&
                param.name_sym != param.base_type)
                fn.params.push_back(param);
            param = CudaParam();
        };
        while (!atEnd() && cur().sym != kCloseParen) {
            const CudaSymbol s = cur().sym;
            if (s == kComma) {
                flush_param();
            } else if (s == kStar) {
                param.is_pointer = true;
            } else if (s == sym::kVolatile) {
                param.is_volatile = true;
            } else if (s != sym::kConst && s != sym::kRestrict &&
                       cur().kind == CudaTokenKind::Identifier) {
                if (param.base_type == sym::kNone)
                    param.base_type = s;
                param.name_sym = s;
                param.name = cur().text;
            }
            advance();
        }
        flush_param();
        if (atEnd())
            return fail("unterminated parameter list");
        advance(); // ')'

        if (cur().sym == kSemicolon) {
            // Forward declaration: keep the signature, no body.
            advance();
            prog_.functions.push_back(std::move(fn));
            return true;
        }
        if (cur().sym != kOpenBrace) {
            pos_ = start;
            return false;
        }
        fn.body = parseStmt();
        if (fn.body < 0)
            return false;
        prog_.functions.push_back(std::move(fn));
        return true;
    }

    /**
     * Span the tokens up to @p terminator at paren depth 0 (the
     * terminator is consumed, not spanned).
     */
    bool
    collectUntil(char terminator, TokenSpan &out)
    {
        const CudaSymbol stop = sym::punct(terminator);
        const std::size_t begin = pos_;
        int depth = 0;
        while (!atEnd()) {
            const CudaSymbol s = cur().sym;
            if (depth == 0 && s == stop) {
                out = TokenSpan(toks_).subspan(begin, pos_ - begin);
                advance();
                return true;
            }
            if (s == kOpenParen || s == kOpenBracket)
                ++depth;
            else if (s == kCloseParen || s == kCloseBracket)
                --depth;
            advance();
        }
        return fail(strCat("missing '", terminator, "'"));
    }

    /** `( head... )` after if/for/while: fails unless '(' opens it. */
    bool
    expectOpenParen(std::string_view keyword)
    {
        if (cur().sym != kOpenParen)
            return fail(strCat("expected '(' after ", keyword));
        advance();
        return true;
    }

    /**
     * Parse one statement (and its subtree) onto the end of the
     * program's statement array; returns its index or -1. Children
     * append to the array, so the statement is re-indexed after each.
     */
    int
    parseStmt()
    {
        std::vector<CudaStmt> &stmts = prog_.stmts;
        const int idx = static_cast<int>(stmts.size());
        stmts.emplace_back().line = cur().line;
        const CudaSymbol s = cur().sym;

        if (s == kOpenBrace) {
            advance();
            stmts[idx].kind = CudaStmt::Kind::Block;
            int prev = -1;
            while (!atEnd() && cur().sym != kCloseBrace) {
                const int child = parseStmt();
                if (child < 0)
                    return -1;
                stmts[child].prev_sibling = prev;
                prev = child;
            }
            stmts[idx].last_child = prev;
            if (atEnd()) {
                fail("unterminated block");
                return -1;
            }
            advance(); // '}'
        } else if (s == sym::kIf) {
            advance();
            stmts[idx].kind = CudaStmt::Kind::If;
            if (!expectOpenParen("if") ||
                !collectUntil(')', stmts[idx].cond) || parseStmt() < 0)
                return -1;
            if (cur().sym == sym::kElse) {
                advance();
                if (parseStmt() < 0)
                    return -1;
                stmts[idx].has_else = true;
            }
        } else if (s == sym::kFor) {
            advance();
            stmts[idx].kind = CudaStmt::Kind::For;
            if (!expectOpenParen("for") ||
                !collectUntil(';', stmts[idx].init) ||
                !collectUntil(';', stmts[idx].cond) ||
                !collectUntil(')', stmts[idx].step) || parseStmt() < 0)
                return -1;
        } else if (s == sym::kWhile) {
            advance();
            stmts[idx].kind = CudaStmt::Kind::While;
            if (!expectOpenParen("while") ||
                !collectUntil(')', stmts[idx].cond) || parseStmt() < 0)
                return -1;
        } else if (s == kSemicolon) {
            advance();
        } else {
            if (!collectUntil(';', stmts[idx].tokens))
                return -1;
            stmts[idx].barrier = barrierKindOf(stmts[idx].tokens);
        }

        stmts[idx].end = static_cast<int>(stmts.size());
        return idx;
    }

    CudaProgram &prog_;
    const std::vector<CudaToken> &toks_;
    std::size_t pos_ = 0;
};

/** Lex and parse @p source; the program views it (see CudaProgram). */
CudaProgram
parseCudaSource(std::string_view source)
{
    CudaProgram prog;
    prog.tokens = lexCudaSource(source, prog.symbols);
    prog.stmts.reserve(prog.tokens.size() / 8 + 1);
    Parser(prog).parse();
    return prog;
}

// =====================================================================
// Divergence lattice and expression classification.
// =====================================================================

/** Uniform < BlockVarying < ThreadVarying; join is max. */
enum Div : int {
    kUniform = 0,
    kBlockVarying = 1,
    kThreadVarying = 2,
};

const char *
divName(int d)
{
    switch (d) {
      case kUniform:
        return "uniform";
      case kBlockVarying:
        return "block-divergent";
      default:
        return "thread-divergent";
    }
}

/**
 * Divergence of each assigned variable of one function, indexed by the
 * symbol code of its spelling. Bindings only rise. Each binding records
 * its birth (the number of bindings before it), and every rise lowers
 * raised_floor to the risen binding's birth: a loop whose body lowers
 * the floor below the binding count at loop entry raised a variable
 * bound before the loop, so its next iteration can see more divergence
 * than the last pass assumed.
 */
struct DivEnv
{
    static constexpr std::size_t kUnbound =
        std::numeric_limits<std::size_t>::max();

    struct Binding
    {
        int div = kUniform;
        std::size_t birth = kUnbound;
    };

    explicit DivEnv(std::size_t symbols) : bindings(symbols) {}

    std::vector<Binding> bindings; ///< by symbol; unbound ones are Uniform
    std::vector<CudaSymbol> bound; ///< the bound symbols, by birth
    std::size_t raised_floor = kUnbound;

    int lookup(CudaSymbol name) const { return bindings[name].div; }

    /** Join @p div into @p name's binding, creating it if new. */
    void
    join(CudaSymbol name, int div)
    {
        Binding &binding = bindings[name];
        if (binding.birth == kUnbound) {
            binding.birth = bound.size();
            bound.push_back(name);
        }
        if (div <= binding.div)
            return;
        binding.div = div;
        raised_floor = std::min(raised_floor, binding.birth);
    }

    /** Forget every binding, for the next function. */
    void
    clear()
    {
        for (const CudaSymbol name : bound)
            bindings[name] = Binding();
        bound.clear();
        raised_floor = kUnbound;
    }
};

int
identifierDiv(CudaSymbol name, const DivEnv &env)
{
    switch (name) {
      case sym::kThreadIdx:
        return kThreadVarying;
      case sym::kBlockIdx:
        return kBlockVarying;
      case sym::kGridDim:
      case sym::kBlockDim:
        return kUniform;
      default:
        return env.lookup(name);
    }
}

/** Join of all identifiers in @p tokens (field names after '.' skip). */
int
exprDiv(TokenSpan tokens, const DivEnv &env)
{
    int div = kUniform;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != CudaTokenKind::Identifier)
            continue;
        if (i > 0 && tokens[i - 1].sym == kDot)
            continue;
        div = std::max(div, identifierDiv(tokens[i].sym, env));
    }
    return div;
}

/** `=` and the compound assignments a declarator folds. */
bool
isAssignment(CudaSymbol s)
{
    return s == kAssign || s == sym::kAddAssign || s == sym::kSubAssign ||
           s == sym::kMulAssign || s == sym::kDivAssign ||
           s == sym::kModAssign;
}

/**
 * Fold one declarator segment into the environment: `T v = expr` and
 * `v op= expr` join div(expr) into v. Array stores (`v[...] = ...`)
 * change no scalar binding.
 */
void
foldDeclarator(TokenSpan seg, DivEnv &env)
{
    // Find the depth-0 assignment operator.
    std::size_t assign = seg.size();
    int depth = 0;
    for (std::size_t i = 0; i < seg.size(); ++i) {
        const CudaSymbol s = seg[i].sym;
        if (s == kOpenParen || s == kOpenBracket)
            ++depth;
        else if (s == kCloseParen || s == kCloseBracket)
            --depth;
        else if (depth == 0 && seg[i].kind == CudaTokenKind::Punct &&
                 isAssignment(s)) {
            assign = i;
            break;
        }
    }
    if (assign >= seg.size())
        return;
    // Array store? The lhs then contains '['.
    CudaSymbol lhs_name = sym::kNone;
    for (std::size_t i = 0; i < assign; ++i) {
        if (seg[i].sym == kOpenBracket)
            return;
        if (seg[i].kind == CudaTokenKind::Identifier)
            lhs_name = seg[i].sym;
    }
    if (lhs_name == sym::kNone)
        return;
    int div = exprDiv(seg.subspan(assign + 1), env);
    if (seg[assign].sym != kAssign)
        div = std::max(div, identifierDiv(lhs_name, env));
    env.join(lhs_name, div);
}

/**
 * Fold declarations/assignments in one statement's tokens into the
 * environment, one comma-separated declarator at paren depth 0 at a
 * time.
 */
void
foldAssignments(TokenSpan tokens, DivEnv &env)
{
    std::size_t seg_start = 0;
    int depth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const CudaSymbol s = tokens[i].sym;
        if (s == kOpenParen || s == kOpenBracket)
            ++depth;
        else if (s == kCloseParen || s == kCloseBracket)
            --depth;
        else if (depth == 0 && s == kComma) {
            foldDeclarator(tokens.subspan(seg_start, i - seg_start), env);
            seg_start = i + 1;
        }
    }
    foldDeclarator(tokens.subspan(seg_start), env);
}

// =====================================================================
// Canonical loop classification (the emitted packing/serial loops).
// =====================================================================

struct LoopInfo
{
    enum class Seed { Literal, BlockIdx, ThreadIdx, Other };
    enum class Step { Literal, GridDim, BlockDim, Other };

    /** The last identifier before the initializer's '=' (kEmpty: none,
     * which only an empty string literal matches). */
    CudaSymbol var = sym::kEmpty;
    Seed seed = Seed::Other;
    std::int64_t seed_value = 0;
    bool upper_bounded = false; ///< condition is `var < <literal>`
    std::int64_t bound = -1;
    Step step = Step::Other;
    std::int64_t step_value = 0;
};

/** Match `base . x` at t[i..]. */
bool
isDimField(TokenSpan t, std::size_t i, CudaSymbol base)
{
    return i + 1 < t.size() && t[i].sym == base && t[i + 1].sym == kDot;
}

bool
isIntegerLiteral(const CudaToken &t)
{
    return t.kind == CudaTokenKind::Number && t.is_integer;
}

LoopInfo
classifyLoop(const CudaStmt &stmt)
{
    LoopInfo info;

    // init: `T var = seed` (seed: literal | blockIdx.x | threadIdx.x)
    std::size_t assign = stmt.init.size();
    for (std::size_t i = 0; i < stmt.init.size(); ++i) {
        if (stmt.init[i].sym == kAssign) {
            assign = i;
            break;
        }
        if (stmt.init[i].kind == CudaTokenKind::Identifier)
            info.var = stmt.init[i].sym;
    }
    if (assign + 1 < stmt.init.size()) {
        const CudaToken &s = stmt.init[assign + 1];
        if (isIntegerLiteral(s)) {
            info.seed = LoopInfo::Seed::Literal;
            info.seed_value = s.value;
        } else if (isDimField(stmt.init, assign + 1, sym::kBlockIdx)) {
            info.seed = LoopInfo::Seed::BlockIdx;
        } else if (isDimField(stmt.init, assign + 1, sym::kThreadIdx)) {
            info.seed = LoopInfo::Seed::ThreadIdx;
        }
    }

    // cond: `var < <integer literal>`
    if (stmt.cond.size() == 3 && stmt.cond[0].sym == info.var &&
        stmt.cond[1].sym == kLess && isIntegerLiteral(stmt.cond[2])) {
        info.upper_bounded = true;
        info.bound = stmt.cond[2].value;
    }

    // step: `var += gridDim.x | blockDim.x | <literal>` or `++var`...
    for (std::size_t i = 0; i < stmt.step.size(); ++i) {
        if (stmt.step[i].sym != sym::kAddAssign)
            continue;
        if (i + 1 < stmt.step.size()) {
            const CudaToken &s = stmt.step[i + 1];
            if (isIntegerLiteral(s)) {
                info.step = LoopInfo::Step::Literal;
                info.step_value = s.value;
            } else if (isDimField(stmt.step, i + 1, sym::kGridDim)) {
                info.step = LoopInfo::Step::GridDim;
            } else if (isDimField(stmt.step, i + 1, sym::kBlockDim)) {
                info.step = LoopInfo::Step::BlockDim;
            }
        }
        break;
    }
    if (info.step == LoopInfo::Step::Other) {
        for (const CudaToken &t : stmt.step) {
            if (t.sym == sym::kIncrement || t.sym == sym::kDecrement) {
                info.step = LoopInfo::Step::Literal;
                info.step_value = 1;
                break;
            }
        }
    }
    return info;
}

bool
isTaskLoop(const LoopInfo &info)
{
    return info.seed == LoopInfo::Seed::BlockIdx &&
           info.step == LoopInfo::Step::GridDim;
}

/**
 * Control-flow divergence a loop's trip count contributes to its body:
 * Uniform when every thread of the required scope executes the same
 * number of iterations under the plan's launch dims.
 */
int
loopContribution(const CudaStmt &stmt, const LoopInfo &info,
                 const DivEnv &env, std::int64_t grid, std::int64_t block)
{
    if (info.upper_bounded) {
        if (info.seed == LoopInfo::Seed::Literal &&
            info.step != LoopInfo::Step::Other) {
            return kUniform; // same trip count device-wide
        }
        if (isTaskLoop(info)) {
            return grid > 0 && info.bound % grid == 0 ? kUniform
                                                      : kBlockVarying;
        }
        if (info.seed == LoopInfo::Seed::ThreadIdx &&
            info.step == LoopInfo::Step::BlockDim) {
            return block > 0 && info.bound % block == 0 ? kUniform
                                                        : kThreadVarying;
        }
    }
    return exprDiv(stmt.cond, env);
}

/** Zero-trip loop / constant-false condition: provably dead body. */
bool
loopProvablyDead(const LoopInfo &info)
{
    return info.upper_bounded && info.seed == LoopInfo::Seed::Literal &&
           info.seed_value >= info.bound;
}

bool
condProvablyFalse(TokenSpan cond)
{
    return cond.size() == 1 && isIntegerLiteral(cond[0]) &&
           cond[0].value == 0;
}

// =====================================================================
// Divergence walk (AS901 / AS902).
// =====================================================================

struct DivergenceWalk
{
    const std::vector<CudaStmt> &stmts;
    std::int64_t grid;
    std::int64_t block;
    DivEnv env;
    /** (code, message) in program order; reported once the walk ends. */
    std::vector<std::pair<const char *, std::string>> findings;

    /** Every barrier in statement @p idx's subtree, in program order. */
    void
    deadBarrier(int idx)
    {
        for (int i = idx; i < stmts[idx].end; ++i) {
            if (stmts[i].barrier == BarrierKind::None)
                continue;
            findings.emplace_back(
                "AS902",
                strCat("line ", stmts[i].line, ": barrier inside provably "
                       "dead control flow never executes; the schedule "
                       "it implements cannot be realized"));
        }
    }

    /**
     * Run @p pass (one walk of a loop body plus its back edge) until a
     * pass raises no binding that existed before the loop. Only the
     * last pass's findings stand: it saw every divergence a later
     * iteration can carry around the back edge.
     */
    template <typename Pass>
    void
    iterateLoop(Pass &&pass)
    {
        const std::size_t epoch = env.bound.size();
        const std::size_t mark = findings.size();
        std::size_t floor = env.raised_floor;
        for (;;) {
            env.raised_floor = std::numeric_limits<std::size_t>::max();
            pass();
            floor = std::min(floor, env.raised_floor);
            if (env.raised_floor >= epoch)
                break;
            findings.resize(mark);
        }
        env.raised_floor = floor;
    }

    void
    walk(int idx, int ctx)
    {
        const CudaStmt &stmt = stmts[idx];
        switch (stmt.kind) {
          case CudaStmt::Kind::Block:
            for (int child = idx + 1; child < stmt.end;
                 child = stmts[child].end)
                walk(child, ctx);
            break;
          case CudaStmt::Kind::Simple: {
            const BarrierKind kind = stmt.barrier;
            if ((kind == BarrierKind::Sync ||
                 kind == BarrierKind::BlockReduce) &&
                ctx >= kThreadVarying) {
                findings.emplace_back(
                    "AS901",
                    strCat("line ", stmt.line, ": ",
                           kind == BarrierKind::Sync
                               ? "__syncthreads()"
                               : "blockReduce() (contains "
                                 "__syncthreads)",
                           " reachable under ", divName(ctx),
                           " control flow: threads of one block may "
                           "disagree on reaching the barrier"));
            } else if (kind == BarrierKind::Grid && ctx >= kBlockVarying) {
                findings.emplace_back(
                    "AS901",
                    strCat("line ", stmt.line, ": grid_barrier() "
                           "reachable under ", divName(ctx),
                           " control flow: blocks may disagree on the "
                           "barrier trip count and deadlock the "
                           "inter-block barrier"));
            }
            foldAssignments(stmt.tokens, env);
            break;
          }
          case CudaStmt::Kind::If: {
            const int then_branch = idx + 1;
            const int else_branch = stmts[then_branch].end;
            if (condProvablyFalse(stmt.cond)) {
                deadBarrier(then_branch);
                if (stmt.has_else)
                    walk(else_branch, ctx);
                break;
            }
            const int child_ctx =
                std::max(ctx, exprDiv(stmt.cond, env));
            walk(then_branch, child_ctx);
            if (stmt.has_else)
                walk(else_branch, child_ctx);
            break;
          }
          case CudaStmt::Kind::For: {
            foldAssignments(stmt.init, env);
            const LoopInfo info = classifyLoop(stmt);
            if (loopProvablyDead(info)) {
                deadBarrier(idx + 1);
                break;
            }
            iterateLoop([&] {
                walk(idx + 1,
                     std::max(ctx, loopContribution(stmt, info, env, grid,
                                                    block)));
                foldAssignments(stmt.step, env);
            });
            break;
          }
          case CudaStmt::Kind::While: {
            if (condProvablyFalse(stmt.cond)) {
                deadBarrier(idx + 1);
                break;
            }
            iterateLoop([&] {
                walk(idx + 1, std::max(ctx, exprDiv(stmt.cond, env)));
            });
            break;
          }
        }
    }
};

// =====================================================================
// Barrier-free paths to kernel exit (AS922).
// =====================================================================

bool
isSmemName(std::string_view name)
{
    return name == "smem" || (name.size() > 5 && name.ends_with("_smem"));
}

/** `NAME[ ... ] = ...`: a store to NAME at the head of @p t. */
bool
isHeadStore(TokenSpan t)
{
    if (t.size() < 2 || t[0].kind != CudaTokenKind::Identifier ||
        t[1].sym != kOpenBracket) {
        return false;
    }
    int depth = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        const CudaSymbol s = t[i].sym;
        if (s == kOpenBracket || s == kOpenParen)
            ++depth;
        else if (s == kCloseBracket || s == kCloseParen)
            --depth;
        else if (depth == 0 && s == kAssign)
            return true;
    }
    return false;
}

/** A head store to an smem buffer; @p buffer receives its name. */
bool
isSmemStore(const CudaStmt &stmt, std::string_view *buffer)
{
    const TokenSpan t = stmt.tokens;
    if (t.size() < 4 || !isHeadStore(t) || !isSmemName(t[0].text))
        return false;
    *buffer = t[0].text;
    return true;
}

/** A shared-memory store and the buffer it writes. */
using SmemStore = std::pair<int, std::string_view>;

/**
 * Walk statement @p idx of @p stmts backwards. @p open says whether
 * kernel exit is reachable from the point after the statement along a
 * path that crosses no barrier statement; returns the same for the
 * point before it, and appends to @p stores each shared-memory store
 * with such a path. break, continue and return get no control-flow
 * meaning (the emitter writes none; the parser keeps them as plain
 * statements), so every path out of a statement leaves through its end.
 * Dead code is not pruned, and a loop may run zero times while every
 * iteration returns to its head, so a loop body ends where the loop
 * does.
 */
bool
exitOpenBefore(const std::vector<CudaStmt> &stmts, int idx, bool open,
               std::vector<SmemStore> &stores)
{
    const CudaStmt &stmt = stmts[idx];
    switch (stmt.kind) {
      case CudaStmt::Kind::Block:
        for (int child = stmt.last_child; child >= 0;
             child = stmts[child].prev_sibling)
            open = exitOpenBefore(stmts, child, open, stores);
        return open;
      case CudaStmt::Kind::Simple: {
        if (stmt.barrier != BarrierKind::None)
            return false; // the barrier orders every earlier store
        std::string_view buffer;
        if (open && isSmemStore(stmt, &buffer))
            stores.emplace_back(idx, buffer);
        return open;
      }
      case CudaStmt::Kind::If: {
        // Without an else, the condition can skip the then branch.
        const bool then_open = exitOpenBefore(stmts, idx + 1, open, stores);
        const bool else_open =
            stmt.has_else ? exitOpenBefore(stmts, stmts[idx + 1].end, open,
                                           stores)
                          : open;
        return then_open || else_open;
      }
      case CudaStmt::Kind::For:
      case CudaStmt::Kind::While:
        exitOpenBefore(stmts, idx + 1, open, stores);
        return open;
    }
    return open;
}

// =====================================================================
// Cross-check helpers.
// =====================================================================

/**
 * Append the emitter's identifier for node @p id's value, re-derived
 * independently: "v_" and the node name, each byte that is not a letter
 * or digit written as '_'.
 */
void
appendValueName(std::string &out, const Graph &graph, NodeId id)
{
    out += "v_";
    for (const char c : graph.node(id).name())
        out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
}

const CudaFunction *
findFunction(const CudaProgram &prog, CudaSymbol name)
{
    for (const CudaFunction &fn : prog.functions) {
        if (fn.name == name && fn.body >= 0)
            return &fn;
    }
    return nullptr;
}

const CudaFunction *
findKernel(const CudaProgram &prog)
{
    for (const CudaFunction &fn : prog.functions) {
        if (fn.is_global && fn.body >= 0)
            return &fn;
    }
    return nullptr;
}

/** Access bits KernelFacts::indexed keeps per symbol. */
enum : std::uint8_t {
    kReadBit = 1,  ///< the text reads NAME[...]
    kWriteBit = 2, ///< the text writes NAME[...]
    kAliasBit = 4, ///< NAME is a regional-buffer alias of the arena
};

std::uint8_t
accessBit(AccessKind kind)
{
    return kind == AccessKind::Read ? kReadBit : kWriteBit;
}

/**
 * What the plan cross-checks, the AS923 lint and the survey read off a
 * kernel body, collected in one program-order walk.
 */
struct KernelFacts
{
    int sync_statements = 0;    ///< __syncthreads() statements
    int grid_barrier_calls = 0; ///< grid_barrier() statements
    /** `__shared__ float smem[N]` declared words (the last), -1 none. */
    std::int64_t arena_words = -1;
    /** `float *NAME = smem + K;` regional-buffer aliases (NAME, K), the
     * last declaration of each name, in no particular order. */
    std::vector<std::pair<CudaSymbol, std::int64_t>> arena_aliases;
    /** Canonical vertical-packing loops: (line, shape). */
    std::vector<std::pair<int, LoopInfo>> task_loops;
    /** Access bits of each symbol, for the indexed buffers. */
    std::vector<std::uint8_t> indexed;
    /** The symbols with a read or write bit, in no particular order. */
    std::vector<CudaSymbol> indexed_names;
};

KernelFacts
collectKernelFacts(const CudaProgram &prog, const CudaFunction &kernel)
{
    KernelFacts facts;
    facts.indexed.assign(prog.symbols.size(), 0);
    // A head-position `NAME[...] = ...` is a write to NAME; every other
    // `NAME[` is a read. atomicAdd(&NAME[...],..) counts as a write.
    const auto scan = [&](TokenSpan t, bool statement) {
        const std::size_t write_head =
            statement && isHeadStore(t) ? 0 : t.size();
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != CudaTokenKind::Identifier ||
                t[i + 1].sym != kOpenBracket)
                continue;
            const bool write =
                i == write_head ||
                (i >= 3 && t[i - 1].sym == kAmpersand &&
                 t[i - 2].sym == kOpenParen &&
                 t[i - 3].sym == sym::kAtomicAdd);
            std::uint8_t &bits = facts.indexed[t[i].sym];
            if (!(bits & (kReadBit | kWriteBit)))
                facts.indexed_names.push_back(t[i].sym);
            bits |= write ? kWriteBit : kReadBit;
        }
    };
    const std::vector<CudaStmt> &stmts = prog.stmts;
    for (int idx = kernel.body; idx < stmts[kernel.body].end; ++idx) {
        const CudaStmt &stmt = stmts[idx];
        if (stmt.barrier == BarrierKind::Sync)
            ++facts.sync_statements;
        else if (stmt.barrier == BarrierKind::Grid)
            ++facts.grid_barrier_calls;
        if (stmt.kind == CudaStmt::Kind::For) {
            const LoopInfo info = classifyLoop(stmt);
            if (isTaskLoop(info))
                facts.task_loops.emplace_back(stmt.line, info);
        }
        const TokenSpan t = stmt.tokens;
        if (t.size() >= 6 && t[0].sym == sym::kShared &&
            t[2].sym == sym::kSmem && t[3].sym == kOpenBracket &&
            isIntegerLiteral(t[4])) {
            facts.arena_words = t[4].value;
        }
        if (t.size() >= 5 && t[0].sym == sym::kFloat && t[1].sym == kStar &&
            t[2].kind == CudaTokenKind::Identifier && t[3].sym == kAssign &&
            t[4].sym == sym::kSmem) {
            std::int64_t offset = 0;
            if (t.size() >= 7 && t[5].sym == kPlus &&
                isIntegerLiteral(t[6])) {
                offset = t[6].value;
            }
            const CudaSymbol name = t[2].sym;
            if (facts.indexed[name] & kAliasBit) {
                for (auto &alias : facts.arena_aliases) {
                    if (alias.first == name)
                        alias.second = offset;
                }
            } else {
                facts.indexed[name] |= kAliasBit;
                facts.arena_aliases.emplace_back(name, offset);
            }
        }
        scan(stmt.tokens, /*statement=*/true);
        scan(stmt.init, /*statement=*/false);
        scan(stmt.cond, /*statement=*/false);
        scan(stmt.step, /*statement=*/false);
    }
    return facts;
}

/** A plan buffer the text can name: "input:%N", "out:%N", "scratch:%N". */
struct PlanBuffer
{
    enum Role : std::uint8_t { Input, Out, Scratch };

    Role role = Input;
    NodeId node = kInvalidNodeId;

    auto operator<=>(const PlanBuffer &) const = default;
};

constexpr std::string_view kRolePrefix[] = {"input:%", "out:%", "scratch:%"};

/**
 * Read @p buffer as a PlanBuffer. Only the spelling a prefix and the
 * decimal node id give names one: "input:%07" names none.
 */
bool
parsePlanBuffer(std::string_view buffer, PlanBuffer *out)
{
    for (const PlanBuffer::Role role :
         {PlanBuffer::Input, PlanBuffer::Out, PlanBuffer::Scratch}) {
        const std::string_view prefix = kRolePrefix[role];
        if (!buffer.starts_with(prefix))
            continue;
        const std::string_view digits = buffer.substr(prefix.size());
        NodeId node = 0;
        const auto parsed = std::from_chars(
            digits.data(), digits.data() + digits.size(), node);
        if (parsed.ec != std::errc() ||
            parsed.ptr != digits.data() + digits.size())
            return false;
        char canonical[16];
        const auto printed =
            std::to_chars(canonical, canonical + sizeof canonical, node);
        if (std::string_view(canonical, printed.ptr - canonical) != digits)
            return false;
        *out = {role, node};
        return true;
    }
    return false;
}

/**
 * AS914: the text's per-buffer read/write sets against the plan's
 * access summary, both ways. Each plan buffer the text can name gets
 * the emitter's name for it; where two buffers get one name, the one
 * named last keeps it (inputs, then outputs, then global scratch).
 */
void
checkAccessSets(const Graph &graph, const KernelPlan &plan,
                const CudaProgram &prog, const KernelFacts &facts,
                DiagnosticEngine &engine)
{
    // Every plan-side name is spelled once, into one buffer reserved up
    // front so the views into it stay valid.
    std::size_t bytes = 0;
    for (const KernelInput &in : plan.inputs)
        bytes += 2 + graph.node(in.node).name().size();
    for (NodeId out : plan.outputs)
        bytes += 6 + graph.node(out).name().size();
    for (const ScheduledOp &op : plan.ops) {
        if (op.out_space == BufferSpace::Global)
            bytes += 4 + graph.node(op.node).name().size();
    }
    std::string spellings;
    spellings.reserve(bytes);

    struct Named
    {
        std::string_view name;
        PlanBuffer buffer;
        CudaSymbol text = sym::kNone; ///< the name's code in the text
    };
    std::vector<Named> named;
    const auto add = [&](PlanBuffer::Role role, NodeId node,
                         std::string_view suffix) {
        const std::size_t at = spellings.size();
        appendValueName(spellings, graph, node);
        spellings += suffix;
        named.push_back({std::string_view(spellings).substr(at), {role, node}});
    };
    for (const KernelInput &in : plan.inputs)
        add(PlanBuffer::Input, in.node, "");
    for (NodeId out : plan.outputs)
        add(PlanBuffer::Out, out, "_out");
    for (const ScheduledOp &op : plan.ops) {
        if (op.out_space == BufferSpace::Global)
            add(PlanBuffer::Scratch, op.node, "_g");
    }
    // Of several entries spelled alike, the last keeps the name: group
    // equal spellings by hash, then by the bytes within one hash.
    const CudaSymbols &symbols = prog.symbols;
    std::vector<std::pair<std::size_t, int>> by_hash;
    by_hash.reserve(named.size());
    for (std::size_t i = 0; i < named.size(); ++i) {
        named[i].text = symbols.find(named[i].name);
        by_hash.emplace_back(std::hash<std::string_view>()(named[i].name),
                             static_cast<int>(i));
    }
    std::sort(by_hash.begin(), by_hash.end());
    std::vector<bool> renamed(named.size(), false); // a later entry took it
    for (std::size_t i = 0; i < by_hash.size(); ++i) {
        for (std::size_t j = i + 1;
             j < by_hash.size() && by_hash[j].first == by_hash[i].first; ++j) {
            if (named[by_hash[j].second].name == named[by_hash[i].second].name)
                renamed[by_hash[i].second] = true;
        }
    }

    // Per buffer: the access kinds the plan declares, the kinds already
    // checked against the text, and the name it is known by (the
    // greatest spelling among the names that kept it).
    struct BufferFacts
    {
        PlanBuffer buffer;
        std::uint8_t declared = 0;
        std::uint8_t checked = 0;
        const Named *known = nullptr;
    };
    std::vector<BufferFacts> buffers;
    buffers.reserve(named.size());
    for (const Named &n : named)
        buffers.push_back({n.buffer});
    std::sort(buffers.begin(), buffers.end(),
              [](const BufferFacts &a, const BufferFacts &b) {
                  return a.buffer < b.buffer;
              });
    buffers.erase(std::unique(buffers.begin(), buffers.end(),
                              [](const BufferFacts &a, const BufferFacts &b) {
                                  return a.buffer == b.buffer;
                              }),
                  buffers.end());
    const auto find = [&](PlanBuffer buffer) -> BufferFacts * {
        const auto it = std::lower_bound(
            buffers.begin(), buffers.end(), buffer,
            [](const BufferFacts &f, PlanBuffer b) { return f.buffer < b; });
        return it != buffers.end() && it->buffer == buffer ? &*it : nullptr;
    };
    // Text code -> the entry that keeps that name.
    std::vector<std::pair<CudaSymbol, const Named *>> in_text;
    for (std::size_t i = 0; i < named.size(); ++i) {
        if (renamed[i])
            continue;
        const Named &n = named[i];
        BufferFacts &f = *find(n.buffer);
        if (f.known == nullptr || n.name > f.known->name)
            f.known = &n;
        if (n.text != sym::kNone)
            in_text.emplace_back(n.text, &n);
    }
    std::sort(in_text.begin(), in_text.end());
    std::vector<BufferFacts *> access_buffer(plan.accesses.size());
    for (std::size_t i = 0; i < plan.accesses.size(); ++i) {
        PlanBuffer buffer;
        if (!parsePlanBuffer(plan.accesses[i].buffer, &buffer))
            continue;
        access_buffer[i] = find(buffer);
        if (access_buffer[i] != nullptr)
            access_buffer[i]->declared |= accessBit(plan.accesses[i].kind);
    }

    // Text -> plan: every indexed buffer maps to a plan buffer with
    // that access declared. Reported reads first, then writes, each by
    // the name's spelling.
    const auto infrastructure = [&](std::string_view name) {
        return isSmemName(name) || name.ends_with("_partial") ||
               name == "global_scratch" || name == "barrier_state" ||
               name == "arrive" || name == "depart";
    };
    struct TextFinding
    {
        AccessKind kind;
        std::string_view name;
        std::string message;
    };
    std::vector<TextFinding> text_findings;
    for (const CudaSymbol text_name : facts.indexed_names) {
        const std::string_view name = symbols.spelling(text_name);
        if (infrastructure(name))
            continue;
        const auto it = std::lower_bound(
            in_text.begin(), in_text.end(), text_name,
            [](const auto &entry, CudaSymbol s) { return entry.first < s; });
        const Named *n =
            it != in_text.end() && it->first == text_name ? it->second
                                                          : nullptr;
        for (const AccessKind kind : {AccessKind::Read, AccessKind::Write}) {
            const std::uint8_t bit = accessBit(kind);
            if (!(facts.indexed[text_name] & bit))
                continue;
            const char *verb = kind == AccessKind::Read ? "reads" : "writes";
            if (n == nullptr) {
                text_findings.push_back(
                    {kind, name,
                     strCat("emitted text ", verb, " buffer ", name,
                            " which maps to no input/output/scratch buffer "
                            "of the plan")});
            } else if (!(find(n->buffer)->declared & bit)) {
                text_findings.push_back(
                    {kind, name,
                     strCat("emitted text ", verb, " ", name, " (",
                            kRolePrefix[n->buffer.role], n->buffer.node,
                            ") but the plan's access summary declares no "
                            "such access")});
            }
        }
    }
    std::sort(text_findings.begin(), text_findings.end(),
              [](const TextFinding &a, const TextFinding &b) {
                  return std::pair(a.kind, a.name) < std::pair(b.kind, b.name);
              });
    for (const TextFinding &f : text_findings)
        engine.report("AS914", plan.name, f.message);

    // Plan -> text: every declared off-chip access of a nameable buffer
    // must appear in the text.
    for (std::size_t i = 0; i < plan.accesses.size(); ++i) {
        BufferFacts *f = access_buffer[i];
        if (f == nullptr || f->known == nullptr)
            continue; // smem / remat: not nameable in text
        const OpAccess &access = plan.accesses[i];
        const std::uint8_t bit = accessBit(access.kind);
        if (f->checked & bit)
            continue;
        f->checked |= bit;
        const Named &n = *f->known;
        if (n.text != sym::kNone && (facts.indexed[n.text] & bit))
            continue;
        engine.report("AS914", plan.name,
                      strCat("plan declares a ",
                             accessKindName(access.kind), " of ",
                             access.buffer, " (", n.name,
                             ") that never occurs in the emitted text"));
    }
}

} // namespace

// =====================================================================
// Entry points.
// =====================================================================

bool
analyzeEmittedCudaSource(const Graph &graph, const std::string &source,
                         const KernelPlan &plan, const GpuSpec &spec,
                         DiagnosticEngine &engine)
{
    (void)spec;
    const int errors_before = engine.count(Severity::Error);

    const CudaProgram prog = parseCudaSource(source);
    const CudaFunction *kernel = findKernel(prog);
    if (!prog.ok || kernel == nullptr) {
        engine.report("AS900", plan.name,
                      !prog.ok
                          ? strCat("emitted source does not parse (",
                                   prog.error,
                                   "); nothing can be verified about it")
                          : "emitted source defines no __global__ "
                            "kernel; nothing can be verified about it");
        return false;
    }

    const std::int64_t grid = plan.launch.grid;
    const std::int64_t block = plan.launch.block;

    // ---- 1. Divergence dataflow: every function with a body. ----
    DivergenceWalk walk{prog.stmts, grid, block,
                        DivEnv(prog.symbols.size()), {}};
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body < 0)
            continue;
        walk.env.clear();
        walk.findings.clear();
        walk.walk(fn.body, kUniform);
        for (const auto &[code, message] : walk.findings)
            engine.report(code, plan.name, message);
    }

    // ---- 2. Text-vs-plan cross-checks. ----
    const KernelFacts facts = collectKernelFacts(prog, *kernel);
    // AS913: __launch_bounds__ vs the plan's block size.
    if (kernel->launch_bounds_block != plan.launch.block) {
        engine.report(
            "AS913", plan.name,
            kernel->launch_bounds_block < 0
                ? strCat("kernel has no __launch_bounds__ "
                         "annotation; the register planner's "
                         "occupancy contract (block size ",
                         plan.launch.block, ") is unenforced")
                : strCat("__launch_bounds__(",
                         kernel->launch_bounds_block,
                         ") disagrees with the plan's block size ",
                         plan.launch.block,
                         ": the register planner budgeted for a "
                         "different occupancy"));
    }

    // AS911: re-derived barrier sequence vs plan.barriers.
    int plan_sync = 0;
    int plan_grid = 0;
    for (const BarrierPoint &point : plan.barriers) {
        if (point.scope == BarrierScope::Block)
            ++plan_sync;
        else
            ++plan_grid;
    }
    if (facts.sync_statements != plan_sync) {
        engine.report(
            "AS911", plan.name,
            strCat("emitted text contains ", facts.sync_statements,
                   " __syncthreads() statement(s) but the plan "
                   "schedules ", plan_sync,
                   " block barrier(s): the rendered kernel does "
                   "not implement the plan's barrier schedule"));
    }
    if (facts.grid_barrier_calls != plan_grid) {
        engine.report(
            "AS911", plan.name,
            strCat("emitted text contains ", facts.grid_barrier_calls,
                   " grid_barrier() call(s) but the plan "
                   "schedules ", plan_grid,
                   " device barrier(s)"));
    }
    if (facts.grid_barrier_calls > 0 &&
        findFunction(prog, sym::kGridBarrier) == nullptr) {
        engine.report("AS911", plan.name,
                      "grid_barrier() is invoked but never "
                      "defined: the device-barrier schedule is "
                      "not implementable");
    }

    // AS912: arena declaration and slot layout.
    const std::int64_t text_words = facts.arena_words;
    const std::int64_t plan_words = (plan.smem_per_block + 3) / 4;
    if (plan.smem_per_block > 0 && text_words < 0) {
        engine.report(
            "AS912", plan.name,
            strCat("plan reserves ", plan.smem_per_block,
                   " B of shared arena but the text declares no "
                   "__shared__ smem[] arena"));
    } else if (plan.smem_per_block <= 0 && text_words >= 0) {
        engine.report(
            "AS912", plan.name,
            strCat("text declares a ", text_words * 4,
                   " B shared arena the plan does not account "
                   "for"));
    } else if (text_words >= 0 && text_words != plan_words) {
        engine.report(
            "AS912", plan.name,
            strCat("declared shared arena is ", text_words,
                   " words but the planner sized it ", plan_words,
                   " words (", plan.smem_per_block,
                   " B): regional buffers can overflow or "
                   "collide"));
    }
    if (!facts.arena_aliases.empty()) {
        // Each alias's planned slot: the last slot the emitter names
        // alike.
        std::vector<int> slot_of(prog.symbols.size(), -1);
        std::string name;
        for (std::size_t i = 0; i < plan.shared_slots.size(); ++i) {
            name.clear();
            appendValueName(name, graph, plan.shared_slots[i].node);
            name += "_smem";
            const CudaSymbol s = prog.symbols.find(name);
            if (s != sym::kNone)
                slot_of[s] = static_cast<int>(i);
        }
        std::vector<std::pair<CudaSymbol, std::int64_t>> aliases =
            facts.arena_aliases;
        std::sort(aliases.begin(), aliases.end(),
                  [&](const auto &a, const auto &b) {
                      return prog.symbols.spelling(a.first) <
                             prog.symbols.spelling(b.first);
                  });
        for (const auto &[alias, offset] : aliases) {
            const std::string_view alias_name = prog.symbols.spelling(alias);
            if (slot_of[alias] < 0) {
                engine.report(
                    "AS912", plan.name,
                    strCat("regional buffer ", alias_name, " (smem + ",
                           offset,
                           ") has no slot in the planner's arena "
                           "layout"));
                continue;
            }
            const SharedSlot &slot = plan.shared_slots[slot_of[alias]];
            const std::int64_t slot_words = slot.offset_bytes / 4;
            const std::int64_t size_words =
                std::max<std::int64_t>(1, slot.size_bytes / 4);
            if (offset != slot_words) {
                engine.report(
                    "AS912", plan.name,
                    strCat("regional buffer ", alias_name,
                           " placed at word ", offset,
                           " but the planner assigned word ", slot_words,
                           ": buffers alias other slots"));
            } else if (text_words >= 0 &&
                       slot_words + size_words > text_words) {
                engine.report(
                    "AS912", plan.name,
                    strCat("regional buffer ", alias_name, " spans [",
                           slot_words, ", ", slot_words + size_words,
                           ") words, past the declared arena of ",
                           text_words, " words"));
            }
        }
    }

    // AS914: per-buffer read/write sets vs the access summary.
    if (!plan.accesses.empty())
        checkAccessSets(graph, plan, prog, facts, engine);

    // ---- 3. Emitted-idiom lints. ----
    // AS921: grid-barrier flags must be declared volatile.
    if (const CudaFunction *helper =
            findFunction(prog, sym::kGridBarrier)) {
        for (const CudaParam &param : helper->params) {
            if (!param.is_pointer || !param.is_volatile) {
                engine.report(
                    "AS921", plan.name,
                    strCat("grid_barrier flag parameter '",
                           param.name,
                           "' is not a volatile pointer: the "
                           "spin loop can be hoisted and the "
                           "inter-block barrier never releases"));
            }
        }
    }

    // AS922: smem write with a barrier-free path to kernel exit.
    // Statements are numbered in program order, so sorting by index
    // reports the stores in the order they appear.
    std::vector<SmemStore> open_stores;
    exitOpenBefore(prog.stmts, kernel->body, /*open=*/true, open_stores);
    std::sort(open_stores.begin(), open_stores.end());
    for (const auto &[idx, buffer] : open_stores) {
        engine.report(
            "AS922", plan.name,
            strCat("line ", prog.stmts[idx].line, ": write to shared "
                   "buffer ", buffer,
                   " can reach kernel exit without a block "
                   "barrier: consumers in other threads are "
                   "unordered against it"));
    }

    // AS923: task-loop bounds must cover a scheduled extent.
    std::set<std::int64_t> accepted;
    for (const ScheduledOp &op : plan.ops) {
        if (!op.partition.known())
            continue;
        const std::int64_t extent = op.partition.launch.grid *
                                    op.partition.tasks_per_block;
        accepted.insert(extent);
        if (grid > 0)
            accepted.insert((extent + grid - 1) / grid * grid);
    }
    if (!accepted.empty()) {
        for (const auto &[line, info] : facts.task_loops) {
            if (!info.upper_bounded || accepted.count(info.bound))
                continue;
            engine.report(
                "AS923", plan.name,
                strCat("line ", line,
                       ": vertical-packing task loop bound ", info.bound,
                       " matches no scheduled group's task "
                       "extent (nor its grid-uniform "
                       "padding): tasks are dropped or "
                       "duplicated"));
        }
    }

    return engine.count(Severity::Error) == errors_before;
}

bool
analyzeEmittedCuda(const Graph &graph, const KernelPlan &plan,
                   const GpuSpec &spec, DiagnosticEngine &engine)
{
    if (plan.cuda_source.empty())
        return true; // backend renders no source: vacuously clean
    return analyzeEmittedCudaSource(graph, plan.cuda_source, plan, spec,
                                    engine);
}

EmittedSourceSurvey
surveyEmittedCuda(const std::string &source)
{
    EmittedSourceSurvey survey;
    const CudaProgram prog = parseCudaSource(source);
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body >= 0)
            ++survey.functions;
    }
    const CudaFunction *kernel = findKernel(prog);
    survey.parsed = prog.ok && kernel != nullptr;
    if (kernel == nullptr)
        return survey;
    survey.launch_bounds_block = kernel->launch_bounds_block;
    const KernelFacts facts = collectKernelFacts(prog, *kernel);
    survey.sync_statements = facts.sync_statements;
    survey.grid_barrier_calls = facts.grid_barrier_calls;
    survey.task_loops = static_cast<int>(facts.task_loops.size());
    survey.arena_words = facts.arena_words;
    return survey;
}

} // namespace astitch

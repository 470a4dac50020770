#include "analysis/cuda_static.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>

#include "analysis/access_model.h"
#include "analysis/cuda_lexer.h"
#include "support/strings.h"

namespace astitch {

namespace {

// =====================================================================
// Parser: the emitted C-like subset -> structured statements.
// =====================================================================

/** A run of tokens inside CudaProgram::tokens. */
using TokenSpan = std::span<const CudaToken>;

enum class BarrierKind { None, Sync, Grid, BlockReduce };

/** One parsed statement (arena-indexed tree per function). */
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

    /** Block: the statements; If: {then[, else]}; For/While: {body}. */
    std::vector<int> children;
    bool has_else = false;
};

/** One declared function parameter. */
struct CudaParam
{
    std::string_view name;
    std::string_view base_type;
    bool is_pointer = false;
    bool is_const = false;
    bool is_volatile = false;
};

/** One parsed function definition. */
struct CudaFunction
{
    std::string_view name;
    bool is_global = false;
    bool is_device = false;
    std::int64_t launch_bounds_block = -1;
    std::int64_t launch_bounds_min = -1;
    std::vector<CudaParam> params;
    int body = -1; ///< index of the Block statement, -1 = no body
    std::vector<CudaStmt> stmts;
};

/**
 * Parse result for one translation unit. It owns the one token vector
 * that every statement's spans view, and those tokens view the source
 * text: the program is valid only while that text lives. Move-only, as
 * a copy's spans would still view the original's tokens.
 */
struct CudaProgram
{
    std::vector<CudaToken> tokens;
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
            !tokens[i + 1].is("(")) {
            continue;
        }
        if (tokens[i].is("__syncthreads"))
            return BarrierKind::Sync;
        grid = grid || tokens[i].is("grid_barrier");
        reduce = reduce || tokens[i].is("blockReduce");
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
    peek(std::size_t ahead = 1) const
    {
        const std::size_t p = pos_ + ahead;
        return toks_[std::min(p, toks_.size() - 1)];
    }

    bool atEnd() const { return cur().kind == CudaTokenKind::End; }

    void advance() { pos_ = std::min(pos_ + 1, toks_.size() - 1); }

    bool
    fail(const std::string &what)
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
            if (cur().is("extern")) {
                advance();
                if (cur().kind == CudaTokenKind::String)
                    advance();
                continue;
            }
            if (cur().is("__global__")) {
                fn.is_global = true;
                advance();
                continue;
            }
            if (cur().is("__device__")) {
                fn.is_device = true;
                advance();
                continue;
            }
            if (cur().is("__launch_bounds__")) {
                advance();
                if (!cur().is("(")) {
                    pos_ = start;
                    return false;
                }
                advance();
                int depth = 1;
                std::vector<std::int64_t> args;
                while (!atEnd() && depth > 0) {
                    if (cur().is("("))
                        ++depth;
                    else if (cur().is(")"))
                        --depth;
                    else if (cur().kind == CudaTokenKind::Number &&
                             cur().is_integer)
                        args.push_back(cur().value);
                    advance();
                }
                if (!args.empty())
                    fn.launch_bounds_block = args[0];
                if (args.size() > 1)
                    fn.launch_bounds_min = args[1];
                continue;
            }
            if (cur().kind == CudaTokenKind::Identifier &&
                peek().is("(")) {
                fn.name = cur().text;
                advance();
                found_name = true;
                break;
            }
            if (cur().kind == CudaTokenKind::Identifier ||
                cur().is("*")) {
                // return-type tokens (void, float, unsigned, ...)
                advance();
                continue;
            }
            break;
        }
        if (!found_name || fn.name.empty()) {
            pos_ = start;
            return false;
        }

        advance(); // '('
        CudaParam param;
        const auto flush_param = [&] {
            // "void" alone and empty fragments are not parameters.
            if (!param.name.empty() && param.name != param.base_type)
                fn.params.push_back(param);
            param = CudaParam();
        };
        while (!atEnd() && !cur().is(")")) {
            if (cur().is(",")) {
                flush_param();
                advance();
            } else if (cur().is("*")) {
                param.is_pointer = true;
                advance();
            } else if (cur().is("const")) {
                param.is_const = true;
                advance();
            } else if (cur().is("volatile")) {
                param.is_volatile = true;
                advance();
            } else if (cur().is("__restrict__")) {
                advance();
            } else if (cur().kind == CudaTokenKind::Identifier) {
                if (param.base_type.empty())
                    param.base_type = cur().text;
                param.name = cur().text;
                advance();
            } else {
                advance();
            }
        }
        flush_param();
        if (atEnd())
            return fail("unterminated parameter list");
        advance(); // ')'

        if (cur().is(";")) {
            // Forward declaration: keep the signature, no body.
            advance();
            prog_.functions.push_back(std::move(fn));
            return true;
        }
        if (!cur().is("{")) {
            pos_ = start;
            return false;
        }
        fn.body = parseStmt(fn);
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
    collectUntil(std::string_view terminator, TokenSpan &out)
    {
        const std::size_t begin = pos_;
        int depth = 0;
        while (!atEnd()) {
            if (depth == 0 && cur().is(terminator)) {
                out = TokenSpan(toks_).subspan(begin, pos_ - begin);
                advance();
                return true;
            }
            if (cur().is("(") || cur().is("["))
                ++depth;
            else if (cur().is(")") || cur().is("]"))
                --depth;
            advance();
        }
        return fail(strCat("missing '", terminator, "'"));
    }

    /** Parse one statement; returns its index in fn.stmts or -1. */
    int
    parseStmt(CudaFunction &fn)
    {
        CudaStmt stmt;
        stmt.line = cur().line;

        if (cur().is("{")) {
            advance();
            stmt.kind = CudaStmt::Kind::Block;
            while (!atEnd() && !cur().is("}")) {
                const int child = parseStmt(fn);
                if (child < 0)
                    return -1;
                stmt.children.push_back(child);
            }
            if (atEnd()) {
                fail("unterminated block");
                return -1;
            }
            advance(); // '}'
        } else if (cur().is("if")) {
            advance();
            stmt.kind = CudaStmt::Kind::If;
            if (!cur().is("(")) {
                fail("expected '(' after if");
                return -1;
            }
            advance();
            if (!collectUntil(")", stmt.cond))
                return -1;
            const int then_child = parseStmt(fn);
            if (then_child < 0)
                return -1;
            stmt.children.push_back(then_child);
            if (cur().is("else")) {
                advance();
                const int else_child = parseStmt(fn);
                if (else_child < 0)
                    return -1;
                stmt.children.push_back(else_child);
                stmt.has_else = true;
            }
        } else if (cur().is("for")) {
            advance();
            stmt.kind = CudaStmt::Kind::For;
            if (!cur().is("(")) {
                fail("expected '(' after for");
                return -1;
            }
            advance();
            if (!collectUntil(";", stmt.init) ||
                !collectUntil(";", stmt.cond) ||
                !collectUntil(")", stmt.step))
                return -1;
            const int body = parseStmt(fn);
            if (body < 0)
                return -1;
            stmt.children.push_back(body);
        } else if (cur().is("while")) {
            advance();
            stmt.kind = CudaStmt::Kind::While;
            if (!cur().is("(")) {
                fail("expected '(' after while");
                return -1;
            }
            advance();
            if (!collectUntil(")", stmt.cond))
                return -1;
            const int body = parseStmt(fn);
            if (body < 0)
                return -1;
            stmt.children.push_back(body);
        } else if (cur().is(";")) {
            advance();
            stmt.kind = CudaStmt::Kind::Simple;
        } else {
            stmt.kind = CudaStmt::Kind::Simple;
            if (!collectUntil(";", stmt.tokens))
                return -1;
            stmt.barrier = barrierKindOf(stmt.tokens);
        }

        fn.stmts.push_back(std::move(stmt));
        return static_cast<int>(fn.stmts.size()) - 1;
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
    prog.tokens = lexCudaSource(source);
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
 * Divergence of each assigned variable of one function, keyed by its
 * spelling in the source. Bindings only rise. Each binding records its
 * birth (the number of bindings before it), and every rise lowers
 * raised_floor to the risen binding's birth: a loop whose body lowers
 * the floor below the binding count at loop entry raised a variable
 * bound before the loop, so its next iteration can see more divergence
 * than the last pass assumed.
 */
struct DivEnv
{
    struct Binding
    {
        int div = kUniform;
        std::size_t birth = 0;
    };

    std::unordered_map<std::string_view, Binding> bindings;
    std::size_t raised_floor = std::numeric_limits<std::size_t>::max();

    int
    lookup(std::string_view name) const
    {
        const auto it = bindings.find(name);
        return it == bindings.end() ? kUniform : it->second.div;
    }

    /** Join @p div into @p name's binding, creating it if new. */
    void
    join(std::string_view name, int div)
    {
        const auto it =
            bindings.try_emplace(name, Binding{kUniform, bindings.size()})
                .first;
        if (div <= it->second.div)
            return;
        it->second.div = div;
        raised_floor = std::min(raised_floor, it->second.birth);
    }
};

int
identifierDiv(std::string_view name, const DivEnv &env)
{
    if (name == "threadIdx")
        return kThreadVarying;
    if (name == "blockIdx")
        return kBlockVarying;
    if (name == "gridDim" || name == "blockDim")
        return kUniform;
    return env.lookup(name);
}

/** Join of all identifiers in @p tokens (field names after '.' skip). */
int
exprDiv(TokenSpan tokens, const DivEnv &env)
{
    int div = kUniform;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].kind != CudaTokenKind::Identifier)
            continue;
        if (i > 0 && tokens[i - 1].is("."))
            continue;
        div = std::max(div, identifierDiv(tokens[i].text, env));
    }
    return div;
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
        if (seg[i].is("(") || seg[i].is("["))
            ++depth;
        else if (seg[i].is(")") || seg[i].is("]"))
            --depth;
        else if (depth == 0 && seg[i].kind == CudaTokenKind::Punct &&
                 (seg[i].is("=") || seg[i].is("+=") || seg[i].is("-=") ||
                  seg[i].is("*=") || seg[i].is("/=") || seg[i].is("%="))) {
            assign = i;
            break;
        }
    }
    if (assign >= seg.size())
        return;
    // Array store? The lhs then contains '['.
    std::string_view lhs_name;
    for (std::size_t i = 0; i < assign; ++i) {
        if (seg[i].is("["))
            return;
        if (seg[i].kind == CudaTokenKind::Identifier)
            lhs_name = seg[i].text;
    }
    if (lhs_name.empty())
        return;
    int div = exprDiv(seg.subspan(assign + 1), env);
    if (!seg[assign].is("="))
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
        if (tokens[i].is("(") || tokens[i].is("["))
            ++depth;
        else if (tokens[i].is(")") || tokens[i].is("]"))
            --depth;
        else if (depth == 0 && tokens[i].is(",")) {
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

    std::string_view var;
    Seed seed = Seed::Other;
    std::int64_t seed_value = 0;
    bool upper_bounded = false; ///< condition is `var < <literal>`
    std::int64_t bound = -1;
    Step step = Step::Other;
    std::int64_t step_value = 0;
};

/** Match `base . x` at t[i..]. */
bool
isDimField(TokenSpan t, std::size_t i, std::string_view base)
{
    return i + 1 < t.size() && t[i].is(base) && t[i + 1].is(".");
}

LoopInfo
classifyLoop(const CudaStmt &stmt)
{
    LoopInfo info;

    // init: `T var = seed` (seed: literal | blockIdx.x | threadIdx.x)
    std::size_t assign = stmt.init.size();
    for (std::size_t i = 0; i < stmt.init.size(); ++i) {
        if (stmt.init[i].is("=")) {
            assign = i;
            break;
        }
        if (stmt.init[i].kind == CudaTokenKind::Identifier)
            info.var = stmt.init[i].text;
    }
    if (assign + 1 < stmt.init.size()) {
        const CudaToken &s = stmt.init[assign + 1];
        if (s.kind == CudaTokenKind::Number && s.is_integer) {
            info.seed = LoopInfo::Seed::Literal;
            info.seed_value = s.value;
        } else if (isDimField(stmt.init, assign + 1, "blockIdx")) {
            info.seed = LoopInfo::Seed::BlockIdx;
        } else if (isDimField(stmt.init, assign + 1, "threadIdx")) {
            info.seed = LoopInfo::Seed::ThreadIdx;
        }
    }

    // cond: `var < <integer literal>`
    if (stmt.cond.size() == 3 && stmt.cond[0].is(info.var) &&
        stmt.cond[1].is("<") &&
        stmt.cond[2].kind == CudaTokenKind::Number &&
        stmt.cond[2].is_integer) {
        info.upper_bounded = true;
        info.bound = stmt.cond[2].value;
    }

    // step: `var += gridDim.x | blockDim.x | <literal>` or `++var`...
    for (std::size_t i = 0; i < stmt.step.size(); ++i) {
        if (!stmt.step[i].is("+="))
            continue;
        if (i + 1 < stmt.step.size()) {
            const CudaToken &s = stmt.step[i + 1];
            if (s.kind == CudaTokenKind::Number && s.is_integer) {
                info.step = LoopInfo::Step::Literal;
                info.step_value = s.value;
            } else if (isDimField(stmt.step, i + 1, "gridDim")) {
                info.step = LoopInfo::Step::GridDim;
            } else if (isDimField(stmt.step, i + 1, "blockDim")) {
                info.step = LoopInfo::Step::BlockDim;
            }
        }
        break;
    }
    if (info.step == LoopInfo::Step::Other) {
        for (const CudaToken &t : stmt.step) {
            if (t.is("++") || t.is("--")) {
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
    return cond.size() == 1 && cond[0].kind == CudaTokenKind::Number &&
           cond[0].is_integer && cond[0].value == 0;
}

// =====================================================================
// Divergence walk (AS901 / AS902).
// =====================================================================

struct DivergenceWalk
{
    const CudaFunction &fn;
    std::int64_t grid;
    std::int64_t block;
    DivEnv env;
    /** (code, message) in program order; reported once the walk ends. */
    std::vector<std::pair<const char *, std::string>> findings;

    void
    deadBarrier(int idx)
    {
        const CudaStmt &stmt = fn.stmts[idx];
        if (stmt.barrier != BarrierKind::None) {
            findings.emplace_back(
                "AS902",
                strCat("line ", stmt.line, ": barrier inside provably "
                       "dead control flow never executes; the schedule "
                       "it implements cannot be realized"));
        }
        for (int child : stmt.children)
            deadBarrier(child);
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
        const std::size_t epoch = env.bindings.size();
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
        const CudaStmt &stmt = fn.stmts[idx];
        switch (stmt.kind) {
          case CudaStmt::Kind::Block:
            for (int child : stmt.children)
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
            if (condProvablyFalse(stmt.cond)) {
                deadBarrier(stmt.children[0]);
                if (stmt.has_else)
                    walk(stmt.children[1], ctx);
                break;
            }
            const int child_ctx =
                std::max(ctx, exprDiv(stmt.cond, env));
            walk(stmt.children[0], child_ctx);
            if (stmt.has_else)
                walk(stmt.children[1], child_ctx);
            break;
          }
          case CudaStmt::Kind::For: {
            foldAssignments(stmt.init, env);
            const LoopInfo info = classifyLoop(stmt);
            if (loopProvablyDead(info)) {
                deadBarrier(stmt.children[0]);
                break;
            }
            iterateLoop([&] {
                walk(stmt.children[0],
                     std::max(ctx, loopContribution(stmt, info, env, grid,
                                                    block)));
                foldAssignments(stmt.step, env);
            });
            break;
          }
          case CudaStmt::Kind::While: {
            if (condProvablyFalse(stmt.cond)) {
                deadBarrier(stmt.children[0]);
                break;
            }
            iterateLoop([&] {
                walk(stmt.children[0],
                     std::max(ctx, exprDiv(stmt.cond, env)));
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
        !t[1].is("[")) {
        return false;
    }
    int depth = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i].is("[") || t[i].is("("))
            ++depth;
        else if (t[i].is("]") || t[i].is(")"))
            --depth;
        else if (depth == 0 && t[i].is("="))
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
 * Walk statement @p idx of @p fn backwards. @p open says whether kernel
 * exit is reachable from the point after the statement along a path
 * that crosses no barrier statement; returns the same for the point
 * before it, and appends to @p stores each shared-memory store with
 * such a path. break, continue and return get no control-flow meaning
 * (the emitter writes none; the parser keeps them as plain statements),
 * so every path out of a statement leaves through its end. Dead code is
 * not pruned, and a loop may run zero times while every iteration
 * returns to its head, so a loop body ends where the loop does.
 */
bool
exitOpenBefore(const CudaFunction &fn, int idx, bool open,
               std::vector<SmemStore> &stores)
{
    const CudaStmt &stmt = fn.stmts[idx];
    switch (stmt.kind) {
      case CudaStmt::Kind::Block:
        for (auto it = stmt.children.rbegin(); it != stmt.children.rend();
             ++it)
            open = exitOpenBefore(fn, *it, open, stores);
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
        const bool then_open =
            exitOpenBefore(fn, stmt.children[0], open, stores);
        const bool else_open =
            stmt.has_else ? exitOpenBefore(fn, stmt.children[1], open, stores)
                          : open;
        return then_open || else_open;
      }
      case CudaStmt::Kind::For:
      case CudaStmt::Kind::While:
        exitOpenBefore(fn, stmt.children[0], open, stores);
        return open;
    }
    return open;
}

// =====================================================================
// Cross-check helpers.
// =====================================================================

/** The emitter's identifier mangling, re-derived independently. */
std::string
emittedValueName(const Graph &graph, NodeId id)
{
    std::string name = graph.node(id).name();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return "v_" + name;
}

const CudaFunction *
findFunction(const CudaProgram &prog, const char *name)
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

template <typename Fn>
void
forEachStmt(const CudaFunction &fn, int idx, Fn &&visit)
{
    const CudaStmt &stmt = fn.stmts[idx];
    visit(stmt);
    for (int child : stmt.children)
        forEachStmt(fn, child, visit);
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
    /** `float *NAME = smem + K;` regional-buffer aliases, NAME -> K. */
    std::map<std::string_view, std::int64_t> arena_aliases;
    /** Canonical vertical-packing loops: (line, shape). */
    std::vector<std::pair<int, LoopInfo>> task_loops;
    /** Names of indexed buffers the text reads / writes. */
    std::set<std::string_view> reads;
    std::set<std::string_view> writes;
};

KernelFacts
collectKernelFacts(const CudaFunction &kernel)
{
    KernelFacts facts;
    // A head-position `NAME[...] = ...` is a write to NAME; every other
    // `NAME[` is a read. atomicAdd(&NAME[...],..) counts as a write.
    const auto scan = [&](TokenSpan t, bool statement) {
        const std::size_t write_head =
            statement && isHeadStore(t) ? 0 : t.size();
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (t[i].kind != CudaTokenKind::Identifier || !t[i + 1].is("["))
                continue;
            const bool write =
                i == write_head ||
                (i >= 3 && t[i - 1].is("&") && t[i - 2].is("(") &&
                 t[i - 3].is("atomicAdd"));
            (write ? facts.writes : facts.reads).insert(t[i].text);
        }
    };
    forEachStmt(kernel, kernel.body, [&](const CudaStmt &stmt) {
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
        if (t.size() >= 6 && t[0].is("__shared__") && t[2].is("smem") &&
            t[3].is("[") && t[4].kind == CudaTokenKind::Number &&
            t[4].is_integer) {
            facts.arena_words = t[4].value;
        }
        if (t.size() >= 5 && t[0].is("float") && t[1].is("*") &&
            t[2].kind == CudaTokenKind::Identifier && t[3].is("=") &&
            t[4].is("smem")) {
            std::int64_t offset = 0;
            if (t.size() >= 7 && t[5].is("+") &&
                t[6].kind == CudaTokenKind::Number && t[6].is_integer) {
                offset = t[6].value;
            }
            facts.arena_aliases[t[2].text] = offset;
        }
        scan(stmt.tokens, /*statement=*/true);
        scan(stmt.init, /*statement=*/false);
        scan(stmt.cond, /*statement=*/false);
        scan(stmt.step, /*statement=*/false);
    });
    return facts;
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
    for (const CudaFunction &fn : prog.functions) {
        if (fn.body < 0)
            continue;
        DivergenceWalk walk{fn, grid, block, {}, {}};
        walk.walk(fn.body, kUniform);
        for (const auto &[code, message] : walk.findings)
            engine.report(code, plan.name, message);
    }

    // ---- 2. Text-vs-plan cross-checks. ----
    const KernelFacts facts = collectKernelFacts(*kernel);
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
        findFunction(prog, "grid_barrier") == nullptr) {
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
    std::map<std::string, std::pair<std::int64_t, std::int64_t>,
             std::less<>>
        expected_slots; // alias -> {offset words, size words}
    for (const SharedSlot &slot : plan.shared_slots) {
        expected_slots[emittedValueName(graph, slot.node) + "_smem"] = {
            slot.offset_bytes / 4,
            std::max<std::int64_t>(1, slot.size_bytes / 4)};
    }
    for (const auto &alias : facts.arena_aliases) {
        const auto it = expected_slots.find(alias.first);
        if (it == expected_slots.end()) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.first,
                       " (smem + ", alias.second,
                       ") has no slot in the planner's arena "
                       "layout"));
            continue;
        }
        if (alias.second != it->second.first) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.first,
                       " placed at word ", alias.second,
                       " but the planner assigned word ",
                       it->second.first,
                       ": buffers alias other slots"));
        } else if (text_words >= 0 &&
                   it->second.first + it->second.second >
                       text_words) {
            engine.report(
                "AS912", plan.name,
                strCat("regional buffer ", alias.first, " spans [",
                       it->second.first, ", ",
                       it->second.first + it->second.second,
                       ") words, past the declared arena of ",
                       text_words, " words"));
        }
    }

    // AS914: per-buffer read/write sets vs the access summary.
    if (!plan.accesses.empty()) {
        // text name -> buffer
        std::map<std::string, std::string, std::less<>> known;
        for (const KernelInput &in : plan.inputs) {
            known[emittedValueName(graph, in.node)] =
                "input:%" + std::to_string(in.node);
        }
        for (NodeId out : plan.outputs) {
            known[emittedValueName(graph, out) + "_out"] =
                "out:%" + std::to_string(out);
        }
        for (const ScheduledOp &op : plan.ops) {
            if (op.out_space == BufferSpace::Global) {
                known[emittedValueName(graph, op.node) + "_g"] =
                    "scratch:%" + std::to_string(op.node);
            }
        }
        std::set<std::pair<std::string_view, AccessKind>> plan_set;
        for (const OpAccess &access : plan.accesses)
            plan_set.emplace(access.buffer, access.kind);

        std::set<std::string> reported;
        const auto infrastructure = [&](std::string_view name) {
            return isSmemName(name) || name.ends_with("_partial") ||
                   name == "global_scratch" ||
                   name == "barrier_state" || name == "arrive" ||
                   name == "depart";
        };
        const auto check_text = [&](std::string_view name,
                                    AccessKind kind) {
            if (infrastructure(name))
                return;
            const auto it = known.find(name);
            const char *verb =
                kind == AccessKind::Read ? "reads" : "writes";
            std::string message;
            if (it == known.end()) {
                message = strCat(
                    "emitted text ", verb, " buffer ", name,
                    " which maps to no input/output/scratch "
                    "buffer of the plan");
            } else if (!plan_set.count({it->second, kind})) {
                message = strCat(
                    "emitted text ", verb, " ", name, " (",
                    it->second,
                    ") but the plan's access summary declares "
                    "no such access");
            } else {
                return;
            }
            if (reported.insert(message).second)
                engine.report("AS914", plan.name, message);
        };
        for (const std::string_view name : facts.reads)
            check_text(name, AccessKind::Read);
        for (const std::string_view name : facts.writes)
            check_text(name, AccessKind::Write);

        // Plan -> text: every declared off-chip access of a
        // nameable buffer must appear in the text.
        std::map<std::string_view, std::string_view> names; // buffer -> name
        for (const auto &entry : known)
            names[entry.second] = entry.first;
        std::set<std::pair<std::string_view, AccessKind>> seen;
        for (const OpAccess &access : plan.accesses) {
            if (!seen.emplace(access.buffer, access.kind).second)
                continue;
            const auto it = names.find(access.buffer);
            if (it == names.end())
                continue; // smem / remat: not nameable in text
            const bool read = access.kind == AccessKind::Read;
            const std::set<std::string_view> &have =
                read ? facts.reads : facts.writes;
            if (!have.count(it->second)) {
                engine.report(
                    "AS914", plan.name,
                    strCat("plan declares a ",
                           accessKindName(access.kind),
                           " of ", access.buffer, " (",
                           it->second,
                           ") that never occurs in the emitted "
                           "text"));
            }
        }
    }

    // ---- 3. Emitted-idiom lints. ----
    // AS921: grid-barrier flags must be declared volatile.
    if (const CudaFunction *helper =
            findFunction(prog, "grid_barrier")) {
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
    // Simple statements are numbered in program order, so sorting by
    // index reports the stores in the order they appear.
    std::vector<SmemStore> open_stores;
    exitOpenBefore(*kernel, kernel->body, /*open=*/true, open_stores);
    std::sort(open_stores.begin(), open_stores.end());
    for (const auto &[idx, buffer] : open_stores) {
        engine.report(
            "AS922", plan.name,
            strCat("line ", kernel->stmts[idx].line, ": write to shared "
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
    const KernelFacts facts = collectKernelFacts(*kernel);
    survey.sync_statements = facts.sync_statements;
    survey.grid_barrier_calls = facts.grid_barrier_calls;
    survey.task_loops = static_cast<int>(facts.task_loops.size());
    survey.arena_words = facts.arena_words;
    return survey;
}

} // namespace astitch

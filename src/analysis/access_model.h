/**
 * @file
 * The kernel access model: structured per-op memory-access summaries.
 *
 * Stitch codegen (and the CUDA emitter, which renders the same plan)
 * describes every memory access its generated kernel performs as an
 * affine index expression over the kernel's induction variables —
 * blockIdx, the vertically-packed task loop, the per-thread serial
 * element loop and threadIdx — together with the accessed buffer's
 * extent, the intra-warp stride class, an optional bounds predicate
 * and the address space. The kernel-access verifier
 * (analysis/kernel_verifier.h) performs symbolic interpretation over
 * these summaries to prove bounds, find index-level races and
 * cross-validate the analytical cost model's DRAM transaction counts.
 *
 * The canonical enumeration of an access touching N contiguous
 * elements under a thread-mapping partition (G logical blocks, T tasks
 * per block, R serial iterations, B threads) is
 *
 *     index = offset + block*(T*R*B) + task*(R*B) + iter*B + thread
 *
 * with block in [0, G), task in [0, T), iter in [0, R), thread in
 * [0, B). A guard predicate `index < guard` models the trailing bounds
 * check codegen emits when G*T*R*B does not divide the extent evenly.
 * The warp stride class is deliberately separate from the affine
 * enumeration: it records how far apart (in elements) the addresses of
 * adjacent lanes of one warp land, which is what DRAM sector counting
 * and shared-memory bank analysis consume.
 */
#ifndef ASTITCH_ANALYSIS_ACCESS_MODEL_H
#define ASTITCH_ANALYSIS_ACCESS_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "graph/node.h"

namespace astitch {

/** DRAM sector (minimum global-memory transaction) size in bytes. */
inline constexpr std::int64_t kDramSectorBytes = 32;

/** Threads per warp assumed by the transaction/bank analyses. */
inline constexpr int kWarpLanes = 32;

/** Shared-memory banks and bank width on every modeled device. */
inline constexpr int kSmemBanks = 32;
inline constexpr int kSmemBankBytes = 4;

/** Which memory an access touches. */
enum class AccessSpace {
    Global,  ///< framework-visible global memory (inputs/outputs)
    Scratch, ///< off-chip global scratch (Global stitching scheme)
    Shared,  ///< the per-block shared-memory arena
};

/** Printable name of an access space. */
std::string accessSpaceName(AccessSpace space);

/** Read or write (atomic updates count as writes). */
enum class AccessKind {
    Read,
    Write,
};

/** Printable name of an access kind. */
std::string accessKindName(AccessKind kind);

/**
 * An affine element-index expression over the kernel's induction
 * variables, with the variables' iteration ranges attached so the
 * expression is a self-contained symbolic object: the verifier needs
 * no other context to bound it.
 */
struct AffineIndex
{
    std::int64_t offset = 0; ///< constant term (elements)

    std::int64_t coeff_block = 0;  ///< stride per logical block
    std::int64_t coeff_task = 0;   ///< stride per packed-task iteration
    std::int64_t coeff_iter = 0;   ///< stride per serial-loop iteration
    std::int64_t coeff_thread = 0; ///< stride per thread lane

    std::int64_t num_blocks = 1; ///< logical-block range [0, num_blocks)
    std::int64_t num_tasks = 1;  ///< packed-task range [0, num_tasks)
    std::int64_t num_iters = 1;  ///< serial-loop range [0, num_iters)
    std::int64_t num_threads = 1; ///< thread range [0, num_threads)

    /** Smallest index the expression reaches (all vars at 0 or max). */
    std::int64_t minIndex() const;

    /** Largest index the expression reaches. */
    std::int64_t maxIndex() const;

    /** Number of (block, task, iter, thread) instances. */
    std::int64_t instances() const
    {
        return num_blocks * num_tasks * num_iters * num_threads;
    }

    bool operator==(const AffineIndex &other) const;
    bool operator!=(const AffineIndex &other) const
    {
        return !(*this == other);
    }

    /** Append "o + 8192*b + 1024*t + 256*i + th  (b<4,t<8,i<4,th<256)". */
    void appendTo(std::string &out) const;

    /** The text appendTo() writes. */
    std::string toString() const;
};

/** One memory access performed by one scheduled op. */
struct OpAccess
{
    NodeId node = kInvalidNodeId; ///< op performing the access
    int op_index = -1;            ///< its position in KernelPlan::ops

    AccessKind kind = AccessKind::Read;
    AccessSpace space = AccessSpace::Global;

    /**
     * Identity of the accessed buffer. Accesses on the same buffer
     * alias; distinct buffers never do. Conventions used by stitch
     * codegen: "input:%<id>", "out:%<id>", "scratch:%<id>",
     * "remat:%<id>" and "smem" (the one shared arena, disambiguated
     * by offsets).
     */
    std::string buffer;

    /** Element size of the buffer (bytes). */
    std::int64_t elem_bytes = 4;

    /** Declared extent of the buffer (elements). For the shared arena
     * this is the whole arena in elements, offsets included. */
    std::int64_t extent = 0;

    /** The affine enumeration of touched element indices. */
    AffineIndex index;

    /**
     * Bounds predicate: the access executes only where index < guard
     * (elements, same frame as `index`). -1 means unpredicated — the
     * generator proved the raw range exact and elided the check.
     */
    std::int64_t guard = -1;

    /**
     * Intra-warp address stride class (elements between adjacent
     * lanes): 1 = fully coalesced, 0 = broadcast (every lane reads the
     * same element), k > 1 = strided/permuted access whose lanes land
     * k elements apart on average (transposes, gathers).
     */
    std::int64_t warp_stride = 1;

    /** Full-range repetitions (input load factors, remat re-reads). */
    double repeat = 1.0;

    /**
     * True when the access contributes off-chip traffic the cost model
     * prices. Secondary reads of an already-register-buffered value
     * are recorded for race analysis but carry no DRAM traffic.
     */
    bool counts_traffic = true;

    /** Largest index actually reachable: min(maxIndex, guard - 1). */
    std::int64_t effectiveMax() const;

    /** Number of distinct elements the access touches (per repeat). */
    std::int64_t touchedElements() const;

    /** Append the one-line rendering for diagnostics and the CUDA
     * emitter. */
    void appendTo(std::string &out) const;

    /** The text appendTo() writes. */
    std::string toString() const;
};

/**
 * Build the canonical contiguous enumeration of @p extent elements
 * under a partition of @p num_blocks logical blocks x @p num_tasks
 * packed tasks x @p num_threads threads: the serial-iteration range is
 * derived so the enumeration covers the extent, and a guard is
 * attached iff the raw range overshoots it.
 */
AffineIndex linearEnumeration(std::int64_t extent, std::int64_t num_blocks,
                              std::int64_t num_tasks,
                              std::int64_t num_threads);

/**
 * Distinct 32-byte DRAM sectors one warp's access touches for a given
 * intra-warp stride class: 1 sector for a broadcast, span/32 for a
 * contiguous access, capped at one sector per lane.
 */
std::int64_t sectorsPerWarp(std::int64_t warp_stride,
                            std::int64_t elem_bytes);

/**
 * Statically derived DRAM transactions of one traffic-counting access:
 * the touched bytes scaled by the stride class's sector inefficiency,
 * in 32-byte sectors, times the repeat factor. Non-traffic and
 * shared-space accesses cost zero.
 */
double accessTransactions(const OpAccess &access);

/**
 * Shared-memory bank-conflict degree of one warp for a stride class:
 * the largest number of lanes landing on the same bank (1 = conflict
 * free; a broadcast is conflict-free via the broadcast path).
 */
int bankConflictDegree(std::int64_t warp_stride, std::int64_t elem_bytes);

/**
 * True when two accesses follow the same per-instance index mapping
 * (equal affine expressions and guards): every instance of one touches
 * exactly the element the matching instance of the other touches, so
 * a write-then-access pair stays within one thread.
 */
bool sameMapping(const OpAccess &a, const OpAccess &b);

/**
 * True when the touched element ranges of two accesses to the same
 * buffer overlap.
 */
bool rangesOverlap(const OpAccess &a, const OpAccess &b);

// ---------------------------------------------------------------------
// Shape-parametric extensions: symbolic extents/offsets over named
// dimension variables, and the certificate the parametric verifier
// attaches to a plan once it has discharged its proof obligations for
// every shape in a declared range.
// ---------------------------------------------------------------------

/**
 * One named dynamic dimension variable with its admissible range. The
 * plan under certification was compiled with the dimension bound to
 * `value`; the certificate claims safety for every integer in
 * [lo, hi] that is a multiple of `divisor`.
 */
struct ShapeDim
{
    std::string name;         ///< e.g. "batch"
    std::int64_t value = 1;   ///< concrete binding at compile time
    std::int64_t lo = 1;      ///< smallest admissible value (inclusive)
    std::int64_t hi = 1;      ///< largest admissible value (inclusive)
    std::int64_t divisor = 1; ///< admissible values are multiples of this

    /** A point range certifies nothing beyond the compile shape. */
    bool point() const { return lo == hi; }

    /** True when @p v lies in the admissible set. */
    bool admits(std::int64_t v) const
    {
        return v >= lo && v <= hi && divisor > 0 && v % divisor == 0;
    }

    /** "batch=200 in [101,200]" (plus "/4" when divisor > 1). */
    std::string toString() const;
};

/** Closed integer interval [lo, hi] (empty iff hi < lo). */
struct SymInterval
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;
};

/**
 * A linear term `c0 + sum ci * dim_i` over a declared ShapeDim vector.
 * Terms hold (dim index, coefficient) pairs sorted by dim index with
 * no zero coefficients, so structural equality is extensional equality
 * over any non-degenerate range.
 */
struct LinExpr
{
    std::int64_t c0 = 0;
    std::vector<std::pair<int, std::int64_t>> terms;

    static LinExpr constant(std::int64_t c);
    static LinExpr dim(int dim_index, std::int64_t coeff,
                       std::int64_t c0 = 0);

    bool isConstant() const { return terms.empty(); }

    /** Value with every dim bound to the given concrete values. */
    std::int64_t evalAt(const std::vector<std::int64_t> &values) const;

    /** Value at the dims' compile-time bindings. */
    std::int64_t atCompilePoint(const std::vector<ShapeDim> &dims) const;

    /** Tight bounds of the expression over the dims' ranges. */
    SymInterval interval(const std::vector<ShapeDim> &dims) const;

    /**
     * A positive d such that every admissible evaluation of the
     * expression is a multiple of d (gcd of c0 and each ci * divisor_i;
     * 0 when the expression is identically zero).
     */
    std::int64_t divisibility(const std::vector<ShapeDim> &dims) const;

    bool operator==(const LinExpr &other) const
    {
        return c0 == other.c0 && terms == other.terms;
    }
    bool operator!=(const LinExpr &other) const { return !(*this == other); }

    /** "64*batch + 128" (dim names resolved through @p dims). */
    std::string toString(const std::vector<ShapeDim> &dims) const;
};

/**
 * Shape-parametric twin of one OpAccess: the accessed buffer's extent
 * and the index expression's constant offset as linear terms over the
 * kernel's declared shape dims. `access_index` pairs the twin with its
 * entry in KernelPlan::accesses; accesses without a twin (non-linear
 * or ambiguous extents) fall back to concrete verification (AS831).
 */
struct SymbolicAccess
{
    int access_index = -1;
    LinExpr extent; ///< accessed buffer extent (arena: 4-byte words)
    LinExpr offset; ///< constant index term (arena slot offsets)

    /**
     * Extent of the value the access stages, when it differs from the
     * buffer extent (shared-arena accesses stage a node value into a
     * fixed-capacity slot; the arena-overflow proof needs the value's
     * growth, not the arena's). Equals `extent` for off-chip accesses.
     */
    LinExpr value_extent;
};

/**
 * The parametric verifier's verdict for one kernel plan over a
 * declared shape range.
 */
struct ShapeCertificate
{
    enum class Verdict {
        None,     ///< no parametric verification was attempted
        Proven,   ///< every obligation discharged for the whole range
        Fallback, ///< some obligation did not close (AS831): concrete
                  ///< AS7xx verification remains the authority
        Refuted,  ///< a witness shape in the range violates an
                  ///< obligation (AS80x/AS81x/AS821 reported)
    };

    Verdict verdict = Verdict::None;
    std::vector<ShapeDim> dims;            ///< certified ranges
    std::vector<std::string> assumptions;  ///< conditions the proof uses
    int obligations_proven = 0;
    int obligations_fallback = 0;

    /** True when the certificate proves safety at @p values. */
    bool covers(const std::vector<std::int64_t> &values) const;

    /** Multi-line rendering (verdict, ranges, obligation counts,
     * assumptions). */
    std::string toString() const;
};

/** Printable name of a certificate verdict. */
std::string certificateVerdictName(ShapeCertificate::Verdict verdict);

} // namespace astitch

#endif // ASTITCH_ANALYSIS_ACCESS_MODEL_H

#include "analysis/kernel_verifier.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "analysis/shape_symbolic.h"
#include "sim/cost_model.h"
#include "support/strings.h"

namespace astitch {

namespace {

std::atomic<std::int64_t> g_plan_runs{0};

/**
 * AS721 fires when a warp needs at least this many times the sectors of
 * an ideal stride-1 access. 4x keeps the legitimate stride-2
 * transpose/column classes (priced by the cost model at 0.5 coalescing)
 * below the lint.
 */
constexpr double kCoalescingSlack = 4.0;

/** AS741 fires above this per-element recompute factor. */
constexpr double kRecomputeBlowup = 16.0;

/** AS751 relative tolerance against the cost model. */
constexpr double kCostTolerance = 0.05;

/**
 * AS751 absolute slack (transactions): per-access sector rounding
 * legitimately diverges from the model's aggregate rounding by up to one
 * transaction per access, so tiny kernels need a floor.
 */
constexpr double kCostMinSlack = 16.0;

/** Coverage accumulator for one written off-chip buffer. */
struct WriteCoverage
{
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    std::int64_t extent = 0;
    bool any = false;
};

/**
 * True when a barrier of sufficient scope orders schedule positions
 * @p p and @p q: shared-arena exchanges are satisfied by any barrier
 * (block or device), off-chip staging needs a device-wide one.
 */
bool
orderedByBarrier(const BarrierIndex &barriers, int p, int q,
                 bool needs_device)
{
    return barriers.between(std::min(p, q), std::max(p, q), needs_device);
}

/**
 * Access indices sorted by (buffer, index), so each buffer's accesses
 * form one run in access order. @p buffer_ids receives a dense id per
 * access, equal exactly when the buffers are.
 */
std::vector<int>
groupByBuffer(const std::vector<OpAccess> &accesses,
              std::vector<int> &buffer_ids)
{
    std::vector<int> order(accesses.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int x, int y) {
        const int c = accesses[x].buffer.compare(accesses[y].buffer);
        return c < 0 || (c == 0 && x < y);
    });
    buffer_ids.assign(accesses.size(), 0);
    for (std::size_t k = 1; k < order.size(); ++k) {
        buffer_ids[order[k]] =
            buffer_ids[order[k - 1]] +
            (accesses[order[k]].buffer != accesses[order[k - 1]].buffer);
    }
    return order;
}

void
checkBounds(const KernelPlan &plan, DiagnosticEngine &engine)
{
    std::map<std::string, WriteCoverage> covered;
    for (const OpAccess &a : plan.accesses) {
        const std::int64_t lo = a.index.minIndex();
        const std::int64_t hi = a.effectiveMax();
        if (lo < 0) {
            engine.report("AS703", plan.name,
                          strCat("access reaches negative index ", lo,
                                 ": ", a.toString()),
                          a.node);
        }
        if (hi >= a.extent) {
            engine.report(a.space == AccessSpace::Shared ? "AS702"
                                                         : "AS701",
                          plan.name,
                          strCat("access reaches index ", hi,
                                 " past extent ", a.extent, ": ",
                                 a.toString()),
                          a.node);
        }
        if (a.kind == AccessKind::Write &&
            a.space != AccessSpace::Shared) {
            WriteCoverage &cov = covered[a.buffer];
            if (!cov.any) {
                cov.lo = lo;
                cov.hi = hi;
            } else {
                cov.lo = std::min(cov.lo, lo);
                cov.hi = std::max(cov.hi, hi);
            }
            cov.extent = a.extent;
            cov.any = true;
        }
    }
    // An off-chip buffer the kernel writes must be written *fully*: a
    // shrunken task-loop or launch bound leaves a stale tail behind.
    for (const auto &[buffer, cov] : covered) {
        if (cov.lo <= 0 && cov.hi >= cov.extent - 1)
            continue;
        engine.report("AS704", plan.name,
                      strCat("writes to ", buffer, " cover only [",
                             cov.lo, ", ", cov.hi, "] of extent ",
                             cov.extent));
    }
}

/**
 * True when accesses i < j race, given that both touch one buffer with
 * overlapping ranges and at least one of them writes: AS711 when both
 * write, AS712 otherwise.
 */
bool
accessesRace(const OpAccess &a, const OpAccess &b,
             const BarrierIndex &barriers)
{
    if (a.op_index == b.op_index)
        return false; // program order within one op's emission
    if (a.kind == AccessKind::Write && b.kind == AccessKind::Write) {
        // Identical mappings keep both writes inside one thread,
        // ordered by that thread's program order.
        if (sameMapping(a, b))
            return false;
    } else if (a.space != AccessSpace::Shared &&
               a.space != AccessSpace::Scratch) {
        // Write-read (either order) crosses threads by design only on
        // a staging buffer; inputs/outputs have no in-kernel pairing.
        return false;
    }
    // A barrier of the buffer's scope must separate the two positions.
    return !orderedByBarrier(barriers, a.op_index, b.op_index,
                             a.space != AccessSpace::Shared);
}

/**
 * Index-level races. Only accesses to one buffer overlap, and only
 * schedule positions in one barrier window of the buffer's scope are
 * unordered, so the accesses are sorted by (buffer, window, minIndex)
 * and each group is swept for overlapping ranges: a read meets the open
 * writes, a write every open access. The per-pair rules of
 * accessesRace() then apply, and findings are reported in (i, j) order.
 */
void
checkRaces(const KernelPlan &plan, const BarrierIndex &barriers,
           DiagnosticEngine &engine)
{
    const auto &accesses = plan.accesses;
    std::vector<int> buffer_ids;
    const std::vector<int> by_buffer = groupByBuffer(accesses, buffer_ids);

    struct Key
    {
        int buffer;
        int window;
        std::int64_t lo;
        std::int64_t hi;
        int index;
    };
    std::vector<Key> keys;
    keys.reserve(accesses.size());
    for (std::size_t begin = 0, end = 0; begin < by_buffer.size();
         begin = end) {
        // The window follows the buffer's scope. Codegen gives every
        // buffer one space; a buffer whose accesses disagree stays one
        // group, so accessesRace() still sees each of its pairs.
        const AccessSpace space = accesses[by_buffer[begin]].space;
        bool one_space = true;
        for (end = begin; end < by_buffer.size() &&
                          buffer_ids[by_buffer[end]] ==
                              buffer_ids[by_buffer[begin]];
             ++end) {
            one_space &= accesses[by_buffer[end]].space == space;
        }
        for (std::size_t k = begin; k < end; ++k) {
            const OpAccess &a = accesses[by_buffer[k]];
            const std::int64_t lo = a.index.minIndex();
            const std::int64_t hi = a.effectiveMax();
            if (hi < lo)
                continue; // an empty range overlaps nothing
            const int window =
                one_space ? barriers.window(a.op_index,
                                            space != AccessSpace::Shared)
                          : 0;
            keys.push_back(Key{buffer_ids[by_buffer[k]], window, lo, hi,
                               by_buffer[k]});
        }
    }
    std::sort(keys.begin(), keys.end(), [](const Key &x, const Key &y) {
        return std::tie(x.buffer, x.window, x.lo, x.index) <
               std::tie(y.buffer, y.window, y.lo, y.index);
    });

    std::vector<std::pair<int, int>> findings; // (i, j)
    // Open accesses of the current group whose range may still reach
    // the current one (positions into keys). Reads expire only when a
    // write sweeps them, so read-read overlaps cost nothing.
    std::vector<std::size_t> open_writes, open_reads;
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const Key &cur = keys[k];
        if (k == 0 || cur.buffer != keys[k - 1].buffer ||
            cur.window != keys[k - 1].window) {
            open_writes.clear();
            open_reads.clear();
        }
        const auto meet = [&](std::vector<std::size_t> &open) {
            std::erase_if(open, [&](std::size_t t) {
                return keys[t].hi < cur.lo;
            });
            for (std::size_t t : open) {
                const int i = std::min(keys[t].index, cur.index);
                const int j = std::max(keys[t].index, cur.index);
                if (accessesRace(accesses[i], accesses[j], barriers))
                    findings.emplace_back(i, j);
            }
        };
        meet(open_writes);
        const bool write = accesses[cur.index].kind == AccessKind::Write;
        if (write)
            meet(open_reads);
        (write ? open_writes : open_reads).push_back(k);
    }

    std::sort(findings.begin(), findings.end());
    for (const auto &[i, j] : findings) {
        const OpAccess &a = accesses[i];
        const OpAccess &b = accesses[j];
        if (a.kind == AccessKind::Write && b.kind == AccessKind::Write) {
            engine.report("AS711", plan.name,
                          strCat("unordered overlapping writes to ",
                                 a.buffer, " by ops ", a.op_index, " and ",
                                 b.op_index),
                          a.node);
            continue;
        }
        const bool needs_device = a.space != AccessSpace::Shared;
        const OpAccess &w = a.kind == AccessKind::Write ? a : b;
        const OpAccess &r = a.kind == AccessKind::Write ? b : a;
        engine.report("AS712", plan.name,
                      strCat("write of ", w.buffer, " by op ", w.op_index,
                             " and read by op ", r.op_index,
                             " are not separated by a ",
                             needs_device ? "device" : "block",
                             "-scope barrier"),
                      w.node);
    }
}

void
checkCoalescing(const KernelPlan &plan, DiagnosticEngine &engine)
{
    for (const OpAccess &a : plan.accesses) {
        if (a.space == AccessSpace::Shared || !a.counts_traffic)
            continue;
        const std::int64_t ideal = sectorsPerWarp(1, a.elem_bytes);
        const std::int64_t actual =
            sectorsPerWarp(a.warp_stride, a.elem_bytes);
        if (static_cast<double>(actual) >=
            kCoalescingSlack * static_cast<double>(ideal)) {
            engine.report(
                "AS721", plan.name,
                strCat("warp needs ", actual, " sectors (ideal ", ideal,
                       ") at stride ", a.warp_stride, ": ",
                       a.toString()),
                a.node);
        }
    }
}

void
checkBankConflicts(const KernelPlan &plan, DiagnosticEngine &engine)
{
    for (const OpAccess &a : plan.accesses) {
        if (a.space != AccessSpace::Shared)
            continue;
        const int degree = bankConflictDegree(a.warp_stride, a.elem_bytes);
        if (degree >= 2) {
            engine.report("AS731", plan.name,
                          strCat(degree, "-way bank conflict at stride ",
                                 a.warp_stride, ": ", a.toString()),
                          a.node);
        }
    }
}

void
checkRecompute(const KernelPlan &plan, DiagnosticEngine &engine)
{
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        const ScheduledOp &op = plan.ops[i];
        if (op.recompute_factor > kRecomputeBlowup) {
            engine.report(
                "AS741", plan.name,
                strCat("op ", i, " recomputes every element ",
                       strFixed(op.recompute_factor, 1),
                       "x (broadcast blowup threshold ",
                       strFixed(kRecomputeBlowup, 1), ")"),
                op.node);
        }
    }
}

void
checkCostModel(const Graph &graph, const KernelPlan &plan,
               const GpuSpec &spec, DiagnosticEngine &engine)
{
    const TransactionEstimate est = staticTransactionCounts(plan);
    KernelRecord record;
    try {
        record = CostModel(spec).priceKernel(workDescFor(graph, plan));
    } catch (const FatalError &) {
        // An unpriceable configuration is the consistency family's
        // finding (AS005..AS008), not a model disagreement.
        return;
    }
    auto compare = [&](const char *what, double verifier, double model) {
        const double allowed =
            std::max(kCostTolerance * model, kCostMinSlack);
        if (std::abs(verifier - model) > allowed) {
            engine.report(
                "AS751", plan.name,
                strCat("verifier derives ", strFixed(verifier, 0), " ",
                       what, " transactions but the cost model prices ",
                       strFixed(model, 0), " (tolerance ",
                       strFixed(allowed, 0), ")"));
        }
    };
    compare("read",
            est.read_transactions,
            static_cast<double>(record.dram_read_transactions));
    compare("write",
            est.write_transactions,
            static_cast<double>(record.dram_write_transactions));
}

} // namespace

TransactionEstimate
staticTransactionCounts(const KernelPlan &plan)
{
    TransactionEstimate est;
    for (const OpAccess &a : plan.accesses) {
        const double txn = accessTransactions(a);
        if (a.kind == AccessKind::Read)
            est.read_transactions += txn;
        else
            est.write_transactions += txn;
    }
    return est;
}

void
verifyKernelPlan(const Graph &graph, const KernelPlan &plan,
                 const GpuSpec &spec, DiagnosticEngine &engine)
{
    if (plan.accesses.empty())
        return; // no summaries recorded (non-stitch backend / fallback)
    g_plan_runs.fetch_add(1, std::memory_order_relaxed);
    checkBounds(plan, engine);
    checkRaces(plan, BarrierIndex(plan.barriers), engine);
    checkCoalescing(plan, engine);
    checkBankConflicts(plan, engine);
    checkRecompute(plan, engine);
    checkCostModel(graph, plan, spec, engine);
}

void
verifyCompiledCluster(const Graph &graph, const CompiledCluster &compiled,
                      const GpuSpec &spec, DiagnosticEngine &engine)
{
    for (const KernelPlan &plan : compiled.kernels)
        verifyKernelPlan(graph, plan, spec, engine);
}

std::int64_t
verifierPlanRuns()
{
    return g_plan_runs.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Shape-parametric proof mode (AS8xx)
// ---------------------------------------------------------------------

namespace {

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return b > 0 ? (a + b - 1) / b : a;
}

/** Smallest admissible value of a dim, or lo-1 when the set is empty. */
std::int64_t
admissibleLo(const ShapeDim &d)
{
    const std::int64_t div = std::max<std::int64_t>(1, d.divisor);
    const std::int64_t v = ceilDiv(d.lo, div) * div;
    return v <= d.hi ? v : d.lo - 1;
}

/** Largest admissible value of a dim (callers check non-emptiness). */
std::int64_t
admissibleHi(const ShapeDim &d)
{
    const std::int64_t div = std::max<std::int64_t>(1, d.divisor);
    return (d.hi / div) * div;
}

/** "batch=33, rows=128" rendering of one candidate shape. */
std::string
witnessString(const std::vector<ShapeDim> &dims,
              const std::vector<std::int64_t> &values)
{
    std::string out;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i)
            out += ", ";
        out += strCat(dims[i].name, "=", values[i]);
    }
    return out;
}

/**
 * Candidate witness shapes: the admissible corners of the range box
 * plus the compile point. Interval reasoning proves the "for all"
 * direction; these points only serve refutations, and for linear
 * expressions every interval extreme is attained at a corner, so a
 * violated interval bound always has a corner witness.
 */
std::vector<std::vector<std::int64_t>>
witnessCandidates(const std::vector<ShapeDim> &dims)
{
    std::vector<std::vector<std::int64_t>> corners{{}};
    constexpr std::size_t kMaxCorners = 256;
    for (const ShapeDim &d : dims) {
        std::vector<std::int64_t> choices{admissibleLo(d), admissibleHi(d)};
        if (d.admits(d.value))
            choices.push_back(d.value);
        std::sort(choices.begin(), choices.end());
        choices.erase(std::unique(choices.begin(), choices.end()),
                      choices.end());
        std::vector<std::vector<std::int64_t>> next;
        for (const auto &base : corners) {
            for (std::int64_t c : choices) {
                if (next.size() >= kMaxCorners)
                    break;
                std::vector<std::int64_t> v = base;
                v.push_back(c);
                next.push_back(std::move(v));
            }
        }
        corners = std::move(next);
    }
    return corners;
}

} // namespace

ShapeCertificate
verifyKernelPlanSymbolic(const KernelPlan &plan,
                         const std::vector<ShapeDim> &dims,
                         DiagnosticEngine &engine)
{
    ShapeCertificate cert;
    cert.dims = dims;
    if (plan.accesses.empty())
        return cert; // nothing recorded: no claim to certify

    for (const ShapeDim &d : dims) {
        if (admissibleLo(d) < d.lo) {
            // The declared range admits no shape at all; the claim is
            // vacuously true.
            cert.verdict = ShapeCertificate::Verdict::Proven;
            cert.assumptions.push_back(
                strCat("range of ", d.name, " admits no shapes"));
            return cert;
        }
    }

    cert.assumptions.push_back(
        "serial trip counts and extent guards are recomputed from the "
        "runtime extent; launch dimensions, task packing and the shared "
        "arena stay fixed at their compile-point values");
    cert.assumptions.push_back(
        "framework input/output buffers are allocated per served shape; "
        "only scratch and shared-arena capacities are fixed at compile "
        "time");

    int refutations = 0;
    std::vector<std::string> open;
    const auto prove = [&cert] { ++cert.obligations_proven; };
    // AS831 quotes the first six open obligations; @p reason builds
    // the text only for those.
    const auto leaveOpen = [&cert, &open](const auto &reason) {
        ++cert.obligations_fallback;
        if (open.size() < 6)
            open.push_back(reason());
    };
    const auto refute = [&](const std::string &code,
                            const std::vector<std::int64_t> &witness,
                            const std::string &what, NodeId node) {
        ++refutations;
        engine.report(code, plan.name,
                      strCat(what, " at ", witnessString(dims, witness)),
                      node);
    };

    // The proof step of every obligation a witness can refute: proven
    // when the interval argument @p proven holds over the whole range;
    // else refuted with @p code at the first candidate shape where
    // @p violated holds, @p what(witness) describing the violation;
    // else left open as "<subject()> undecided". Returns @p proven.
    const std::vector<std::vector<std::int64_t>> candidates =
        witnessCandidates(dims);
    const auto discharge = [&](bool proven, const char *code, NodeId node,
                               const auto &violated, const auto &what,
                               const auto &subject) {
        if (proven) {
            prove();
            return true;
        }
        for (const std::vector<std::int64_t> &values : candidates) {
            if (violated(values)) {
                refute(code, values, what(values), node);
                return false;
            }
        }
        leaveOpen([&] { return strCat(subject(), " undecided"); });
        return false;
    };

    // Twin lookup: accesses without a symbolic form fall back.
    std::map<int, const SymbolicAccess *> twins;
    for (const SymbolicAccess &s : plan.sym_accesses)
        twins.emplace(s.access_index, &s);
    const auto twinOf = [&twins](std::size_t i) -> const SymbolicAccess * {
        const auto it = twins.find(static_cast<int>(i));
        return it == twins.end() ? nullptr : it->second;
    };

    // Grid*tasks of the partition enumerating an op's elements (the
    // per-"row" parallelism a shared-arena slot's footprint divides by).
    const auto partitionSpread = [&plan](int op_index) -> std::int64_t {
        if (op_index >= 0 && op_index < static_cast<int>(plan.ops.size())) {
            const OpPartition &p = plan.ops[op_index].partition;
            if (p.known())
                return std::max<std::int64_t>(1, p.launch.grid *
                                                     p.tasks_per_block);
        }
        return std::max<std::int64_t>(1, plan.launch.grid);
    };

    // Writers per off-chip buffer: parametric coverage refutation is
    // only sound for single-writer buffers (several writers can jointly
    // cover what none covers alone).
    std::map<std::string, int> writers;
    for (const OpAccess &a : plan.accesses) {
        if (a.kind == AccessKind::Write && a.space != AccessSpace::Shared)
            ++writers[a.buffer];
    }

    std::vector<std::string> regrow_guards;
    for (std::size_t i = 0; i < plan.accesses.size(); ++i) {
        const OpAccess &a = plan.accesses[i];
        const SymbolicAccess *twin = twinOf(i);
        if (!twin) {
            leaveOpen([&] {
                return strCat("no symbolic form for ", a.buffer, " (access ",
                              i, ")");
            });
            continue;
        }
        const SymInterval off = twin->offset.interval(dims);
        const SymInterval ext = twin->extent.interval(dims);

        // AS803: negative offset or empty extent anywhere in range.
        if (!discharge(
                off.lo >= 0 && ext.lo >= 1, "AS803", a.node,
                [&](const auto &v) {
                    return twin->offset.evalAt(v) < 0 ||
                           twin->extent.evalAt(v) < 1;
                },
                [&](const auto &v) {
                    return strCat("access ", i, " on ", a.buffer,
                                  " has offset ", twin->offset.evalAt(v),
                                  " / extent ", twin->extent.evalAt(v));
                },
                [&] { return strCat("offset/extent sign of ", a.buffer); }))
            continue;

        if (a.space == AccessSpace::Shared) {
            // AS802: the slot span must stay inside the arena for every
            // shape (offset and arena are usually constant; mutations
            // make the offset shape-dependent).
            const std::int64_t width = a.index.num_threads;
            discharge(
                off.hi + width - 1 <= ext.lo - 1, "AS802", a.node,
                [&](const auto &v) {
                    return twin->offset.evalAt(v) + width - 1 >=
                           twin->extent.evalAt(v);
                },
                [&](const auto &v) {
                    return strCat("arena access ", i, " spans [",
                                  twin->offset.evalAt(v), ", ",
                                  twin->offset.evalAt(v) + width - 1,
                                  "] past arena of ", twin->extent.evalAt(v),
                                  " words");
                },
                [&] { return strCat("arena span of access ", i); });
            // AS821: the staged value's footprint must fit its
            // fixed-capacity slot at every shape. Writes only: the
            // producer stages the value, readers reuse the slot.
            if (a.kind == AccessKind::Write) {
                const std::int64_t spread = partitionSpread(a.op_index);
                const auto needed = [&](const auto &v) {
                    return ceilDiv(twin->value_extent.evalAt(v), spread);
                };
                discharge(
                    ceilDiv(twin->value_extent.interval(dims).hi, spread) <=
                        width,
                    "AS821", a.node,
                    [&](const auto &v) { return needed(v) > width; },
                    [&](const auto &v) {
                        return strCat("staged value of access ", i,
                                      " needs ", needed(v),
                                      " arena words but its slot holds ",
                                      width);
                    },
                    [&] { return strCat("arena footprint of access ", i); });
            }
            continue;
        }

        // Off-chip access. The canonical enumeration recomputes its
        // serial trip count and guard from the runtime extent (the
        // standing assumption), so in-bounds holds by construction;
        // what remains provable is capacity, reach and coverage.
        const AffineIndex canonical =
            linearEnumeration(a.extent, a.index.num_blocks,
                              a.index.num_tasks, a.index.num_threads);
        if (a.index != canonical) {
            leaveOpen([&] {
                return strCat("non-canonical enumeration for ", a.buffer,
                              " (access ", i, ")");
            });
            continue;
        }
        prove(); // in-bounds under the recomputed guard

        // AS801: a scratch buffer's capacity is fixed by the
        // compile-time memory plan; its symbolic extent must not
        // outgrow it anywhere in the range.
        if (strStartsWith(a.buffer, "scratch:")) {
            discharge(
                ext.hi <= a.extent, "AS801", a.node,
                [&](const auto &v) {
                    return twin->extent.evalAt(v) > a.extent;
                },
                [&](const auto &v) {
                    return strCat(a.buffer, " needs ",
                                  twin->extent.evalAt(v),
                                  " elements but was allocated for ",
                                  a.extent);
                },
                [&] { return strCat("capacity of ", a.buffer); });
        }

        // Elided guards are a compile-point optimization: they stay
        // valid across the range only when the enumeration stride
        // divides every admissible extent.
        const std::int64_t stride =
            a.index.num_blocks * a.index.num_tasks * a.index.num_threads;
        if (a.guard < 0 && !twin->extent.isConstant()) {
            const std::int64_t div = twin->extent.divisibility(dims);
            if (!(div > 0 && stride > 0 && div % stride == 0) &&
                std::find(regrow_guards.begin(), regrow_guards.end(),
                          a.buffer) == regrow_guards.end())
                regrow_guards.push_back(a.buffer);
        }

        // AS804: a (single) writer must be able to reach the whole
        // buffer at every shape — its raw enumeration span, fixed at
        // compile time, bounds what the guard can reveal.
        if (a.kind == AccessKind::Write) {
            const std::int64_t raw_span = stride * a.index.num_iters;
            const bool single_writer = writers[a.buffer] == 1;
            if (twin->offset.isConstant() && twin->offset.c0 > 0 &&
                single_writer) {
                refute("AS804", candidates.front(),
                       strCat("writes to ", a.buffer, " start at ",
                              twin->offset.c0,
                              ", leaving the head unwritten"),
                       a.node);
            } else if (ext.hi > raw_span && !single_writer) {
                leaveOpen([&] {
                    return strCat("multi-writer coverage of ", a.buffer,
                                  " not provable");
                });
            } else {
                discharge(
                    ext.hi <= raw_span, "AS804", a.node,
                    [&](const auto &v) {
                        return twin->extent.evalAt(v) > raw_span;
                    },
                    [&](const auto &v) {
                        return strCat("writes to ", a.buffer, " reach ",
                                      raw_span, " elements but extent is ",
                                      twin->extent.evalAt(v));
                    },
                    [&] { return strCat("coverage of ", a.buffer); });
            }
        }
    }

    // Same-buffer pairs (i, j), i < j, in (i, j) order. Ordered pairs
    // are visited too: each proves an obligation.
    const auto &accesses = plan.accesses;
    const BarrierIndex barriers(plan.barriers);
    std::vector<int> buffer_ids;
    const std::vector<int> by_buffer = groupByBuffer(accesses, buffer_ids);
    std::vector<std::size_t> rank(accesses.size());
    for (std::size_t k = 0; k < by_buffer.size(); ++k)
        rank[by_buffer[k]] = k;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        for (std::size_t k = rank[i] + 1;
             k < by_buffer.size() &&
             buffer_ids[by_buffer[k]] == buffer_ids[i];
             ++k) {
            const std::size_t j = by_buffer[k];
            const OpAccess &a = accesses[i];
            const OpAccess &b = accesses[j];
            if (a.op_index == b.op_index)
                continue;
            if (a.kind == AccessKind::Read && b.kind == AccessKind::Read)
                continue;
            const SymbolicAccess *ta = twinOf(i);
            const SymbolicAccess *tb = twinOf(j);
            const bool writes = a.kind == b.kind; // not both reads

            if (writes && sameMapping(a, b)) {
                // Same-thread at the compile shape; stays same-thread
                // for every shape iff the symbolic forms agree too.
                if (!ta || !tb) {
                    leaveOpen([&] {
                        return strCat("write-write mapping on ", a.buffer,
                                      " lacks a symbolic form");
                    });
                    continue;
                }
                discharge(
                    ta->extent == tb->extent && ta->offset == tb->offset,
                    "AS811", a.node,
                    [&](const auto &v) {
                        return ta->extent.evalAt(v) !=
                                   tb->extent.evalAt(v) ||
                               ta->offset.evalAt(v) != tb->offset.evalAt(v);
                    },
                    [&](const auto &) {
                        return strCat("writes to ", a.buffer, " by ops ",
                                      a.op_index, " and ", b.op_index,
                                      " share a mapping at the compile "
                                      "shape but diverge");
                    },
                    [&] {
                        return strCat("write-write mapping on ", a.buffer);
                    });
                continue;
            }
            if (!writes && a.space != AccessSpace::Shared &&
                a.space != AccessSpace::Scratch)
                continue; // inputs/outputs have no in-kernel pairing

            const char *pair = writes ? "write-write" : "read-write";
            if (orderedByBarrier(barriers, a.op_index, b.op_index,
                                 a.space != AccessSpace::Shared)) {
                prove(); // barrier placement is shape-independent
                continue;
            }
            if (rangesOverlap(a, b)) {
                // The concrete verifier already reports AS711/AS712 for
                // this pair; nothing parametric to add.
                leaveOpen([&] {
                    return strCat("concrete ", pair, " finding on ",
                                  a.buffer, " governs");
                });
                continue;
            }
            // Disjoint at the compile shape: prove it stays so.
            if (!ta || !tb) {
                leaveOpen([&] {
                    return strCat(pair, " spans on ", a.buffer,
                                  " lack a symbolic form");
                });
                continue;
            }

            // Both accesses are disjoint at the compile shape and
            // unordered by any barrier: they must stay disjoint at every
            // shape in the range.
            const auto spanAt = [&](const OpAccess &acc,
                                    const SymbolicAccess &twin,
                                    const std::vector<std::int64_t> &v)
                -> SymInterval {
                const std::int64_t lo = twin.offset.evalAt(v);
                const std::int64_t width =
                    acc.space == AccessSpace::Shared
                        ? acc.index.num_threads
                        : twin.value_extent.evalAt(v);
                return SymInterval{lo,
                                   lo + std::max<std::int64_t>(width, 1) - 1};
            };
            const auto spanInterval =
                [&](const OpAccess &acc,
                    const SymbolicAccess &twin) -> SymInterval {
                const SymInterval off = twin.offset.interval(dims);
                const std::int64_t width_hi =
                    acc.space == AccessSpace::Shared
                        ? acc.index.num_threads
                        : twin.value_extent.interval(dims).hi;
                return SymInterval{
                    off.lo,
                    off.hi + std::max<std::int64_t>(width_hi, 1) - 1};
            };
            const SymInterval sa = spanInterval(a, *ta);
            const SymInterval sb = spanInterval(b, *tb);
            discharge(
                sa.hi < sb.lo || sb.hi < sa.lo, writes ? "AS811" : "AS812",
                a.node,
                [&](const auto &v) {
                    const SymInterval va = spanAt(a, *ta, v);
                    const SymInterval vb = spanAt(b, *tb, v);
                    return va.lo <= vb.hi && vb.lo <= va.hi;
                },
                [&](const auto &) {
                    return strCat("accesses ", i, " and ", j, " on ",
                                  a.buffer,
                                  " are disjoint at the compile shape "
                                  "but overlap");
                },
                [&] { return strCat("span separation on ", a.buffer); });
        }
    }

    if (!regrow_guards.empty()) {
        cert.assumptions.push_back(
            strCat("extent guards elided at the compile shape must be "
                   "re-enabled when serving other shapes for: ",
                   strJoin(regrow_guards, ", ")));
    }

    if (refutations > 0) {
        cert.verdict = ShapeCertificate::Verdict::Refuted;
    } else if (open.empty()) {
        cert.verdict = ShapeCertificate::Verdict::Proven;
    } else {
        cert.verdict = ShapeCertificate::Verdict::Fallback;
        engine.report(
            "AS831", plan.name,
            strCat(cert.obligations_fallback,
                   " parametric proof obligation(s) did not close (",
                   strJoin(open, "; "),
                   "); concrete per-shape verification remains in "
                   "effect"));
    }
    return cert;
}

void
certifyCompiledCluster(const Graph &graph, CompiledCluster &compiled,
                       const std::vector<ShapeDim> &dims,
                       DiagnosticEngine &engine)
{
    for (KernelPlan &plan : compiled.kernels) {
        if (plan.certificate.verdict != ShapeCertificate::Verdict::None)
            continue; // already certified
        if (plan.accesses.empty())
            continue;
        if (plan.sym_accesses.empty())
            attachSymbolicAccesses(graph, plan, dims);
        plan.certificate = verifyKernelPlanSymbolic(plan, dims, engine);
    }
}

} // namespace astitch

/**
 * @file
 * Tests of the kernel-access verifier (AS7xx): the access-model
 * arithmetic, seeded mutations of real compiled plans whose complete
 * code list must be exactly their diagnostic code (plus AS751 where the
 * mutation changes the traffic the cost model prices), the
 * zero-findings sweep over the seed workloads on every shipped device,
 * and the cost-model transaction cross-check on the Fig. 5 / Fig. 7
 * paper graphs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "analysis/kernel_verifier.h"
#include "core/astitch_backend.h"
#include "graph/graph_builder.h"
#include "runtime/session.h"
#include "sim/cost_model.h"
#include "workloads/common.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

/** One seed workload compiled once with the AStitch backend on V100. */
struct CompiledWorkload
{
    std::string name;
    Graph graph;
    std::vector<CompiledCluster> compiled;
};

const std::deque<CompiledWorkload> &
compiledWorkloads()
{
    static const std::deque<CompiledWorkload> *cache = [] {
        auto *all = new std::deque<CompiledWorkload>;
        for (const auto &spec : workloads::inferenceWorkloads()) {
            all->push_back(CompiledWorkload{spec.name, spec.build(), {}});
            CompiledWorkload &wl = all->back();
            Session session(wl.graph,
                            std::make_unique<AStitchBackend>(),
                            SessionOptions{});
            session.compile();
            wl.compiled = session.compiled();
        }
        return all;
    }();
    return *cache;
}

/** Codes the verifier reports for @p plan, in report order. */
std::vector<std::string>
verify(const Graph &graph, const KernelPlan &plan, DiagnosticEngine &engine)
{
    verifyKernelPlan(graph, plan, kV100, engine);
    std::vector<std::string> codes;
    for (const Diagnostic &d : engine.diagnostics())
        codes.push_back(d.code);
    return codes;
}

/** Off-chip races are only ordered by device-scope barriers. */
bool
orderedByDeviceBarrier(const KernelPlan &plan, int p, int q)
{
    const int lo = std::min(p, q);
    const int hi = std::max(p, q);
    return std::any_of(plan.barriers.begin(), plan.barriers.end(),
                       [&](const BarrierPoint &b) {
                           return b.after_op >= lo && b.after_op < hi &&
                                  b.scope == BarrierScope::Device;
                       });
}

/** Run @p mutate on every seed kernel until it reports it applied. */
template <typename Fn>
void
forFirstMatchingKernel(Fn &&mutate)
{
    for (const CompiledWorkload &wl : compiledWorkloads()) {
        for (const CompiledCluster &compiled : wl.compiled) {
            for (const KernelPlan &plan : compiled.kernels) {
                if (plan.accesses.empty())
                    continue;
                if (mutate(wl.graph, plan))
                    return;
            }
        }
    }
    FAIL() << "no seed kernel matched the mutation's precondition";
}

// ---------------------------------------------------------------------
// Access-model arithmetic.
// ---------------------------------------------------------------------

TEST(AccessModel, LinearEnumerationCoversTheExtent)
{
    const AffineIndex idx = linearEnumeration(1000, 4, 2, 128);
    EXPECT_EQ(idx.coeff_thread, 1);
    EXPECT_EQ(idx.coeff_iter, 128);
    EXPECT_EQ(idx.num_iters, 1); // 4*2*128 = 1024 >= 1000
    EXPECT_EQ(idx.coeff_task, 128);
    EXPECT_EQ(idx.coeff_block, 256);
    EXPECT_EQ(idx.minIndex(), 0);
    EXPECT_EQ(idx.maxIndex(), 1023);
    EXPECT_GE(idx.instances(), 1000);
}

TEST(AccessModel, LinearEnumerationAddsIterationsForLargeExtents)
{
    const AffineIndex idx = linearEnumeration(10000, 2, 1, 256);
    EXPECT_EQ(idx.num_iters, 20); // ceil(10000 / 512)
    EXPECT_GE(idx.maxIndex() + 1, 10000);
    // The enumeration visits each index at most once.
    EXPECT_EQ(idx.instances(), idx.maxIndex() - idx.minIndex() + 1);
}

TEST(AccessModel, GuardClampsTheEffectiveRange)
{
    OpAccess access;
    access.extent = 1000;
    access.index = linearEnumeration(1000, 4, 2, 128);
    EXPECT_GE(access.index.maxIndex(), access.extent); // overshoots
    access.guard = 1000;
    EXPECT_EQ(access.effectiveMax(), 999);
    EXPECT_EQ(access.touchedElements(), 1000);
}

TEST(AccessModel, SectorCountingMatchesWarpGeometry)
{
    EXPECT_EQ(sectorsPerWarp(0, 4), 1);  // broadcast
    EXPECT_EQ(sectorsPerWarp(1, 4), 4);  // 128B contiguous
    EXPECT_EQ(sectorsPerWarp(2, 4), 8);  // stride-2 column walk
    EXPECT_EQ(sectorsPerWarp(32, 4), 32); // capped at one per lane
    EXPECT_EQ(sectorsPerWarp(1, 8), 8);  // fp64 doubles the span
}

TEST(AccessModel, BankConflictDegreeFollowsWordStride)
{
    EXPECT_EQ(bankConflictDegree(0, 4), 1); // broadcast
    EXPECT_EQ(bankConflictDegree(1, 4), 1); // conflict-free
    EXPECT_EQ(bankConflictDegree(2, 4), 2);
    EXPECT_EQ(bankConflictDegree(32, 4), 32);
    EXPECT_EQ(bankConflictDegree(1, 8), 2); // 8B elements span 2 banks
}

TEST(AccessModel, TransactionsScaleWithStrideAndRepeat)
{
    OpAccess access;
    access.elem_bytes = 4;
    access.extent = 1024;
    access.index = linearEnumeration(1024, 1, 1, 1024);
    const double ideal = accessTransactions(access);
    EXPECT_DOUBLE_EQ(ideal, 1024.0 * 4 / 32);
    access.warp_stride = 2;
    EXPECT_DOUBLE_EQ(accessTransactions(access), 2 * ideal);
    access.warp_stride = 1;
    access.repeat = 3.0;
    EXPECT_DOUBLE_EQ(accessTransactions(access), 3 * ideal);
    access.counts_traffic = false;
    EXPECT_DOUBLE_EQ(accessTransactions(access), 0.0);
}

// ---------------------------------------------------------------------
// Diagnostic-code families.
// ---------------------------------------------------------------------

TEST(Diagnostics, FamilyOfNormalizesCodesAndFamilies)
{
    EXPECT_EQ(familyOf("AS701"), "AS7");
    EXPECT_EQ(familyOf("AS7"), "AS7");
    EXPECT_EQ(familyOf("as712"), "AS7");
    EXPECT_EQ(familyOf("AS101"), "AS1");
    EXPECT_EQ(familyOf(""), "");
    EXPECT_EQ(familyOf("AS"), "");
    EXPECT_EQ(familyOf("ASX01"), "");
    EXPECT_EQ(familyOf("XS701"), "");
}

TEST(Diagnostics, WithFamilySelectsOneFamily)
{
    DiagnosticEngine engine;
    engine.report("AS101", "k", "race");
    engine.report("AS701", "k", "oob");
    engine.report("AS751", "k", "mismatch");
    EXPECT_EQ(engine.withFamily("AS7").size(), 2u);
    EXPECT_EQ(engine.withFamily("as701").size(), 2u);
    EXPECT_EQ(engine.withFamily("AS1").size(), 1u);
    EXPECT_EQ(engine.withFamily("bogus").size(), 0u);
}

TEST(Diagnostics, EveryVerifierCodeIsRegistered)
{
    for (const char *code : {"AS701", "AS702", "AS703", "AS704", "AS711",
                             "AS712", "AS721", "AS731", "AS741", "AS751"}) {
        const DiagnosticCode *entry = findDiagnosticCode(code);
        ASSERT_NE(entry, nullptr) << code;
        EXPECT_EQ(familyOf(entry->code), "AS7");
    }
}

// ---------------------------------------------------------------------
// Baseline: the verifier proves every seed plan clean on every device.
// ---------------------------------------------------------------------

TEST(KernelVerifier, SeedWorkloadsVerifyCleanOnEveryDevice)
{
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (const auto &wlspec : workloads::inferenceWorkloads()) {
            const Graph graph = wlspec.build();
            SessionOptions options;
            options.spec = spec;
            Session session(graph, std::make_unique<AStitchBackend>(),
                            options);
            session.compile();
            DiagnosticEngine engine;
            for (const CompiledCluster &compiled : session.compiled())
                verifyCompiledCluster(session.activeGraph(), compiled,
                                      spec, engine);
            EXPECT_TRUE(engine.empty())
                << wlspec.name << " on " << spec.name << ":\n"
                << engine.renderText();
        }
    }
}

TEST(KernelVerifier, StitchedKernelsRecordAccessSummaries)
{
    bool any = false;
    for (const CompiledWorkload &wl : compiledWorkloads()) {
        for (const CompiledCluster &compiled : wl.compiled) {
            for (const KernelPlan &plan : compiled.kernels)
                any = any || !plan.accesses.empty();
        }
    }
    EXPECT_TRUE(any) << "no stitched kernel recorded access summaries";
}

// ---------------------------------------------------------------------
// Seeded mutations: each corruption fires exactly its AS7xx code under
// the one verifier policy (every family runs).
// ---------------------------------------------------------------------

TEST(KernelVerifier, DroppedGuardIsAS701)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared ||
                a.kind != AccessKind::Read || a.guard < 0)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].guard = -1; // lost bounds predicate
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, engine);
            // The unguarded range also reads past the extent, so the
            // verifier counts more sectors than the model prices.
            EXPECT_EQ(codes, (std::vector<std::string>{"AS701", "AS751"}))
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, MisalignedArenaOffsetIsAS702)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space != AccessSpace::Shared)
                continue;
            KernelPlan mutated = seed;
            // Slide the slot past the end of the arena.
            mutated.accesses[i].index.offset += a.extent;
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS702"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, NegativeIndexIsAS703)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            // A guarded read: the guard keeps the top in range while the
            // shifted base dips below zero.
            if (a.space == AccessSpace::Shared ||
                a.kind != AccessKind::Read || a.guard < 0 ||
                a.index.offset != 0)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].index.offset = -1;
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS703"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, ShrunkenTaskLoopIsAS704)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared ||
                a.kind != AccessKind::Write)
                continue;
            if (a.index.num_blocks * a.index.num_tasks <= 1)
                continue;
            // Collapse the block/task dimensions: only the first block's
            // first task's slice gets written.
            AffineIndex shrunk = a.index;
            shrunk.num_blocks = 1;
            shrunk.num_tasks = 1;
            if (shrunk.maxIndex() >= a.extent - 1)
                continue; // would still cover the buffer
            KernelPlan mutated = seed;
            mutated.accesses[i].index = shrunk;
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, engine);
            // The shrunken writer also writes fewer sectors than the
            // model prices for the whole buffer.
            EXPECT_EQ(codes, (std::vector<std::string>{"AS704", "AS751"}))
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, UnorderedOverlappingWritesAreAS711)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            // Output buffers are written once and never read in-kernel,
            // so a forged second writer races with exactly one partner.
            if (a.space != AccessSpace::Global ||
                a.kind != AccessKind::Write)
                continue;
            for (std::size_t q = 0; q < seed.ops.size(); ++q) {
                const int other = static_cast<int>(q);
                if (other == a.op_index ||
                    orderedByDeviceBarrier(seed, a.op_index, other))
                    continue;
                KernelPlan mutated = seed;
                OpAccess forged = a;
                forged.op_index = other;
                forged.index.offset += 1; // different mapping, overlaps
                mutated.accesses.push_back(forged);
                DiagnosticEngine engine;
                const auto codes = verify(graph, mutated, engine);
                // The forged writer's traffic is also missing from the
                // model's pricing of the plan.
                EXPECT_EQ(codes,
                          (std::vector<std::string>{"AS711", "AS751"}))
                    << engine.renderText();
                return true;
            }
        }
        return false;
    });
}

TEST(KernelVerifier, RemovedBarrierIsAS712)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (const OpAccess &w : seed.accesses) {
            if (w.kind != AccessKind::Write ||
                (w.space != AccessSpace::Shared &&
                 w.space != AccessSpace::Scratch))
                continue;
            for (const OpAccess &r : seed.accesses) {
                if (r.kind != AccessKind::Read ||
                    r.op_index == w.op_index ||
                    !rangesOverlap(w, r))
                    continue;
                // Remove every barrier ordering the pair.
                const int lo = std::min(w.op_index, r.op_index);
                const int hi = std::max(w.op_index, r.op_index);
                KernelPlan mutated = seed;
                const auto removed = std::remove_if(
                    mutated.barriers.begin(), mutated.barriers.end(),
                    [&](const BarrierPoint &b) {
                        return b.after_op >= lo && b.after_op < hi;
                    });
                if (removed == mutated.barriers.end())
                    continue; // pair was never barrier-ordered
                mutated.barriers.erase(removed, mutated.barriers.end());
                DiagnosticEngine engine;
                const auto codes = verify(graph, mutated, engine);
                EXPECT_FALSE(codes.empty());
                for (const std::string &code : codes)
                    EXPECT_EQ(code, "AS712") << engine.renderText();
                return true;
            }
        }
        return false;
    });
}

TEST(KernelVerifier, CorruptedStrideIsAS721)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.space == AccessSpace::Shared || !a.counts_traffic)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].warp_stride = 32; // fully scattered warp
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS721"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, StridedArenaAccessIsAS731)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            if (seed.accesses[i].space != AccessSpace::Shared)
                continue;
            KernelPlan mutated = seed;
            mutated.accesses[i].warp_stride = 32; // all lanes on bank 0
            DiagnosticEngine engine;
            const auto codes = verify(graph, mutated, engine);
            EXPECT_EQ(codes, std::vector<std::string>{"AS731"})
                << engine.renderText();
            return true;
        }
        return false;
    });
}

TEST(KernelVerifier, RecomputeBlowupIsAS741)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        if (seed.ops.empty())
            return false;
        KernelPlan mutated = seed;
        mutated.ops[0].recompute_factor = 64.0; // Fig. 5 style inlining
        DiagnosticEngine engine;
        const auto codes = verify(graph, mutated, engine);
        EXPECT_EQ(codes, std::vector<std::string>{"AS741"})
            << engine.renderText();
        return true;
    });
}

TEST(KernelVerifier, CorruptedLoadFactorIsAS751)
{
    forFirstMatchingKernel([](const Graph &graph, const KernelPlan &seed) {
        std::size_t best = seed.accesses.size();
        double best_txn = 0.0;
        for (std::size_t i = 0; i < seed.accesses.size(); ++i) {
            const OpAccess &a = seed.accesses[i];
            if (a.kind != AccessKind::Read)
                continue;
            const double txn = accessTransactions(a);
            if (txn > best_txn) {
                best = i;
                best_txn = txn;
            }
        }
        if (best == seed.accesses.size() || best_txn < 1000.0)
            return false; // too small to clear the tolerance floor
        KernelPlan mutated = seed;
        mutated.accesses[best].repeat *= 8.0;
        DiagnosticEngine engine;
        const auto codes = verify(graph, mutated, engine);
        EXPECT_EQ(codes, std::vector<std::string>{"AS751"})
            << engine.renderText();
        return true;
    });
}

// ---------------------------------------------------------------------
// Cost-model cross-check on the paper's Fig. 5 / Fig. 7 graphs.
// ---------------------------------------------------------------------

Graph
buildFig5Graph(std::int64_t rows, std::int64_t cols)
{
    Graph graph("fig5");
    GraphBuilder b(graph);
    NodeId vec = b.parameter({rows, 1}, "vec");
    NodeId wide = b.parameter({rows, cols}, "wide");
    NodeId pw = b.power(vec, 2.0);
    NodeId out = b.add(b.broadcastTo(pw, {rows, cols}), wide);
    graph.markOutput(out);
    return graph;
}

Graph
buildFig7Graph()
{
    Graph graph("fig7");
    GraphBuilder b(graph);
    const Shape wide{64, 128};
    NodeId p1 = b.parameter(wide, "param1");
    NodeId p2 = b.parameter({64, 1}, "param2");
    NodeId add1 = b.add(p1, p1);
    NodeId r1 = b.reduceSum(add1, {1});
    NodeId d1 = b.div(add1, b.broadcastTo(b.reshape(r1, {64, 1}), wide));
    NodeId pw = b.power(p2, 2.0);
    NodeId add2 = b.add(d1, b.broadcastTo(pw, wide));
    NodeId r2 = b.reduceSum(add2, {1});
    NodeId m1 = b.mul(r2, b.reshape(pw, {64}));
    graph.markOutput(m1);
    return graph;
}

void
expectTransactionAgreement(const Graph &graph)
{
    Session session(graph, std::make_unique<AStitchBackend>(),
                    SessionOptions{});
    session.compile();
    EXPECT_TRUE(session.diagnostics().empty())
        << session.diagnostics().renderText();
    const CostModel model(kV100);
    bool any = false;
    for (const CompiledCluster &compiled : session.compiled()) {
        for (const KernelPlan &plan : compiled.kernels) {
            if (plan.accesses.empty())
                continue;
            any = true;
            const TransactionEstimate est = staticTransactionCounts(plan);
            const KernelRecord record = model.priceKernel(
                workDescFor(session.activeGraph(), plan));
            const auto close = [](double verifier, double priced) {
                const double allowed = std::max(0.05 * priced, 16.0);
                EXPECT_NEAR(verifier, priced, allowed);
            };
            close(est.read_transactions,
                  static_cast<double>(record.dram_read_transactions));
            close(est.write_transactions,
                  static_cast<double>(record.dram_write_transactions));
        }
    }
    EXPECT_TRUE(any) << "no stitched kernel to cross-check";
}

TEST(KernelVerifier, TransactionCountsMatchCostModelOnFig5)
{
    expectTransactionAgreement(buildFig5Graph(512, 128));
}

TEST(KernelVerifier, TransactionCountsMatchCostModelOnFig7)
{
    expectTransactionAgreement(buildFig7Graph());
}

} // namespace
} // namespace astitch

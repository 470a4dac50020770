/**
 * @file
 * Tests of the shape-parametric verifier (AS8xx): the symbolic domain
 * arithmetic (LinExpr / ShapeDim / ShapeCertificate), diagnostic
 * family parsing and deduplicated merges, and seeded mutations of
 * synthetic kernel plans that must each fire exactly their AS8xx code.
 *
 * The mutation plans are built by hand (verifyKernelPlanSymbolic is
 * deliberately Graph-free) so each test controls exactly one proof
 * obligation; the differential test covers the compiled-plan path.
 */
#include <gtest/gtest.h>

#include <vector>

#include "analysis/kernel_verifier.h"
#include "support/logging.h"

namespace astitch {
namespace {

// ---------------------------------------------------------------------
// Symbolic domain arithmetic.
// ---------------------------------------------------------------------

std::vector<ShapeDim>
oneDim(std::int64_t value = 128, std::int64_t lo = 65,
       std::int64_t hi = 128, std::int64_t divisor = 1)
{
    ShapeDim d;
    d.name = "batch";
    d.value = value;
    d.lo = lo;
    d.hi = hi;
    d.divisor = divisor;
    return {d};
}

TEST(LinExpr, EvaluatesAndBoundsLinearTerms)
{
    const std::vector<ShapeDim> dims = oneDim();
    const LinExpr e = LinExpr::dim(0, 64, 128); // 64*batch + 128
    EXPECT_FALSE(e.isConstant());
    EXPECT_EQ(e.evalAt({100}), 6528);
    EXPECT_EQ(e.atCompilePoint(dims), 64 * 128 + 128);
    const SymInterval iv = e.interval(dims);
    EXPECT_EQ(iv.lo, 64 * 65 + 128);
    EXPECT_EQ(iv.hi, 64 * 128 + 128);
    EXPECT_EQ(e.toString(dims), "64*batch + 128");
}

TEST(LinExpr, NegativeCoefficientsSwapIntervalEnds)
{
    const std::vector<ShapeDim> dims = oneDim();
    const LinExpr e = LinExpr::dim(0, -2, 1000); // 1000 - 2*batch
    const SymInterval iv = e.interval(dims);
    EXPECT_EQ(iv.lo, 1000 - 2 * 128);
    EXPECT_EQ(iv.hi, 1000 - 2 * 65);
}

TEST(LinExpr, DivisibilityIsTheGcdOfTermGranularities)
{
    const std::vector<ShapeDim> dims = oneDim(128, 65, 128,
                                              /*divisor=*/8);
    // 48*batch with batch % 8 == 0: every value divisible by 384.
    EXPECT_EQ(LinExpr::dim(0, 48).divisibility(dims), 384);
    // Adding a constant coarsens it to gcd(384, 128) = 128.
    EXPECT_EQ(LinExpr::dim(0, 48, 128).divisibility(dims), 128);
}

TEST(ShapeDim, AdmitsRangeAndGranularity)
{
    const ShapeDim d = oneDim(128, 65, 128, 4).front();
    EXPECT_TRUE(d.admits(68));
    EXPECT_TRUE(d.admits(128));
    EXPECT_FALSE(d.admits(66));  // not a multiple of 4
    EXPECT_FALSE(d.admits(64));  // below lo
    EXPECT_FALSE(d.admits(132)); // above hi
    EXPECT_FALSE(d.point());
    EXPECT_TRUE(oneDim(7, 7, 7).front().point());
}

TEST(ShapeCertificate, CoversOnlyProvenAdmissibleShapes)
{
    ShapeCertificate cert;
    cert.dims = oneDim();
    EXPECT_FALSE(cert.covers({100})); // verdict None
    cert.verdict = ShapeCertificate::Verdict::Proven;
    EXPECT_TRUE(cert.covers({100}));
    EXPECT_TRUE(cert.covers({65}));
    EXPECT_TRUE(cert.covers({128}));
    EXPECT_FALSE(cert.covers({64}));
    EXPECT_FALSE(cert.covers({100, 2})); // arity mismatch
    cert.verdict = ShapeCertificate::Verdict::Fallback;
    EXPECT_FALSE(cert.covers({100}));
}

// ---------------------------------------------------------------------
// Diagnostic family parsing and deduplicated merges.
// ---------------------------------------------------------------------

TEST(DiagnosticFamilies, ParsesListsAndRanges)
{
    EXPECT_EQ(parseFamilyList("AS7xx,AS8xx"),
              (std::vector<std::string>{"AS7", "AS8"}));
    EXPECT_EQ(parseFamilyList("AS1-AS3"),
              (std::vector<std::string>{"AS1", "AS2", "AS3"}));
    EXPECT_EQ(parseFamilyList(" AS2xx , AS0xx-AS1xx , AS2 "),
              (std::vector<std::string>{"AS2", "AS0", "AS1"}));
    EXPECT_THROW(parseFamilyList(""), FatalError);
    EXPECT_THROW(parseFamilyList("AS7,,AS8"), FatalError);
    EXPECT_THROW(parseFamilyList("XS7xx"), FatalError);
    EXPECT_THROW(parseFamilyList("AS5-AS1"), FatalError);
}

TEST(DiagnosticFamilies, WithFamiliesKeepsOnlyListedCodes)
{
    DiagnosticEngine engine;
    engine.report("AS701", "k", "a");
    engine.report("AS831", "k", "b");
    engine.report("AS101", "k", "c");
    const DiagnosticEngine filtered =
        engine.withFamilies(parseFamilyList("AS7xx,AS8xx"));
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_EQ(filtered.diagnostics()[0].code, "AS701");
    EXPECT_EQ(filtered.diagnostics()[1].code, "AS831");
}

TEST(DiagnosticFamilies, MergeDedupedFoldsIdenticalFindings)
{
    DiagnosticEngine a;
    a.report("AS831", "kernel_0", "proof did not close");

    DiagnosticEngine b;
    b.report("AS831", "kernel_0", "proof did not close"); // identical
    b.report("AS831", "kernel_1", "other kernel");        // distinct

    DiagnosticEngine merged;
    merged.mergeDeduped(a, "bucket 64");
    merged.mergeDeduped(b, "bucket 128");
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged.diagnostics()[0].provenance,
              (std::vector<std::string>{"bucket 64", "bucket 128"}));
    EXPECT_EQ(merged.diagnostics()[1].provenance,
              (std::vector<std::string>{"bucket 128"}));
    // The rendered line surfaces the provenance.
    EXPECT_NE(merged.diagnostics()[0].toString().find(
                  "seen in: bucket 64, bucket 128"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Seeded mutations: one synthetic plan per AS8xx code, each firing
// exactly once.
// ---------------------------------------------------------------------

/** A canonical off-chip write of 64*batch elements that proves clean:
 * mutations below each break exactly one obligation. */
KernelPlan
provenPlan()
{
    KernelPlan plan;
    plan.name = "synthetic";
    plan.launch = LaunchDims{8, 256};

    OpAccess a;
    a.node = 0;
    a.op_index = 0;
    a.kind = AccessKind::Write;
    a.space = AccessSpace::Global;
    a.buffer = "out:%0";
    a.extent = 64 * 128;
    a.index = linearEnumeration(a.extent, 8, 1, 256);
    a.guard = a.extent;
    plan.accesses.push_back(a);

    SymbolicAccess twin;
    twin.access_index = 0;
    twin.extent = LinExpr::dim(0, 64);
    twin.offset = LinExpr::constant(0);
    twin.value_extent = LinExpr::dim(0, 64);
    plan.sym_accesses.push_back(twin);
    return plan;
}

std::vector<std::string>
certify(const KernelPlan &plan, ShapeCertificate *cert_out)
{
    DiagnosticEngine engine;
    const ShapeCertificate cert =
        verifyKernelPlanSymbolic(plan, oneDim(), engine);
    if (cert_out)
        *cert_out = cert;
    std::vector<std::string> codes;
    for (const Diagnostic &d : engine.diagnostics())
        codes.push_back(d.code);
    return codes;
}

TEST(SymbolicMutation, UnmutatedPlanProves)
{
    ShapeCertificate cert;
    EXPECT_TRUE(certify(provenPlan(), &cert).empty());
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Proven);
    EXPECT_GT(cert.obligations_proven, 0);
    EXPECT_EQ(cert.obligations_fallback, 0);
    EXPECT_TRUE(cert.covers({100}));
}

TEST(SymbolicMutation, ScratchOutgrowingItsAllocationFiresAS801)
{
    KernelPlan plan = provenPlan();
    OpAccess &a = plan.accesses[0];
    a.kind = AccessKind::Read; // keep AS804 out of the picture
    a.space = AccessSpace::Scratch;
    a.buffer = "scratch:%0";
    a.extent = 64 * 100; // capacity fixed below the range's top
    a.index = linearEnumeration(a.extent, 8, 1, 256);
    a.guard = a.extent;

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS801"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
    EXPECT_FALSE(cert.covers({128}));
}

TEST(SymbolicMutation, ArenaSlotPastTheArenaEndFiresAS802)
{
    KernelPlan plan = provenPlan();
    OpAccess &a = plan.accesses[0];
    a.kind = AccessKind::Read; // writes would also stage (AS821)
    a.space = AccessSpace::Shared;
    a.buffer = "smem";
    a.extent = 1024; // the whole arena
    a.index = AffineIndex{};
    a.index.num_threads = 1024;
    a.guard = -1;

    SymbolicAccess &twin = plan.sym_accesses[0];
    twin.extent = LinExpr::constant(1024);
    twin.offset = LinExpr::dim(0, 1); // slot offset tracks the shape
    twin.value_extent = LinExpr::constant(256);

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS802"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, ShrinkingOffsetGoesNegativeFiresAS803)
{
    KernelPlan plan = provenPlan();
    plan.accesses[0].kind = AccessKind::Read;
    // offset = 100 - batch: negative from batch 101 onward.
    plan.sym_accesses[0].offset = LinExpr::dim(0, -1, 100);

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS803"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, WriterMissingTheBufferHeadFiresAS804)
{
    KernelPlan plan = provenPlan();
    plan.sym_accesses[0].offset = LinExpr::constant(8);

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS804"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, ExtentOutgrowingTheRawSpanFiresAS804)
{
    KernelPlan plan = provenPlan();
    // The claim doubles while the enumeration's raw span stays fixed:
    // above batch 64 the writer cannot reach the tail.
    plan.sym_accesses[0].extent = LinExpr::dim(0, 128);

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS804"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, DivergingSharedMappingFiresAS811)
{
    KernelPlan plan = provenPlan();
    plan.accesses.push_back(plan.accesses[0]);
    plan.accesses[1].op_index = 1; // same mapping, different op

    SymbolicAccess twin_b = plan.sym_accesses[0];
    twin_b.access_index = 1;
    // Agrees at the compile shape (64*128 == 8192) but diverges
    // everywhere else in the range.
    twin_b.extent = LinExpr::constant(64 * 128);
    twin_b.value_extent = twin_b.extent;
    plan.sym_accesses.push_back(twin_b);

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS811"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, ArenaSpansCollidingOffCompileFiresAS812)
{
    KernelPlan plan;
    plan.name = "synthetic";
    plan.launch = LaunchDims{1, 64};

    const auto arena_access = [](int op, AccessKind kind) {
        OpAccess a;
        a.node = op;
        a.op_index = op;
        a.kind = kind;
        a.space = AccessSpace::Shared;
        a.buffer = "smem";
        a.extent = 1024;
        a.index = AffineIndex{};
        a.index.num_threads = 64;
        return a;
    };
    plan.accesses.push_back(arena_access(0, AccessKind::Write));
    plan.accesses.push_back(arena_access(1, AccessKind::Read));
    plan.accesses[1].index.offset = 64; // disjoint at the compile shape

    SymbolicAccess wa;
    wa.access_index = 0;
    wa.extent = LinExpr::constant(1024);
    wa.offset = LinExpr::constant(0);
    wa.value_extent = LinExpr::constant(64);
    SymbolicAccess rb = wa;
    rb.access_index = 1;
    // Read slot slides down as the shape shrinks: batch - 64 is 64 at
    // the compile shape (disjoint) but 1 at batch 65 (overlapping).
    rb.offset = LinExpr::dim(0, 1, -64);
    plan.sym_accesses = {wa, rb};

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS812"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, StagedValueOutgrowingItsSlotFiresAS821)
{
    KernelPlan plan = provenPlan();
    OpAccess &a = plan.accesses[0];
    a.space = AccessSpace::Shared; // a staging write into the arena
    a.buffer = "smem";
    a.extent = 1024;
    a.index = AffineIndex{};
    a.index.num_threads = 64; // the slot width
    a.guard = -1;

    SymbolicAccess &twin = plan.sym_accesses[0];
    twin.extent = LinExpr::constant(1024);
    twin.offset = LinExpr::constant(0);
    // 8*batch elements staged across grid 8: fits only up to batch 64.
    twin.value_extent = LinExpr::dim(0, 8);

    ShapeCertificate cert;
    EXPECT_EQ(certify(plan, &cert), (std::vector<std::string>{"AS821"}));
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Refuted);
}

TEST(SymbolicMutation, MissingSymbolicFormFallsBackWithAS831)
{
    KernelPlan plan = provenPlan();
    plan.sym_accesses.clear(); // nothing to reason with

    ShapeCertificate cert;
    DiagnosticEngine engine;
    const ShapeCertificate result =
        verifyKernelPlanSymbolic(plan, oneDim(), engine);
    cert = result;
    ASSERT_EQ(engine.size(), 1u);
    EXPECT_EQ(engine.diagnostics()[0].code, "AS831");
    // The escape hatch is a note, never an alarm.
    EXPECT_EQ(engine.diagnostics()[0].severity, Severity::Note);
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Fallback);
    EXPECT_GT(cert.obligations_fallback, 0);
    EXPECT_FALSE(cert.covers({100}));
}

TEST(SymbolicMutation, EmptyDeclaredRangeIsVacuouslyProven)
{
    // lo..hi admits no multiple of the granularity: nothing to refute.
    ShapeDim d = oneDim().front();
    d.lo = 65;
    d.hi = 70;
    d.divisor = 128;
    DiagnosticEngine engine;
    const ShapeCertificate cert =
        verifyKernelPlanSymbolic(provenPlan(), {d}, engine);
    EXPECT_TRUE(engine.empty());
    EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Proven);
    EXPECT_FALSE(cert.covers({70})); // but it admits no actual shape
}

} // namespace
} // namespace astitch

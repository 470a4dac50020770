/**
 * @file
 * Static analyzer over emitted CUDA kernel source (AS9xx).
 *
 * Every other verification layer — the plan-consistency checks (AS0xx),
 * the SIMT hazard sanitizer (AS1xx-AS5xx), the kernel-access verifier
 * (AS7xx) and the shape-parametric prover (AS8xx) — analyzes metadata
 * that stitch codegen *self-reports*. An emitter bug that drops a
 * __syncthreads() or mis-places a regional buffer is invisible to all
 * of them. This pass closes that last self-trust loop with a
 * translation-validation posture: it lexes and parses the CUDA text the
 * emitter actually rendered (KernelPlan::cuda_source) into one
 * statement tree per function, and with walks over those trees
 *
 *   1. runs a thread-divergence dataflow over the structured control
 *      flow proving no __syncthreads() or inter-block grid_barrier is
 *      reachable under divergent control (AS901) or sits in provably
 *      dead code (AS902). The divergence lattice is
 *      Uniform < BlockVarying < ThreadVarying: a block barrier is legal
 *      up to BlockVarying context (all threads of a block share the
 *      branch), a device barrier only under Uniform context. Canonical
 *      packing loops (`for (v = blockIdx.x; v < N; v += gridDim.x)`)
 *      contribute Uniform when their trip count is provably uniform at
 *      the required scope (N divisible by the step under the plan's
 *      launch dims) and the varying level otherwise;
 *
 *   2. independently re-derives the barrier sequence, the __shared__
 *      arena size and slot layout, the __launch_bounds__ annotation and
 *      the per-buffer read/write sets from the text, and cross-checks
 *      each against the KernelPlan (AS911 barrier-schedule mismatch,
 *      AS912 arena mismatch, AS913 launch-bounds mismatch, AS914
 *      access-set mismatch vs the AS7xx summaries);
 *
 *   3. lints emitted idioms: grid-barrier flag parameters must be
 *      volatile (AS921), a shared-memory write must be followed by a
 *      block barrier on every path to kernel exit (AS922, one backward
 *      walk of the kernel's tree: a loop may run zero times and an if
 *      without else may skip its branch), and every vertical-packing
 *      task loop bound must cover its group's logical task extent or
 *      be a legal grid-uniform padding of it (AS923).
 *
 * The analysis deliberately ignores comments and preprocessor lines
 * (the lexer strips them), so the emitter's own annotations cannot
 * influence the verdict. Calls to `blockReduce` are treated as known
 * block-barrier-containing helpers; identifiers ending in `_partial`
 * are the atomic-finalize staging buffers the plan prices as
 * atomic_operations rather than modeling as buffers, and are exempt
 * from the access-set cross-check.
 */
#ifndef ASTITCH_ANALYSIS_CUDA_STATIC_H
#define ASTITCH_ANALYSIS_CUDA_STATIC_H

#include <cstdint>
#include <string>

#include "analysis/diagnostics.h"
#include "compiler/kernel_plan.h"
#include "graph/graph.h"
#include "sim/gpu_spec.h"

namespace astitch {

/**
 * Analyze @p source as the emitted text of @p plan, reporting findings
 * into @p engine. @p graph supplies the node-name mapping the emitter
 * used for buffer identifiers; @p spec is the compile target. Returns
 * true when no Error-severity findings were added. The source is taken
 * explicitly (rather than from plan.cuda_source) so tests and the
 * artifact-cache gate can check tampered text against the original
 * plan.
 */
bool analyzeEmittedCudaSource(const Graph &graph, const std::string &source,
                              const KernelPlan &plan, const GpuSpec &spec,
                              DiagnosticEngine &engine);

/**
 * Convenience overload over plan.cuda_source. Plans with no emitted
 * source (loop fusion, comparator backends) are vacuously clean.
 */
bool analyzeEmittedCuda(const Graph &graph, const KernelPlan &plan,
                        const GpuSpec &spec, DiagnosticEngine &engine);

/**
 * Cheap structural survey of one emitted source, for reporting (the
 * CLI's `analyze --emitted` listing): what the parser saw, with no
 * plan cross-checking. The kernel counts are the facts the analyzer's
 * cross-checks read (AS911 barriers, AS912 arena, AS923 task loops).
 */
struct EmittedSourceSurvey
{
    bool parsed = false;           ///< the parser accepted the text
    int functions = 0;             ///< function definitions found
    int sync_statements = 0;       ///< __syncthreads() stmts in the kernel
    int grid_barrier_calls = 0;    ///< grid_barrier() stmts in the kernel
    int task_loops = 0;            ///< canonical vertical-packing loops
    std::int64_t arena_words = -1; ///< declared __shared__ words, -1 none
    std::int64_t launch_bounds_block = -1; ///< first __launch_bounds__ arg
};

/** Survey @p source (never fails; unparsable text yields parsed=false). */
EmittedSourceSurvey surveyEmittedCuda(const std::string &source);

} // namespace astitch

#endif // ASTITCH_ANALYSIS_CUDA_STATIC_H

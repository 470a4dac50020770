/**
 * @file
 * Unified entry point of the kernel-plan analysis subsystem.
 *
 * One call dispatches every check family over a compiled cluster: the
 * AS0xx structural consistency checks (the original plan validator),
 * the AS1xx..AS5xx SIMT hazard sanitizer, the AS7xx kernel-access
 * verifier over the emitted access summaries, and the AS9xx static
 * analyzer over the emitted CUDA text itself. Session runs it once per
 * compiled cluster; the artifact cache's load gate and the autotuner's
 * candidate gate run the same family set. Individual check families
 * remain callable directly from plan_consistency.h, sanitizer.h,
 * kernel_verifier.h and cuda_static.h.
 */
#ifndef ASTITCH_ANALYSIS_ANALYZER_H
#define ASTITCH_ANALYSIS_ANALYZER_H

#include "analysis/access_model.h"
#include "analysis/diagnostics.h"
#include "compiler/clustering.h"
#include "compiler/kernel_plan.h"
#include "sim/gpu_spec.h"

namespace astitch {

/**
 * Analyze one compiled cluster with every check family, reporting
 * findings into @p engine. Returns true when no Error-severity findings
 * were added (warnings and notes do not fail the analysis).
 */
bool analyzeCompiledCluster(const Graph &graph, const Cluster &cluster,
                            const CompiledCluster &compiled,
                            const GpuSpec &spec, DiagnosticEngine &engine);

/**
 * Mutable-cluster overload: runs the same check families and, when
 * @p shape_params (declared dynamic-dimension ranges) is non-empty,
 * additionally certifies every kernel plan for those ranges (AS8xx,
 * writing the resulting ShapeCertificates into @p compiled). AS831
 * fallback notes do not fail the analysis; parametric refutations
 * (Error severity) do.
 */
bool analyzeCompiledCluster(const Graph &graph, const Cluster &cluster,
                            CompiledCluster &compiled, const GpuSpec &spec,
                            DiagnosticEngine &engine,
                            const std::vector<ShapeDim> &shape_params = {});

} // namespace astitch

#endif // ASTITCH_ANALYSIS_ANALYZER_H

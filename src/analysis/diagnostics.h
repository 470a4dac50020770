/**
 * @file
 * The diagnostics engine behind the stitch sanitizer.
 *
 * Every static check over compiled kernel plans — the legacy plan
 * validator (AS0xx) and the SIMT hazard sanitizer (AS1xx-AS5xx) — emits
 * findings through this one engine so the compile pipeline, the CLI,
 * tests and CI all consume a single format. Each finding carries a
 * stable diagnostic code registered in the code table below, a severity,
 * the kernel it was found in and a human-readable message; the engine
 * renders the collection as text, JSON or SARIF 2.1.0.
 *
 * Code families:
 *   AS0xx  plan consistency (coverage/availability/resources — the
 *          checks the original plan_validator performed);
 *   AS1xx  barrier-placement races on shared-memory stitch edges;
 *   AS2xx  global-barrier deadlock / missing device synchronization;
 *   AS3xx  block-locality violations on Regional stitch edges;
 *   AS4xx  shared-arena buffer-lifetime overlaps;
 *   AS5xx  barrier divergence lints (packed-task-loop trip counts);
 *   AS6xx  fault-tolerant compilation (fallback-ladder demotions,
 *          transient retries, session-level recovery events);
 *   AS7xx  kernel-access verification (symbolic bounds/race/coalescing
 *          checks over the emitted access summaries and the cost-model
 *          transaction cross-check);
 *   AS8xx  shape-parametric verification (bounds/races/arena proofs
 *          over declared dimension ranges, plus the AS831 fallback
 *          note when a parametric proof does not close);
 *   AS9xx  emitted-source static analysis (divergence and barrier-path
 *          walks over the parsed statement tree of the rendered CUDA
 *          text, independent re-derivation of
 *          barriers/arena/launch-bounds/access sets cross-checked
 *          against the plan, and emitted-idiom lints).
 */
#ifndef ASTITCH_ANALYSIS_DIAGNOSTICS_H
#define ASTITCH_ANALYSIS_DIAGNOSTICS_H

#include <string>
#include <vector>

#include "graph/node.h"
#include "support/logging.h"

namespace astitch {

/** How bad a finding is. */
enum class Severity {
    Note,    ///< informational context, never actionable alone
    Warning, ///< suspicious but not provably incorrect (lints)
    Error,   ///< the plan is wrong; executing it would misbehave
};

/** Printable name ("note" / "warning" / "error"). */
std::string severityName(Severity severity);

/** One registered diagnostic code. */
struct DiagnosticCode
{
    const char *code;       ///< stable identifier, e.g. "AS101"
    Severity severity;      ///< default severity of the family member
    const char *title;      ///< short kebab-case rule name (SARIF ruleId)
    const char *description; ///< one-line explanation of the hazard
};

/** The full code registry (sorted by code). */
const std::vector<DiagnosticCode> &diagnosticCodes();

/** Look up a code; nullptr when unregistered. */
const DiagnosticCode *findDiagnosticCode(const std::string &code);

/**
 * Canonical family of a diagnostic code: "AS712", "as712" and "AS7"
 * all map to "AS7". Returns "" for strings that do not start with the
 * AS prefix and a digit. Prefer this over raw string-prefix matching,
 * which is case- and width-fragile for three-digit families (the
 * prefix "AS7" accidentally matches nothing when codes are lowercase,
 * and "AS71" silently selects a sub-range).
 */
std::string familyOf(const std::string &code);

/**
 * Parse a family filter expression into canonical families: a
 * comma-separated list of family names or inclusive family ranges —
 * "AS7", "AS7xx,AS8xx", "AS1-AS5", "AS1xx-AS5xx" all work. Throws
 * FatalError on anything unparseable (empty items, non-AS tokens,
 * inverted ranges), so the CLI surfaces bad filters as usage errors.
 */
std::vector<std::string> parseFamilyList(const std::string &expression);

/** One finding. */
struct Diagnostic
{
    std::string code;    ///< registry code ("AS101", ...)
    Severity severity = Severity::Error;
    std::string kernel;  ///< kernel name, or "<cluster>" for cluster scope
    std::string message; ///< human-readable description
    NodeId node = kInvalidNodeId; ///< primary node involved, if any

    /**
     * Origins of a deduplicated finding: when identical findings from
     * several sources (shape buckets) merge into one record, each
     * source's label is kept here. Empty for ordinary findings.
     */
    std::vector<std::string> provenance;

    /** "[AS101] kernel_name: message" */
    std::string toString() const;
};

/**
 * Collects findings from every check family and renders them. The
 * engine validates codes against the registry on report (unregistered
 * codes are an internal error — checks must register before emitting).
 */
class DiagnosticEngine
{
  public:
    /** Report with the code's registered default severity. */
    void report(const std::string &code, const std::string &kernel,
                const std::string &message, NodeId node = kInvalidNodeId);

    /** Report with an explicit severity override. */
    void report(const std::string &code, Severity severity,
                const std::string &kernel, const std::string &message,
                NodeId node = kInvalidNodeId);

    /**
     * Absorb one fully-formed finding, provenance included — the
     * deserialization path of the artifact cache, which must round-trip
     * findings exactly as the original compile reported them. The code
     * is validated against the registry like report().
     */
    void add(Diagnostic diagnostic);

    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    bool empty() const { return diags_.empty(); }
    std::size_t size() const { return diags_.size(); }
    int count(Severity severity) const;
    bool hasErrors() const { return count(Severity::Error) > 0; }

    /**
     * Engine holding only the findings of @p family, matched through
     * familyOf() — "AS7", "as7" and "AS712" all select the whole AS7xx
     * family. An unparseable @p family selects nothing.
     */
    DiagnosticEngine withFamily(const std::string &family) const;

    /**
     * Engine holding the findings of any of @p families (canonical
     * family names as produced by parseFamilyList / familyOf). Order
     * of the surviving findings is preserved.
     */
    DiagnosticEngine
    withFamilies(const std::vector<std::string> &families) const;

    /** Absorb another engine's findings (bucketed sessions, clusters). */
    void merge(const DiagnosticEngine &other);

    /**
     * Absorb another engine's findings, folding any finding identical
     * to an already-held one (same code, kernel, message and node)
     * into the existing record instead of duplicating it. @p origin
     * labels where the incoming findings came from (e.g. a bucket
     * signature) and is appended to the merged record's provenance —
     * on both the existing record and fresh inserts.
     */
    void mergeDeduped(const DiagnosticEngine &other,
                      const std::string &origin);

    void clear() { diags_.clear(); }

    /** One line per finding, sorted most-severe first. */
    std::string renderText() const;

    /** Machine-readable export: {"diagnostics":[...],"summary":{...}}. */
    std::string renderJson() const;

    /** SARIF 2.1.0 static-analysis interchange format. */
    std::string renderSarif() const;

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace astitch

#endif // ASTITCH_ANALYSIS_DIAGNOSTICS_H

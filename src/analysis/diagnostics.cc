#include "analysis/diagnostics.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

std::string
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    panic("unknown severity");
}

const std::vector<DiagnosticCode> &
diagnosticCodes()
{
    // clang-format off
    static const std::vector<DiagnosticCode> codes = {
        // -- AS0xx: plan consistency (the legacy plan_validator checks) --
        {"AS001", Severity::Error, "unscheduled-cluster-node",
         "a cluster node is not scheduled by any kernel"},
        {"AS002", Severity::Error, "operand-not-available",
         "an op reads a value before it is available in its kernel"},
        {"AS003", Severity::Error, "input-not-materialized",
         "a kernel input was never written to framework memory"},
        {"AS004", Severity::Error, "output-never-written",
         "a declared output is never materialized"},
        {"AS005", Severity::Error, "illegal-launch-dims",
         "block or grid dimensions are outside device limits"},
        {"AS006", Severity::Error, "register-over-limit",
         "the per-thread register bound exceeds the device limit"},
        {"AS007", Severity::Error, "smem-over-limit",
         "static shared memory exceeds the per-block device limit"},
        {"AS008", Severity::Error, "global-barrier-over-wave",
         "a global-barrier kernel launches more blocks than one wave"},
        {"AS009", Severity::Error, "sub-unit-factor",
         "a load or recompute factor is below one"},

        // -- AS1xx: barrier-placement races --
        {"AS101", Severity::Error, "shared-race-missing-barrier",
         "a shared-memory producer and its consumer are not separated "
         "by a barrier in schedule order"},
        {"AS102", Severity::Error, "shared-slot-war-hazard",
         "a reused shared-arena slot is overwritten before a barrier "
         "separates it from the previous value's last reader"},

        // -- AS2xx: global-barrier deadlock --
        {"AS201", Severity::Error, "global-barrier-deadlock",
         "a device-wide barrier kernel launches more blocks than can be "
         "co-resident, so the barrier can never be reached by all"},
        {"AS202", Severity::Error, "missing-device-barrier",
         "a global-memory stitch edge has in-kernel consumers but no "
         "device-wide barrier synchronizes them"},
        {"AS203", Severity::Error, "unlaunchable-device-barrier",
         "a device-barrier kernel's configuration cannot launch at all"},

        // -- AS3xx: block-locality violations --
        {"AS301", Severity::Error, "cross-block-shared-read",
         "a consumer of a shared-memory value is partitioned differently "
         "from its producer and would read another block's elements"},

        // -- AS4xx: buffer-lifetime overlaps --
        {"AS401", Severity::Error, "shared-slot-overlap",
         "two simultaneously-live values are assigned overlapping "
         "shared-arena byte ranges"},
        {"AS402", Severity::Error, "shared-slot-out-of-bounds",
         "a shared-arena slot extends past the kernel's declared "
         "shared-memory size"},

        // -- AS5xx: barrier-divergence lints --
        {"AS501", Severity::Warning, "barrier-trip-divergence",
         "a barrier's trip count diverges from the packed task loop it "
         "is scheduled in"},

        // -- AS6xx: fault-tolerant compilation (degradation events) --
        {"AS601", Severity::Warning, "cluster-demoted",
         "a cluster's compilation failed and was recompiled one level "
         "down the fallback ladder"},
        {"AS602", Severity::Note, "transient-fault-retried",
         "a transient compilation fault was absorbed by a bounded retry "
         "at the same ladder level"},
        {"AS603", Severity::Warning, "clustering-fallback",
         "memory-intensive cluster identification failed; the session "
         "fell back to singleton per-op clusters"},
        {"AS604", Severity::Warning, "parallel-compile-fallback",
         "the pooled compilation pipeline failed; the session "
         "recompiled serially"},
        {"AS605", Severity::Warning, "cache-publish-fallback",
         "publishing into the JIT cache failed; the compilation was "
         "kept session-local (uncached)"},
        {"AS606", Severity::Note, "degraded-cache-entry",
         "a cached compilation was degraded; the session retried it to "
         "upgrade the entry instead of serving it as a full result"},
        {"AS610", Severity::Note, "autotuner-replaced-plan",
         "the cost-model-guided autotuner found a plan strictly "
         "cheaper than the heuristic one and the session adopted it"},
        {"AS620", Severity::Note, "artifact-cache-hit",
         "a compilation was restored from the on-disk artifact cache "
         "and re-verified instead of being recompiled"},
        {"AS621", Severity::Warning, "artifact-corrupt",
         "a persisted kernel artifact failed its integrity checks "
         "(truncation, bit-rot, foreign bytes); it was quarantined and "
         "the session recompiled"},
        {"AS622", Severity::Note, "artifact-version-skew",
         "a persisted kernel artifact was written by an incompatible "
         "format or pipeline version; the session recompiled"},
        {"AS623", Severity::Warning, "artifact-deserialize-failed",
         "a persisted kernel artifact passed its checksums but did not "
         "decode into a structurally valid compilation; it was "
         "quarantined and the session recompiled"},
        {"AS624", Severity::Warning, "artifact-verification-rejected",
         "a decoded kernel artifact was rejected by the plan analyzer's "
         "re-verification gate; it was quarantined and the session "
         "recompiled"},
        {"AS625", Severity::Warning, "artifact-lock-timeout",
         "the artifact cache's cross-process file lock could not be "
         "acquired in time; the session skipped the disk tier and "
         "compiled in memory"},
        {"AS626", Severity::Warning, "artifact-store-failed",
         "persisting a compiled kernel artifact to disk failed; the "
         "compilation stays usable but uncached on disk"},

        // -- AS7xx: kernel-access verification (symbolic analysis of
        //    the emitted per-op access summaries) --
        {"AS701", Severity::Error, "global-access-out-of-bounds",
         "a global or scratch access can reach an index past the "
         "buffer's extent under the planned launch dimensions"},
        {"AS702", Severity::Error, "shared-access-out-of-bounds",
         "a shared-arena access can reach past the kernel's declared "
         "shared-memory size"},
        {"AS703", Severity::Error, "negative-access-index",
         "an access's affine index can evaluate below zero"},
        {"AS704", Severity::Error, "output-under-coverage",
         "writes to an off-chip buffer do not cover its full extent; "
         "a shrunken task-loop or launch bound leaves a stale tail"},
        {"AS711", Severity::Error, "write-write-race",
         "two ops write overlapping elements of one buffer under "
         "different thread mappings with no ordering barrier between "
         "them"},
        {"AS712", Severity::Error, "unsynchronized-read-write",
         "a staging-buffer write and a read of the same elements by "
         "another op are not separated by a barrier of the buffer's "
         "required scope"},
        {"AS721", Severity::Warning, "uncoalesced-global-access",
         "a warp's global access needs several times the DRAM sectors "
         "of an ideally coalesced one"},
        {"AS731", Severity::Warning, "shared-bank-conflict",
         "a warp's shared-memory access stride serializes lanes onto "
         "the same banks"},
        {"AS741", Severity::Warning, "broadcast-recompute-blowup",
         "an op's per-element recompute factor exceeds the broadcast "
         "blowup threshold (Fig. 5-style inlining redundancy)"},
        {"AS751", Severity::Warning, "cost-model-transaction-mismatch",
         "the verifier's statically derived DRAM transaction count "
         "disagrees with the analytical cost model beyond tolerance"},

        // -- AS8xx: shape-parametric verification (proofs over whole
        //    dimension ranges, discharged once per shape bucket) --
        {"AS801", Severity::Error, "parametric-scratch-capacity-exceeded",
         "a scratch buffer's symbolic extent can exceed its "
         "compile-time allocation at a shape inside the declared range"},
        {"AS802", Severity::Error, "parametric-shared-out-of-bounds",
         "a shared-arena access's symbolic offset can push its span "
         "past the arena at a shape inside the declared range"},
        {"AS803", Severity::Error, "parametric-negative-or-empty-index",
         "an access's symbolic offset or extent can evaluate below its "
         "lower bound at a shape inside the declared range"},
        {"AS804", Severity::Error, "parametric-output-under-coverage",
         "writes to an off-chip buffer cannot cover its symbolic "
         "extent at a shape inside the declared range"},
        {"AS811", Severity::Error, "parametric-write-write-race",
         "two writes that share one mapping at the compile shape "
         "provably diverge at another shape in the declared range"},
        {"AS812", Severity::Error, "parametric-read-write-overlap",
         "a staging write and an unsynchronized read that are disjoint "
         "at the compile shape overlap at another shape in the range"},
        {"AS821", Severity::Error, "parametric-arena-overflow",
         "a shared-arena slot's symbolic footprint outgrows its "
         "fixed-capacity slot at a shape inside the declared range"},
        {"AS831", Severity::Note, "parametric-proof-fallback",
         "a parametric proof obligation did not close; the shape "
         "bucket falls back to concrete per-shape verification"},

        // -- AS9xx: emitted-source static analysis (lexer, parser and
        //    statement-tree walks over the rendered CUDA text, checked
        //    independently of the codegen's self-reported plan
        //    metadata) --
        {"AS900", Severity::Error, "emitted-source-unparsable",
         "the emitted kernel source does not lex/parse as the expected "
         "CUDA subset (or defines no __global__ kernel), so none of "
         "the text-level proofs can be established"},
        {"AS901", Severity::Error, "barrier-under-divergence",
         "a __syncthreads() or inter-block barrier in the emitted text "
         "is reachable under divergent control flow (thread-varying "
         "guard, or block-varying trips for a grid barrier), so some "
         "threads or blocks could wait forever"},
        {"AS902", Severity::Warning, "unreachable-barrier",
         "a barrier in the emitted text sits in provably dead control "
         "flow (zero-trip loop or constant-false guard) and can never "
         "execute"},
        {"AS911", Severity::Error, "barrier-schedule-mismatch",
         "the barrier sequence re-derived from the emitted text does "
         "not implement the plan's structural barrier schedule (a "
         "boundary or reuse separator was dropped, added or rescoped)"},
        {"AS912", Severity::Error, "arena-size-mismatch",
         "the __shared__ arena declared in the emitted text does not "
         "match the memory planner's arena size, or a regional buffer "
         "sits outside its planner-assigned slot"},
        {"AS913", Severity::Error, "launch-bounds-mismatch",
         "the __launch_bounds__ annotation in the emitted text does "
         "not match the plan's launch configuration"},
        {"AS914", Severity::Error, "access-set-mismatch",
         "the per-buffer read/write sets re-derived from the emitted "
         "text disagree with the plan's access summaries (a buffer is "
         "touched in the text but not the plan, or vice versa)"},
        {"AS921", Severity::Error, "grid-barrier-flags-not-volatile",
         "the inter-block barrier's arrive/depart flag parameters are "
         "not declared volatile, so the spin loops can be optimized "
         "into infinite waits"},
        {"AS922", Severity::Warning, "smem-write-after-last-barrier",
         "a shared-memory write in the emitted text can reach kernel "
         "exit with no block barrier after it on some path, leaving "
         "cross-thread consumers unordered against the write"},
        {"AS923", Severity::Error, "task-loop-extent-mismatch",
         "a vertical-packing task loop's bound in the emitted text "
         "does not cover its group's logical task extent (or is not a "
         "legal padding of it)"},
    };
    // clang-format on
    return codes;
}

std::string
familyOf(const std::string &code)
{
    // Canonical shape: "AS" + first digit, case-insensitively; any
    // trailing digits select nothing extra. "AS71" and "AS712" are the
    // AS7xx family; "XS7", "AS" and "" are no family at all.
    if (code.size() < 3)
        return "";
    const auto upper = [](char c) {
        return static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    };
    if (upper(code[0]) != 'A' || upper(code[1]) != 'S' ||
        !std::isdigit(static_cast<unsigned char>(code[2]))) {
        return "";
    }
    return std::string("AS") + code[2];
}

std::vector<std::string>
parseFamilyList(const std::string &expression)
{
    std::vector<std::string> families;
    for (const std::string &raw : strSplit(expression, ',')) {
        std::string item = strTrim(raw);
        fatalIf(item.empty(), "empty item in diagnostic family list '",
                expression, "'");
        const std::size_t dash = item.find('-');
        if (dash == std::string::npos) {
            const std::string family = familyOf(item);
            fatalIf(family.empty(), "unknown diagnostic family '", item,
                    "' (expected e.g. AS7 or AS7xx)");
            families.push_back(family);
            continue;
        }
        const std::string first = familyOf(strTrim(item.substr(0, dash)));
        const std::string last = familyOf(strTrim(item.substr(dash + 1)));
        fatalIf(first.empty() || last.empty(),
                "unknown diagnostic family range '", item,
                "' (expected e.g. AS1-AS5 or AS1xx-AS5xx)");
        const int lo = first[2] - '0';
        const int hi = last[2] - '0';
        fatalIf(lo > hi, "inverted diagnostic family range '", item, "'");
        for (int digit = lo; digit <= hi; ++digit)
            families.push_back(strCat("AS", digit));
    }
    // De-duplicate while keeping first-mention order.
    std::vector<std::string> unique;
    for (const std::string &f : families) {
        if (std::find(unique.begin(), unique.end(), f) == unique.end())
            unique.push_back(f);
    }
    return unique;
}

const DiagnosticCode *
findDiagnosticCode(const std::string &code)
{
    for (const DiagnosticCode &info : diagnosticCodes()) {
        if (code == info.code)
            return &info;
    }
    return nullptr;
}

std::string
Diagnostic::toString() const
{
    std::string line = strCat("[", code, "] ", severityName(severity), " ",
                              kernel, ": ", message);
    if (!provenance.empty())
        line += strCat("  (seen in: ", strJoin(provenance, ", "), ")");
    return line;
}

void
DiagnosticEngine::report(const std::string &code, const std::string &kernel,
                         const std::string &message, NodeId node)
{
    const DiagnosticCode *info = findDiagnosticCode(code);
    panicIf(!info, "unregistered diagnostic code ", code);
    report(code, info->severity, kernel, message, node);
}

void
DiagnosticEngine::report(const std::string &code, Severity severity,
                         const std::string &kernel,
                         const std::string &message, NodeId node)
{
    panicIf(!findDiagnosticCode(code), "unregistered diagnostic code ",
            code);
    diags_.push_back(Diagnostic{code, severity, kernel, message, node, {}});
}

void
DiagnosticEngine::add(Diagnostic diagnostic)
{
    panicIf(!findDiagnosticCode(diagnostic.code),
            "unregistered diagnostic code ", diagnostic.code);
    diags_.push_back(std::move(diagnostic));
}

int
DiagnosticEngine::count(Severity severity) const
{
    return static_cast<int>(
        std::count_if(diags_.begin(), diags_.end(),
                      [severity](const Diagnostic &d) {
                          return d.severity == severity;
                      }));
}

DiagnosticEngine
DiagnosticEngine::withFamily(const std::string &family) const
{
    const std::string wanted = familyOf(family);
    DiagnosticEngine out;
    if (wanted.empty())
        return out;
    for (const Diagnostic &d : diags_) {
        if (familyOf(d.code) == wanted)
            out.diags_.push_back(d);
    }
    return out;
}

DiagnosticEngine
DiagnosticEngine::withFamilies(const std::vector<std::string> &families) const
{
    DiagnosticEngine out;
    for (const Diagnostic &d : diags_) {
        const std::string family = familyOf(d.code);
        if (std::find(families.begin(), families.end(), family) !=
            families.end())
            out.diags_.push_back(d);
    }
    return out;
}

void
DiagnosticEngine::merge(const DiagnosticEngine &other)
{
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

void
DiagnosticEngine::mergeDeduped(const DiagnosticEngine &other,
                               const std::string &origin)
{
    for (const Diagnostic &incoming : other.diags_) {
        Diagnostic *match = nullptr;
        for (Diagnostic &held : diags_) {
            if (held.code == incoming.code &&
                held.kernel == incoming.kernel &&
                held.message == incoming.message &&
                held.node == incoming.node) {
                match = &held;
                break;
            }
        }
        if (!match) {
            diags_.push_back(incoming);
            match = &diags_.back();
        }
        if (!origin.empty() &&
            std::find(match->provenance.begin(), match->provenance.end(),
                      origin) == match->provenance.end())
            match->provenance.push_back(origin);
    }
}

std::string
DiagnosticEngine::renderText() const
{
    std::vector<Diagnostic> sorted = diags_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Diagnostic &a, const Diagnostic &b) {
                         return static_cast<int>(a.severity) >
                                static_cast<int>(b.severity);
                     });
    std::string out;
    for (const Diagnostic &d : sorted) {
        out += d.toString();
        out += '\n';
    }
    return out;
}

std::string
DiagnosticEngine::renderJson() const
{
    std::ostringstream oss;
    oss << "{\"diagnostics\":[";
    bool first = true;
    for (const Diagnostic &d : diags_) {
        if (!first)
            oss << ",";
        first = false;
        oss << "{\"code\":\"" << jsonEscape(d.code) << "\",\"severity\":\""
            << severityName(d.severity) << "\",\"kernel\":\""
            << jsonEscape(d.kernel) << "\",\"message\":\""
            << jsonEscape(d.message) << "\"";
        if (d.node != kInvalidNodeId)
            oss << ",\"node\":" << d.node;
        if (!d.provenance.empty()) {
            oss << ",\"provenance\":[";
            for (std::size_t i = 0; i < d.provenance.size(); ++i) {
                oss << (i ? "," : "") << "\"" << jsonEscape(d.provenance[i])
                    << "\"";
            }
            oss << "]";
        }
        oss << "}";
    }
    oss << "],\"summary\":{\"errors\":" << count(Severity::Error)
        << ",\"warnings\":" << count(Severity::Warning)
        << ",\"notes\":" << count(Severity::Note) << "}}";
    return oss.str();
}

std::string
DiagnosticEngine::renderSarif() const
{
    // SARIF maps each diagnostic code to a rule, each finding to a
    // result whose logical location is the kernel name.
    std::ostringstream oss;
    oss << "{\"version\":\"2.1.0\",\"$schema\":"
           "\"https://json.schemastore.org/sarif-2.1.0.json\","
           "\"runs\":[{\"tool\":{\"driver\":{\"name\":"
           "\"astitch-stitch-sanitizer\",\"rules\":[";
    bool first = true;
    for (const DiagnosticCode &info : diagnosticCodes()) {
        if (!first)
            oss << ",";
        first = false;
        oss << "{\"id\":\"" << info.code << "\",\"name\":\""
            << jsonEscape(info.title)
            << "\",\"shortDescription\":{\"text\":\""
            << jsonEscape(info.description) << "\"}}";
    }
    oss << "]}},\"results\":[";
    first = true;
    for (const Diagnostic &d : diags_) {
        // SARIF levels: note / warning / error.
        if (!first)
            oss << ",";
        first = false;
        oss << "{\"ruleId\":\"" << jsonEscape(d.code) << "\",\"level\":\""
            << severityName(d.severity) << "\",\"message\":{\"text\":\""
            << jsonEscape(d.message)
            << "\"},\"locations\":[{\"logicalLocations\":[{\"name\":\""
            << jsonEscape(d.kernel) << "\",\"kind\":\"kernel\"}]}]}";
    }
    oss << "]}]}";
    return oss.str();
}

} // namespace astitch

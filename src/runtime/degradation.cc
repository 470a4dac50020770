#include "runtime/degradation.h"

#include <algorithm>

#include "support/strings.h"

namespace astitch {

const char *
ladderLevelName(LadderLevel level)
{
    switch (level) {
    case LadderLevel::FullStitch:
        return "full-stitch";
    case LadderLevel::LocalOnly:
        return "local-only";
    case LadderLevel::LoopFusion:
        return "loop-fusion";
    case LadderLevel::KernelPerOp:
        return "kernel-per-op";
    }
    return "unknown";
}

bool
DegradationReport::degraded() const
{
    if (clustering_fallback || serial_fallback || cache_bypassed ||
        session_retries > 0)
        return true;
    return std::any_of(clusters.begin(), clusters.end(),
                       [](const ClusterDegradation &c) {
                           return c.degraded();
                       });
}

LadderLevel
DegradationReport::maxLevel() const
{
    LadderLevel level = LadderLevel::FullStitch;
    for (const ClusterDegradation &c : clusters)
        level = std::max(level, c.level);
    return level;
}

int
DegradationReport::numDegradedClusters() const
{
    int n = 0;
    for (const ClusterDegradation &c : clusters) {
        if (c.level != LadderLevel::FullStitch)
            ++n;
    }
    return n;
}

int
DegradationReport::totalRetries() const
{
    int n = session_retries;
    for (const ClusterDegradation &c : clusters)
        n += c.retries;
    return n;
}

std::string
DegradationReport::renderText() const
{
    if (!degraded())
        return "";
    std::string out = "degraded compilation:\n";
    if (clustering_fallback)
        out += "  clustering failed; singleton-cluster fallback used\n";
    if (serial_fallback)
        out += "  parallel compilation failed; recompiled serially\n";
    if (cache_bypassed)
        out += "  JIT cache publish failed; compilation not shared\n";
    if (session_retries > 0) {
        out += strCat("  ", session_retries,
                      " whole-compile transient retr",
                      session_retries == 1 ? "y" : "ies", "\n");
    }
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        const ClusterDegradation &c = clusters[i];
        if (!c.degraded())
            continue;
        out += strCat("  cluster ", i, ": ", ladderLevelName(c.level));
        if (c.retries > 0)
            out += strCat(" (", c.retries, " transient retr",
                          c.retries == 1 ? "y" : "ies", ")");
        out += "\n";
        for (const std::string &cause : c.causes)
            out += strCat("    ", cause, "\n");
    }
    return out;
}

std::string
DegradationReport::renderJson() const
{
    std::string out = "{";
    out += strCat("\"degraded\": ", degraded() ? "true" : "false");
    out += strCat(", \"max_level\": \"", ladderLevelName(maxLevel()), "\"");
    out += strCat(", \"degraded_clusters\": ", numDegradedClusters());
    out += strCat(", \"total_retries\": ", totalRetries());
    out += strCat(", \"clustering_fallback\": ",
                  clustering_fallback ? "true" : "false");
    out += strCat(", \"serial_fallback\": ",
                  serial_fallback ? "true" : "false");
    out += strCat(", \"cache_bypassed\": ",
                  cache_bypassed ? "true" : "false");
    out += ", \"clusters\": [";
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        const ClusterDegradation &c = clusters[i];
        if (i > 0)
            out += ", ";
        out += strCat("{\"level\": \"", ladderLevelName(c.level),
                      "\", \"retries\": ", c.retries, ", \"causes\": [");
        for (std::size_t j = 0; j < c.causes.size(); ++j) {
            if (j > 0)
                out += ", ";
            out += strCat("\"", jsonEscape(c.causes[j]), "\"");
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

} // namespace astitch

#include "core/memory_planner.h"

#include <algorithm>
#include <map>

#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

namespace {

/** Per-block bytes of a Regional buffer for node @p x in group @p g. */
std::int64_t
regionalBytesPerBlock(const Graph &graph, const GroupSchedule &sched,
                      NodeId x)
{
    const Node &node = graph.node(x);
    const std::int64_t elems = node.shape().numElements();
    const std::int64_t grid = std::max<std::int64_t>(
        1, sched.mapping.launch.grid);
    const std::int64_t logical_blocks =
        grid * std::max<std::int64_t>(1, sched.mapping.tasks_per_block);
    const std::int64_t per_block =
        (elems + logical_blocks - 1) / logical_blocks;
    return per_block * dtypeSizeBytes(node.dtype());
}

/**
 * Peak footprint of liveness intervals [def, last_use] after slot reuse:
 * a scan over the schedule order accumulating live sizes.
 */
std::int64_t
peakLiveBytes(const std::map<NodeId, std::pair<NodeId, std::int64_t>>
                  &intervals)
{
    // Events: +size at def, -size after last use.
    std::map<NodeId, std::int64_t> delta;
    for (const auto &[def, entry] : intervals) {
        delta[def] += entry.second;
        delta[entry.first + 1] -= entry.second;
    }
    std::int64_t live = 0;
    std::int64_t peak = 0;
    for (const auto &[pos, d] : delta) {
        live += d;
        peak = std::max(peak, live);
    }
    return peak;
}

/** A concrete arena layout: slot offsets plus the bytes they span. */
struct ArenaLayout
{
    std::int64_t extent = 0;
    std::vector<SharedSlot> slots;
};

/**
 * First-fit storage allocation over liveness intervals [def, last_use]:
 * values whose lifetimes are disjoint may share bytes, concurrently-live
 * values get disjoint ranges. Allocating in definition order keeps the
 * layout deterministic and, for the chain-shaped lifetimes stitched
 * clusters produce, matches the event-scan peak. Only the slots still
 * live at the current definition are kept, sorted by byte range, so
 * each placement scans the live set instead of every placed slot.
 */
ArenaLayout
allocateArena(const std::map<NodeId, std::pair<NodeId, std::int64_t>>
                  &intervals)
{
    struct Busy
    {
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        NodeId last = kInvalidNodeId;
    };
    const auto by_range = [](const Busy &x, const Busy &y) {
        return std::pair(x.lo, x.hi) < std::pair(y.lo, y.hi);
    };
    ArenaLayout layout;
    std::vector<Busy> live;
    for (const auto &[def, entry] : intervals) {
        const NodeId last = entry.first;
        const std::int64_t size = entry.second;
        // Placed slots are defined earlier; they overlap this lifetime
        // while their last use has not passed.
        std::erase_if(live, [def](const Busy &b) { return b.last < def; });
        std::int64_t offset = 0;
        for (const Busy &b : live) {
            if (offset + size <= b.lo)
                break;
            offset = std::max(offset, b.hi);
        }
        layout.slots.push_back(SharedSlot{def, offset, size});
        layout.extent = std::max(layout.extent, offset + size);
        const Busy placed{offset, offset + size, last};
        live.insert(std::upper_bound(live.begin(), live.end(), placed,
                                     by_range),
                    placed);
    }
    return layout;
}

} // namespace

MemoryPlan
planMemory(const Graph &graph, const Cluster &cluster,
           const DominantAnalysis &analysis,
           const std::vector<GroupSchedule> &schedules, SchemeMap schemes,
           const GpuSpec &spec, std::int64_t smem_budget)
{
    faultPoint("memory-planner");
    MemoryPlan plan;
    if (smem_budget <= 0)
        smem_budget = spec.smem_per_block_bytes;

    auto last_use = [&](NodeId x) {
        NodeId last = x;
        for (NodeId u : graph.users(x)) {
            if (cluster.contains(u))
                last = std::max(last, u);
        }
        return last;
    };

    // Reduction tree scratch: one block-wide slab, reused across reduces.
    std::int64_t static_scratch = 0;
    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
        if (schedules[g].is_reduce_group) {
            static_scratch = std::max<std::int64_t>(
                static_scratch, schedules[g].mapping.launch.block * 4);
        }
    }

    std::map<NodeId, std::pair<NodeId, std::int64_t>> intervals;
    for (const auto &[x, scheme] : schemes) {
        if (scheme != StitchScheme::Regional)
            continue;
        // A boundary with no in-kernel consumer (a pure cluster output)
        // needs no intermediate buffer — it is streamed to framework
        // memory directly.
        const NodeId last = last_use(x);
        if (last == x)
            continue;
        const int g = analysis.producingGroup(x);
        panicIf(g < 0, "boundary node ", x, " has no producing group");
        intervals[x] = {last, regionalBytesPerBlock(graph, schedules[g], x)};
    }

    // Iteratively demote until the peak fits the budget.
    while (true) {
        const ArenaLayout layout = allocateArena(intervals);
        const std::int64_t used = layout.extent + static_scratch;
        if (used <= smem_budget) {
            plan.smem_per_block = used;
            plan.arena = layout.slots;
            // Report absolute offsets: slots sit after the scratch slab.
            for (SharedSlot &slot : plan.arena)
                slot.offset_bytes += static_scratch;
            break;
        }
        // Demote the largest Regional buffer (one by one, Sec 4.4).
        // Element-wise values rematerialize (recompute per consumer
        // group, no off-chip spill); reductions demote to Global.
        NodeId victim = kInvalidNodeId;
        std::int64_t victim_bytes = -1;
        for (const auto &[x, entry] : intervals) {
            if (entry.second > victim_bytes) {
                victim_bytes = entry.second;
                victim = x;
            }
        }
        fatalIf(victim == kInvalidNodeId,
                "shared-memory budget ", smem_budget,
                " too small even for reduction scratch ", static_scratch);
        if (isReduce(graph.node(victim).kind())) {
            schemes[victim] = StitchScheme::Global;
        } else {
            schemes.erase(victim);
            plan.rematerialized.insert(victim);
        }
        intervals.erase(victim);
        ++plan.num_demoted;
    }

    // Peak global scratch (liveness-reused).
    std::map<NodeId, std::pair<NodeId, std::int64_t>> global_intervals;
    for (const auto &[x, scheme] : schemes) {
        if (scheme != StitchScheme::Global || last_use(x) == x)
            continue;
        const Node &node = graph.node(x);
        global_intervals[x] = {
            last_use(x),
            node.shape().numElements() * dtypeSizeBytes(node.dtype())};
    }
    plan.global_scratch_bytes = peakLiveBytes(global_intervals);
    plan.schemes = std::move(schemes);
    return plan;
}

} // namespace astitch

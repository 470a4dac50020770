#include "compiler/kernel_plan.h"

#include <algorithm>
#include <numeric>

#include "support/logging.h"

namespace astitch {

std::string
bufferSpaceName(BufferSpace space)
{
    switch (space) {
      case BufferSpace::Register:
        return "register";
      case BufferSpace::Shared:
        return "shared";
      case BufferSpace::Global:
        return "global";
      case BufferSpace::Output:
        return "output";
    }
    panic("unknown buffer space");
}

std::string
barrierScopeName(BarrierScope scope)
{
    switch (scope) {
      case BarrierScope::Block:
        return "block";
      case BarrierScope::Device:
        return "device";
    }
    panic("unknown barrier scope");
}

BarrierIndex::BarrierIndex(const std::vector<BarrierPoint> &barriers)
{
    ids_.resize(barriers.size());
    std::iota(ids_.begin(), ids_.end(), 0);
    std::sort(ids_.begin(), ids_.end(), [&barriers](int x, int y) {
        return std::pair(barriers[x].after_op, x) <
               std::pair(barriers[y].after_op, y);
    });
    positions_.reserve(barriers.size());
    for (int id : ids_) {
        positions_.push_back(barriers[id].after_op);
        if (barriers[id].scope == BarrierScope::Device)
            device_.push_back(barriers[id].after_op);
    }
}

void
BarrierIndex::append(const BarrierPoint &barrier)
{
    const auto at = std::upper_bound(positions_.begin(), positions_.end(),
                                     barrier.after_op);
    ids_.insert(ids_.begin() + (at - positions_.begin()),
                static_cast<int>(ids_.size()));
    positions_.insert(at, barrier.after_op);
    if (barrier.scope == BarrierScope::Device) {
        device_.insert(std::upper_bound(device_.begin(), device_.end(),
                                        barrier.after_op),
                       barrier.after_op);
    }
}

int
BarrierIndex::window(int p, bool device_only) const
{
    const std::vector<int> &sorted = device_only ? device_ : positions_;
    return static_cast<int>(
        std::lower_bound(sorted.begin(), sorted.end(), p) - sorted.begin());
}

bool
BarrierIndex::between(int lo, int hi, bool device_only) const
{
    // The first barrier at or after lo decides.
    const std::vector<int> &sorted = device_only ? device_ : positions_;
    const auto first = std::lower_bound(sorted.begin(), sorted.end(), lo);
    return first != sorted.end() && *first < hi;
}

std::span<const int>
BarrierIndex::at(int p) const
{
    const auto first =
        std::lower_bound(positions_.begin(), positions_.end(), p);
    const auto last = std::upper_bound(first, positions_.end(), p);
    return {ids_.begin() + (first - positions_.begin()),
            ids_.begin() + (last - positions_.begin())};
}

std::vector<std::pair<int, int>>
overlappingSlotPairs(const std::vector<SharedSlot> &slots)
{
    if (slots.size() < 2)
        return {};
    const auto end = [&slots](int s) {
        return slots[s].offset_bytes + slots[s].size_bytes;
    };
    std::vector<int> order(slots.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&slots](int x, int y) {
        return slots[x].offset_bytes < slots[y].offset_bytes;
    });
    // Slots earlier in the sweep whose bytes reach past the current
    // offset: the only ones the current slot can overlap.
    std::vector<int> open;
    std::vector<std::pair<int, int>> pairs;
    for (int s : order) {
        const std::int64_t lo = slots[s].offset_bytes;
        std::erase_if(open, [&](int t) { return end(t) <= lo; });
        for (int t : open) {
            if (slots[t].offset_bytes < end(s))
                pairs.emplace_back(std::min(s, t), std::max(s, t));
        }
        open.push_back(s);
    }
    // Into (a, b) order by two stable counting sorts, by b and then by
    // a: O(K + S), where a comparison sort of the pairs costs more than
    // the sweep.
    std::vector<std::pair<int, int>> sorted(pairs.size());
    std::vector<std::size_t> start(slots.size() + 1);
    const auto countingSort = [&](auto key) {
        std::fill(start.begin(), start.end(), 0);
        for (const auto &pair : pairs)
            ++start[key(pair) + 1];
        std::partial_sum(start.begin(), start.end(), start.begin());
        for (const auto &pair : pairs)
            sorted[start[key(pair)]++] = pair;
        pairs.swap(sorted);
    };
    countingSort([](const std::pair<int, int> &p) { return p.second; });
    countingSort([](const std::pair<int, int> &p) { return p.first; });
    return pairs;
}

SlotIndex::SlotIndex(const std::vector<SharedSlot> &slots) : slots_(slots)
{
    by_node_.reserve(slots.size());
    for (std::size_t s = 0; s < slots.size(); ++s)
        by_node_.emplace_back(slots[s].node, static_cast<int>(s));
    std::sort(by_node_.begin(), by_node_.end());
}

const SharedSlot *
SlotIndex::find(NodeId node) const
{
    const auto it = std::lower_bound(by_node_.begin(), by_node_.end(),
                                     std::pair<NodeId, int>{node, -1});
    if (it == by_node_.end() || it->first != node)
        return nullptr;
    return &slots_[it->second];
}

bool
KernelPlan::containsNode(NodeId node) const
{
    return std::any_of(ops.begin(), ops.end(), [node](const ScheduledOp &op) {
        return op.node == node;
    });
}

std::int64_t
opProcessedElements(const Graph &graph, NodeId node)
{
    const Node &n = graph.node(node);
    if (isReduce(n.kind()))
        return graph.node(n.operands()[0]).shape().numElements();
    return n.shape().numElements();
}

KernelWorkDesc
workDescFor(const Graph &graph, const KernelPlan &plan)
{
    KernelWorkDesc desc;
    desc.name = plan.name;
    desc.category = KernelCategory::MemoryIntensive;
    desc.launch = plan.launch;
    desc.regs_per_thread = plan.regs_per_thread;
    desc.smem_per_block = plan.smem_per_block;
    desc.num_block_barriers = plan.num_block_barriers;
    desc.num_global_barriers = plan.num_global_barriers;
    desc.atomic_operations = plan.atomic_operations;
    desc.read_coalescing = plan.read_coalescing;
    desc.write_coalescing = plan.write_coalescing;
    desc.extra_launch_overhead_us = plan.extra_launch_overhead_us;

    desc.bytes_read += plan.extra_bytes_read;

    // Kernel inputs: one full-tensor load per load_factor unit.
    for (const KernelInput &input : plan.inputs) {
        const Node &n = graph.node(input.node);
        desc.bytes_read += static_cast<double>(n.shape().numElements()) *
                           dtypeSizeBytes(n.dtype()) * input.load_factor;
    }

    // Scheduled ops: instructions plus traffic of global-space spills.
    for (const ScheduledOp &op : plan.ops) {
        const Node &n = graph.node(op.node);
        const double elems =
            static_cast<double>(opProcessedElements(graph, op.node));
        desc.fp_instructions += elems *
                                opInstructionsPerElement(n.kind()) *
                                op.recompute_factor;

        const double out_bytes =
            static_cast<double>(n.shape().numElements()) *
            dtypeSizeBytes(n.dtype());
        switch (op.out_space) {
          case BufferSpace::Register:
          case BufferSpace::Shared:
            break; // on-chip, no DRAM traffic
          case BufferSpace::Global:
            // Written once, read back by the consumer group(s).
            desc.bytes_written += out_bytes;
            desc.bytes_read += out_bytes;
            break;
          case BufferSpace::Output:
            desc.bytes_written += out_bytes;
            break;
        }
    }

    // Kernel outputs that were not already marked Output in the schedule
    // (defensive: every output node should carry BufferSpace::Output).
    for (NodeId out : plan.outputs) {
        const bool scheduled_as_output = std::any_of(
            plan.ops.begin(), plan.ops.end(), [out](const ScheduledOp &op) {
                return op.node == out &&
                       op.out_space == BufferSpace::Output;
            });
        panicIf(!scheduled_as_output,
                "kernel ", plan.name, " output node ", out,
                " is not scheduled with BufferSpace::Output");
    }

    return desc;
}

} // namespace astitch

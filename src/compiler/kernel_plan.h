/**
 * @file
 * The kernel-plan IR: what a code generator emits for one GPU kernel.
 *
 * A KernelPlan is the contract between every backend (TF executor, XLA,
 * TVM, TensorRT, AStitch) and the device model. It records, per scheduled
 * operator, *where* its result lives (the stitching-scheme memory space)
 * and *how often* each element is recomputed — the two quantities that
 * separate AStitch's hierarchical data reuse from per-element inlining.
 */
#ifndef ASTITCH_COMPILER_KERNEL_PLAN_H
#define ASTITCH_COMPILER_KERNEL_PLAN_H

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/access_model.h"
#include "graph/graph.h"
#include "sim/cost_model.h"

namespace astitch {

/**
 * Where an intermediate value is buffered between its producer and its
 * consumers (Table 1 of the paper).
 */
enum class BufferSpace {
    Register, ///< Local scheme: per-thread register, one-to-one deps.
    Shared,   ///< Regional scheme: on-chip shared memory, block locality.
    Global,   ///< Global scheme: off-chip scratch + device-wide barrier.
    Output,   ///< Kernel output: written to framework-visible memory.
};

/** Printable name of a buffer space. */
std::string bufferSpaceName(BufferSpace space);

/** Scope of an in-kernel synchronization point. */
enum class BarrierScope {
    Block,  ///< __syncthreads(): one thread block
    Device, ///< lock-free inter-block barrier: the whole grid
};

/** Printable name of a barrier scope. */
std::string barrierScopeName(BarrierScope scope);

/**
 * One structural synchronization point in a kernel's schedule order.
 * The cost model aggregates barriers into counts; this records *where*
 * they sit so the stitch sanitizer can prove producer->consumer edges
 * are separated. A barrier at position p executes after ops[p] and
 * before ops[p + 1].
 */
struct BarrierPoint
{
    int after_op = -1; ///< index into KernelPlan::ops
    BarrierScope scope = BarrierScope::Block;

    /**
     * Times the barrier executes per physical block: the trip count of
     * the vertically-packed task loop it is emitted inside (1 when the
     * barrier sits outside any packing loop).
     */
    std::int64_t trip_count = 1;
};

/**
 * A barrier schedule indexed by position, so "does a barrier of the
 * needed scope separate schedule positions p and q" costs O(log B)
 * instead of a scan over all B barriers.
 *
 * Positions p < q are ordered exactly when a barrier of the scope has
 * after_op in [p, q). Equivalently they sit in different windows, where
 * window(p) counts the barriers of the scope with after_op < p.
 */
class BarrierIndex
{
  public:
    explicit BarrierIndex(const std::vector<BarrierPoint> &barriers);

    /** Indexes @p barrier as appended to the list after construction. */
    void append(const BarrierPoint &barrier);

    /** Barriers with after_op < @p p: of any scope, or device-wide only. */
    int window(int p, bool device_only) const;

    /** True when a barrier of the scope has after_op in [@p lo, @p hi). */
    bool between(int lo, int hi, bool device_only) const;

    /** Ids (list positions) of the barriers after op @p p, ascending. */
    std::span<const int> at(int p) const;

  private:
    std::vector<int> positions_; ///< after_op of every barrier, sorted
    std::vector<int> ids_;       ///< barrier ids in positions_ order
    std::vector<int> device_;    ///< sorted after_op of device barriers
};

/**
 * How an op's output elements are partitioned across logical blocks —
 * the thread-mapping decision of the group that scheduled the op. Two
 * ops with equal partitions produce/consume block-local element ranges
 * (the passive locality check's criterion); a default-constructed
 * partition (grid 0) means the emitting backend recorded no mapping
 * (non-stitched plans), and partition-based checks skip the op.
 */
struct OpPartition
{
    LaunchDims launch{0, 0};
    std::int64_t rows_per_block = 1; ///< horizontal packing factor
    std::int64_t tasks_per_block = 1; ///< vertical packing factor

    bool known() const { return launch.grid > 0; }

    bool operator==(const OpPartition &other) const
    {
        return launch == other.launch &&
               rows_per_block == other.rows_per_block &&
               tasks_per_block == other.tasks_per_block;
    }
    bool operator!=(const OpPartition &other) const
    {
        return !(*this == other);
    }
};

/** One shared-memory arena assignment made by the memory planner. */
struct SharedSlot
{
    NodeId node = kInvalidNodeId;
    std::int64_t offset_bytes = 0; ///< byte offset into the smem arena
    std::int64_t size_bytes = 0;   ///< per-block footprint
};

/**
 * Pairs (a, b), a < b, of @p slots whose byte ranges overlap, sorted by
 * (a, b): a sort-by-offset sweep, O(S log S + K) for S slots and K
 * pairs. Zero- and negative-size slots follow the same half-open
 * interval test as every other slot.
 */
std::vector<std::pair<int, int>>
overlappingSlotPairs(const std::vector<SharedSlot> &slots);

/**
 * Shared slots indexed by node: O(log S) lookups of a node's slot. The
 * indexed list must outlive the index and stay unchanged.
 */
class SlotIndex
{
  public:
    explicit SlotIndex(const std::vector<SharedSlot> &slots);

    /** The first slot of @p node in the indexed list, or nullptr. */
    const SharedSlot *find(NodeId node) const;

  private:
    const std::vector<SharedSlot> &slots_;
    std::vector<std::pair<NodeId, int>> by_node_; ///< sorted (node, id)
};

/** One operator scheduled inside a kernel. */
struct ScheduledOp
{
    NodeId node = kInvalidNodeId;

    /**
     * How many times each element of this op is computed. 1.0 under
     * hierarchical data reuse; the broadcast fan-out when a per-element
     * inliner recomputes the producer in every consumer thread (Fig. 5);
     * the consumer count when an op is duplicated into several kernels.
     */
    double recompute_factor = 1.0;

    /** Where the result is buffered for consumers. */
    BufferSpace out_space = BufferSpace::Register;

    /** Logical-block partitioning of the output (see OpPartition). */
    OpPartition partition;
};

/** One kernel input (read from framework/global memory). */
struct KernelInput
{
    NodeId node = kInvalidNodeId;

    /**
     * How many times the full tensor is loaded from off-chip memory.
     * 1.0 when buffered in registers after one load (operator-level
     * reuse); higher when separate schedules force reloads.
     */
    double load_factor = 1.0;
};

/** A generated kernel: scheduled ops plus launch/resource decisions. */
struct KernelPlan
{
    std::string name;

    /** Ops in execution (topological) order. */
    std::vector<ScheduledOp> ops;

    /** Values read from global memory at kernel start. */
    std::vector<KernelInput> inputs;

    /** Nodes written back to framework-visible memory. */
    std::vector<NodeId> outputs;

    LaunchDims launch{1, 256};
    int regs_per_thread = 32;
    std::int64_t smem_per_block = 0;

    int num_block_barriers = 0;
    int num_global_barriers = 0;

    /**
     * Structural synchronization points in schedule order (stitch
     * boundaries and arena-reuse separators). The num_*_barriers fields
     * above stay the cost model's aggregates (they also count barriers
     * internal to reductions); this list is the sanitizer's ground
     * truth for barrier *placement*. Empty for backends that do not
     * record structure (their plans carry no Shared stitch edges).
     */
    std::vector<BarrierPoint> barriers;

    /** Shared-arena slot assignments (Regional intermediates). */
    std::vector<SharedSlot> shared_slots;

    /**
     * Per-op memory-access summaries: affine index expressions over the
     * kernel's induction variables for every global/scratch/shared
     * access the generated code performs, the kernel-access verifier's
     * (analysis/kernel_verifier.h) ground truth. Shared-arena entries
     * are recorded in 4-byte word units (the arena is one float array);
     * all other entries use the accessed node's element size. Empty for
     * backends that do not record index structure.
     */
    std::vector<OpAccess> accesses;

    /**
     * Shape-parametric twins of `accesses`: symbolic extents/offsets
     * over the named dimension variables the plan was compiled under
     * (SessionOptions::shape_params). Keyed into `accesses` by
     * SymbolicAccess::access_index; accesses without a twin could not
     * be expressed linearly and fall back to concrete verification.
     * Empty when no shape params were declared.
     */
    std::vector<SymbolicAccess> sym_accesses;

    /**
     * The parametric verifier's verdict for this plan over the declared
     * dimension ranges (verdict None when parametric verification never
     * ran). Carried through the JIT cache with the plan, so a cached
     * compilation stays certified for the shape range it serves.
     */
    ShapeCertificate certificate;

    /**
     * The CUDA C++ text the emitter rendered for this plan — the final
     * artifact the plan metadata above describes. The emitted-source
     * static analyzer (analysis/cuda_static.h) re-derives barriers,
     * arena size, launch bounds and access sets from this text and
     * cross-checks them against the fields above, so an emitter bug
     * cannot hide behind self-reported metadata. Empty for backends
     * that do not render source (loop fusion, comparator backends).
     */
    std::string cuda_source;

    /** Global atomics (column-reduce, cross-block split reduction). */
    double atomic_operations = 0.0;

    /** Access-pattern quality (1 = fully coalesced). */
    double read_coalescing = 1.0;
    double write_coalescing = 1.0;

    /** Extra CPU-side dispatch cost (framework executor overhead). */
    double extra_launch_overhead_us = 0.0;

    /**
     * Extra off-chip reads not attributable to a single input: e.g.
     * rematerialized boundary chains re-reading their ancestors once
     * per extra consuming group.
     */
    double extra_bytes_read = 0.0;

    /** True if op @p node is scheduled in this kernel. */
    bool containsNode(NodeId node) const;
};

/** Result of compiling one memory-intensive cluster. */
struct CompiledCluster
{
    std::vector<KernelPlan> kernels;

    /** cudaMemcpy/Memset activities compilation requires at runtime. */
    int num_memcpy = 0;
    double memcpy_bytes = 0.0;

    /** Peak global scratch allocated by the memory planner (bytes). */
    std::int64_t global_scratch_bytes = 0;
};

/**
 * Number of elements an op touches when executed once: output elements
 * for element-wise ops, *input* elements for reductions (they stream the
 * whole operand).
 */
std::int64_t opProcessedElements(const Graph &graph, NodeId node);

/**
 * Derive the device work of a kernel plan: traffic (with per-input load
 * factors and global-space intermediates), instruction counts (with
 * recompute factors) and barrier/atomic totals.
 */
KernelWorkDesc workDescFor(const Graph &graph, const KernelPlan &plan);

} // namespace astitch

#endif // ASTITCH_COMPILER_KERNEL_PLAN_H

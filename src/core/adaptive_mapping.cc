#include "core/adaptive_mapping.h"

#include <algorithm>

#include "support/logging.h"

namespace astitch {

std::int64_t
blocksPerWaveFor(const GpuSpec &spec, int block_size,
                 std::int64_t smem_per_block)
{
    const Occupancy occ =
        computeOccupancy(spec, block_size, 32, smem_per_block);
    if (occ.blocks_per_sm == 0)
        return spec.num_sms;
    return occ.blocksPerWave(spec);
}

namespace {

/** Clamp a forced block budget to a legal stitched-kernel block size. */
int
clampOverrideBlock(const GpuSpec &spec, int block)
{
    block = std::min(block, spec.max_threads_per_block);
    return roundUpToWarp(spec, std::max(block, 1));
}

} // namespace

AdaptiveMapping
adaptiveRowReduce(const GpuSpec &spec, std::int64_t rows,
                  std::int64_t cols, const MappingOverride &ov)
{
    fatalIf(rows <= 0 || cols <= 0, "degenerate reduction ", rows, "x",
            cols);
    if (ov.any()) {
        AdaptiveMapping m;
        const int budget =
            clampOverrideBlock(spec, ov.block > 0
                                         ? ov.block
                                         : spec.max_threads_per_block);
        if (ov.split > 1) {
            // Forced task splitting: same shape as the heuristic split
            // branch, with the factor clamped so the grid stays within
            // one wave and no block is left without columns.
            const std::int64_t bpw =
                blocksPerWaveFor(spec, budget, 8 * 1024);
            const std::int64_t by_cols =
                std::max<std::int64_t>(1, (cols + budget - 1) / budget);
            const std::int64_t max_split = std::max<std::int64_t>(
                1, std::min<std::int64_t>(by_cols,
                                          (bpw + rows - 1) / rows));
            m.split_factor = static_cast<int>(
                std::min<std::int64_t>(ov.split, max_split));
            m.launch = LaunchDims{rows * m.split_factor, budget};
            m.uses_atomics = m.split_factor > 1;
            m.rows_per_block = 1;
            return m;
        }
        // Forced block budget with horizontal + vertical packing.
        const std::int64_t bpw = blocksPerWaveFor(spec, budget, 8 * 1024);
        const int threads_per_row =
            roundUpToWarp(spec, std::min<std::int64_t>(cols, budget));
        m.rows_per_block =
            std::max<std::int64_t>(1, budget / threads_per_row);
        m.rows_per_block = std::min(m.rows_per_block, rows);
        const int block =
            static_cast<int>(m.rows_per_block) * threads_per_row;
        std::int64_t grid =
            (rows + m.rows_per_block - 1) / m.rows_per_block;
        if (grid > bpw) {
            m.tasks_per_block = (grid + bpw - 1) / bpw;
            grid = (grid + m.tasks_per_block - 1) / m.tasks_per_block;
        }
        m.launch = LaunchDims{std::max<std::int64_t>(1, grid), block};
        return m;
    }
    AdaptiveMapping m;
    const int max_block = spec.max_threads_per_block;
    const std::int64_t bpw = blocksPerWaveFor(spec, max_block, 8 * 1024);

    if (rows < bpw && cols > max_block) {
        // Task splitting (Fig. 8-(b)): too few rows to fill the device
        // and long rows — split each row over several blocks joined by a
        // cross-block atomic. Pick the factor that maximizes modelled
        // device utilization without spilling into a ragged extra wave.
        const std::int64_t by_cols = (cols + max_block - 1) / max_block;
        const std::int64_t max_split =
            std::min<std::int64_t>(by_cols, (bpw + rows - 1) / rows);
        std::int64_t best_split = 1;
        double best_score = -1.0;
        // The occupancy query depends only on (block, regs, smem), not
        // on the split factor — loop-invariant, so computed once.
        const Occupancy occ = computeOccupancy(spec, max_block, 32, 8 * 1024);
        for (std::int64_t split = 1; split <= max_split; ++split) {
            const LaunchDims launch{rows * split, max_block};
            const double score = achievedOccupancy(spec, launch, occ) *
                                 smEfficiency(spec, launch, occ);
            if (score > best_score + 1e-12) {
                best_score = score;
                best_split = split;
            }
        }
        m.split_factor = static_cast<int>(best_split);
        m.launch = LaunchDims{rows * m.split_factor, max_block};
        m.uses_atomics = m.split_factor > 1;
        m.rows_per_block = 1;
    } else {
        // Horizontal packing (Fig. 8-(a)): several small row-tasks share
        // one large block.
        const int threads_per_row = roundUpToWarp(
            spec, std::min<std::int64_t>(cols, max_block));
        m.rows_per_block = std::max<std::int64_t>(
            1, max_block / threads_per_row);
        m.rows_per_block = std::min(m.rows_per_block, rows);
        const int block =
            static_cast<int>(m.rows_per_block) * threads_per_row;
        std::int64_t grid = (rows + m.rows_per_block - 1) /
                            m.rows_per_block;
        // Vertical packing: bound the grid to one wave; each block loops
        // over several row-groups in order.
        if (grid > bpw) {
            m.tasks_per_block = (grid + bpw - 1) / bpw;
            grid = (grid + m.tasks_per_block - 1) / m.tasks_per_block;
        }
        m.launch = LaunchDims{std::max<std::int64_t>(1, grid), block};
    }
    return m;
}

AdaptiveMapping
adaptiveColumnReduce(const GpuSpec &spec, std::int64_t rows,
                     std::int64_t cols, const MappingOverride &ov)
{
    AdaptiveMapping m;
    const int block =
        ov.block > 0 ? clampOverrideBlock(spec, ov.block) : 256;
    const std::int64_t total = rows * cols;
    const std::int64_t bpw = blocksPerWaveFor(spec, block, 0);
    std::int64_t grid = std::max<std::int64_t>(1, (total + block - 1) /
                                                      block);
    if (grid > bpw) {
        m.tasks_per_block = (grid + bpw - 1) / bpw;
        grid = (grid + m.tasks_per_block - 1) / m.tasks_per_block;
    }
    m.launch = LaunchDims{grid, block};
    m.uses_atomics = true;
    return m;
}

AdaptiveMapping
adaptiveElementwise(const GpuSpec &spec, std::int64_t num_elements,
                    const MappingOverride &ov)
{
    AdaptiveMapping m;
    const int block =
        ov.block > 0 ? clampOverrideBlock(spec, ov.block) : 256;
    const std::int64_t bpw = blocksPerWaveFor(spec, block, 0);
    std::int64_t grid = std::max<std::int64_t>(
        1, (num_elements + block - 1) / block);
    if (grid > bpw) {
        m.tasks_per_block = (grid + bpw - 1) / bpw;
        grid = (grid + m.tasks_per_block - 1) / m.tasks_per_block;
    }
    m.launch = LaunchDims{grid, block};
    return m;
}

} // namespace astitch

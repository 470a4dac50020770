/**
 * @file
 * Kernel launch dimensions (1-D grid x 1-D block).
 *
 * The thread-mapping passes in this reproduction reason in one dimension;
 * multi-dimensional CUDA grids are linearizations of this.
 */
#ifndef ASTITCH_SIM_LAUNCH_DIMS_H
#define ASTITCH_SIM_LAUNCH_DIMS_H

#include <cstdint>
#include <string>

namespace astitch {

/** A kernel launch configuration. */
struct LaunchDims
{
    std::int64_t grid = 1;  ///< number of thread blocks
    int block = 1;          ///< threads per block

    bool operator==(const LaunchDims &other) const
    {
        return grid == other.grid && block == other.block;
    }

    std::string toString() const;
};

} // namespace astitch

#endif // ASTITCH_SIM_LAUNCH_DIMS_H

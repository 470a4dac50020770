// Generated by AStitch stitch codegen for cluster of 9 ops.
// Device: V100-SXM2-16GB; wave capacity 160 blocks.
#include <cuda_runtime.h>

// access summary (12 entries; index = offset + c_b*b + c_t*t + c_i*i + c_th*th):
//   op1: read global input:%0[0 + 1024*b + 1024*t + 1024*i + th  (b<2,t<1,i<1,th<1024)] extent=2048 elem=4B stride=1 x2
//   op0: read global input:%1[0 + 1024*b + 1024*t + 1024*i + th  (b<2,t<1,i<1,th<1024)] extent=2048 elem=4B stride=1 x2
//   op3: write shared smem[1024 + th  (b<1,t<1,i<1,th<1024)] extent=2064 elem=4B stride=1 (no-traffic)
//   op4: write shared smem[2048 + th  (b<1,t<1,i<1,th<16)] extent=2064 elem=4B stride=1 (no-traffic)
//   op4: read shared smem[1024 + th  (b<1,t<1,i<1,th<1024)] extent=2064 elem=4B stride=1 (no-traffic)
//   op5: read shared smem[1024 + th  (b<1,t<1,i<1,th<1024)] extent=2064 elem=4B stride=1 (no-traffic)
//   op6: write shared smem[1024 + th  (b<1,t<1,i<1,th<16)] extent=2064 elem=4B stride=1 (no-traffic)
//   op7: write shared smem[1040 + th  (b<1,t<1,i<1,th<16)] extent=2064 elem=4B stride=1 (no-traffic)
//   op8: write global out:%10[0 + 1024*b + 1024*t + 1024*i + th  (b<2,t<1,i<1,th<1024)] extent=96 elem=4B stride=1 if<96
//   op8: read shared smem[2048 + th  (b<1,t<1,i<1,th<16)] extent=2064 elem=4B stride=1 (no-traffic)
//   op8: read shared smem[1024 + th  (b<1,t<1,i<1,th<16)] extent=2064 elem=4B stride=1 (no-traffic)
//   op8: read shared smem[1040 + th  (b<1,t<1,i<1,th<16)] extent=2064 elem=4B stride=1 (no-traffic)

extern "C" __global__ void
__launch_bounds__(1024, 2) // regs/thread bound (assume-relax-apply): 32
stitch_render_branches_2_10(const float *__restrict__ v_x, const float *__restrict__ v_y, float *__restrict__ v_concat_10_out)
{
    __shared__ float smem[2064]; // planner: 8256 B/block after liveness reuse

    // ---- group 2: dominant reduce_min.6, logical launch <<<2, 1024>>> ----
    for (long task = blockIdx.x; task < 2; task += gridDim.x) { // vertical packing x1
        const long elem = task * blockDim.x + threadIdx.x;
        (void)elem;
        float v_power_2 = powf(v_y[elem], 3.0f);
        float v_erf_3 = erff(v_x[elem]);
        float v_compare_gt_4 = (v_x[elem] > v_y[elem]) ? 1.0f : 0.0f;
        float v_select_5 = (v_compare_gt_4 != 0.0f) ? v_erf_3 : v_power_2;
        float *v_select_5_smem = smem + 1024; // regional buffer, planner slot, 1024 floats/block
        v_select_5_smem[threadIdx.x % 1024] = v_select_5;
        __syncthreads(); // regional boundary
        // reduce_min.6: row-reduce <32,64>, 16 row(s)/block
        float v_reduce_min_6 = INFINITY;
        for (long c = threadIdx.x; c < 64; c += blockDim.x) {
            float acc = v_reduce_min_6, x = v_select_5_smem[threadIdx.x % 16];
            v_reduce_min_6 = fminf(acc, x);
        }
        v_reduce_min_6 = blockReduce(v_reduce_min_6, smem); // tree reduce, 2 sync phases
        float *v_reduce_min_6_smem = smem + 2048; // regional buffer, planner slot, 16 floats/block
        v_reduce_min_6_smem[threadIdx.x % 16] = v_reduce_min_6;
        __syncthreads(); // regional boundary
        float v_concat_10 = (elem < 32) ? v_reduce_min_6_smem[threadIdx.x % 16] : ((elem < 64) ? v_reduce_mean_8_smem[threadIdx.x % 16] : (v_reduce_min_9_smem[threadIdx.x % 16]));
        v_concat_10_out[task * blockDim.x + threadIdx.x] = v_concat_10;
    }

    // ---- group 1: dominant reduce_mean.8, logical launch <<<2, 1024>>> ----
    for (long task = blockIdx.x; task < 2; task += gridDim.x) { // vertical packing x1
        const long elem = task * blockDim.x + threadIdx.x;
        (void)elem;
        float v_add_7 = v_select_5_smem[threadIdx.x % 16] + v_x[elem];
        __syncthreads(); // arena reuse separator
        // reduce_mean.8: row-reduce <32,64>, 16 row(s)/block
        float v_reduce_mean_8 = 0.0f;
        for (long c = threadIdx.x; c < 64; c += blockDim.x) {
            float acc = v_reduce_mean_8, x = v_add_7;
            v_reduce_mean_8 = acc + x;
        }
        v_reduce_mean_8 = blockReduce(v_reduce_mean_8, smem); // tree reduce, 2 sync phases
        v_reduce_mean_8 /= 64.0f;
        float *v_reduce_mean_8_smem = smem + 1024; // regional buffer, planner slot, 16 floats/block
        v_reduce_mean_8_smem[threadIdx.x % 16] = v_reduce_mean_8;
        __syncthreads(); // regional boundary
    }

    // ---- group 0: dominant reduce_min.9, logical launch <<<2, 1024>>> ----
    for (long task = blockIdx.x; task < 2; task += gridDim.x) { // vertical packing x1
        const long elem = task * blockDim.x + threadIdx.x;
        (void)elem;
        // reduce_min.9: row-reduce <32,64>, 16 row(s)/block
        float v_reduce_min_9 = INFINITY;
        for (long c = threadIdx.x; c < 64; c += blockDim.x) {
            float acc = v_reduce_min_9, x = v_y[elem];
            v_reduce_min_9 = fminf(acc, x);
        }
        v_reduce_min_9 = blockReduce(v_reduce_min_9, smem); // tree reduce, 2 sync phases
        float *v_reduce_min_9_smem = smem + 1040; // regional buffer, planner slot, 16 floats/block
        v_reduce_min_9_smem[threadIdx.x % 16] = v_reduce_min_9;
        __syncthreads(); // regional boundary
    }
}

/**
 * @file
 * A reusable work-queue thread pool and a parallelFor helper.
 *
 * The JIT pipeline's per-cluster work (stitching, thread-mapping and
 * data-management planning, then sanitizer analysis) is embarrassingly
 * parallel — every cluster compiles independently of its neighbors.
 * parallelFor() fans that work out across pool workers plus the calling
 * thread, blocks the caller until every index has run, collects the
 * first exception (by index, so failures are deterministic under any
 * thread count) and rethrows it on the calling thread.
 *
 * parallelFor(int, ...) runs on one process-wide pool, created on first
 * use and grown to the largest helper count any call has asked for; its
 * workers live until the process exits. Concurrent calls share it, and
 * each call waits only for its own helpers that started.
 */
#ifndef ASTITCH_SUPPORT_THREAD_POOL_H
#define ASTITCH_SUPPORT_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace astitch {

/**
 * Resolve a requested thread count into an actual one:
 *   requested > 0  -> requested;
 *   requested == 0 -> $ASTITCH_COMPILE_THREADS when it is a positive
 *                     decimal integer (anything else warns, once per
 *                     distinct value per process),
 *                     else std::thread::hardware_concurrency().
 * The result is always >= 1.
 */
int resolveCompileThreads(int requested);

/** Worker pool draining a FIFO task queue; it grows, never shrinks. */
class ThreadPool
{
  public:
    /** Spawns max(1, num_threads) - 1 workers; the thread calling
     * parallelFor() always contributes as the remaining worker. */
    explicit ThreadPool(int num_threads);

    /** Joins all workers (pending tasks are drained first). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total concurrency including the caller's thread. */
    int numThreads() const
    {
        return num_threads_.load(std::memory_order_acquire);
    }

    /** Spawn workers until numThreads() >= @p num_threads. Safe to call
     * while other threads submit to the pool. */
    void growTo(int num_threads);

    /** Enqueue one task; runs on some worker eventually. */
    void submit(std::function<void()> task);

  private:
    void workerLoop();

    std::atomic<int> num_threads_{1};
    std::vector<std::thread> workers_; ///< guarded by mutex_

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> queue_;
    bool shutdown_ = false;
};

/**
 * Run body(i) for every i in [0, n), spread across at most
 * min(numThreads(), n) - 1 pool workers plus the calling thread;
 * returns when all indices finished. Exceptions thrown by the body are
 * captured per index and the lowest-index one is rethrown on the
 * caller — the same failure surfaces regardless of the pool size or
 * scheduling, keeping parallel compilation deterministic.
 */
void parallelFor(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &body);

/** The same on the process-wide pool, with at most @p num_threads
 * threads (the caller included) working on this call. A plain serial
 * loop when num_threads <= 1 or n <= 1. */
void parallelFor(int num_threads, std::size_t n,
                 const std::function<void(std::size_t)> &body);

} // namespace astitch

#endif // ASTITCH_SUPPORT_THREAD_POOL_H

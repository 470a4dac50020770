#include "support/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <string>

#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

int
resolveCompileThreads(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("ASTITCH_COMPILE_THREADS")) {
        // The whole value must be a positive decimal integer: a numeric
        // prefix ("7abc", "7.5") does not count.
        const char *end = env + std::strlen(env);
        int n = 0;
        const auto [stop, error] = std::from_chars(env, end, n);
        if (error == std::errc() && stop == end && n > 0)
            return n;
        // Every compile resolves its count, so a serve warm-up would
        // repeat the warning per bucket.
        static std::mutex mutex;
        static std::set<std::string> warned;
        const std::lock_guard<std::mutex> lock(mutex);
        if (warned.insert(env).second)
            warn("ignoring unparsable ASTITCH_COMPILE_THREADS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
{
    growTo(num_threads);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::growTo(int num_threads)
{
    if (numThreads() >= num_threads)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    while (static_cast<int>(workers_.size()) + 1 < num_threads) {
        workers_.emplace_back([this] { workerLoop(); });
        num_threads_.store(static_cast<int>(workers_.size()) + 1,
                           std::memory_order_release);
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        panicIf(shutdown_, "submit() on a shut-down thread pool");
        if (workers_.empty()) {
            // A pool of one has no workers — the caller is the pool.
            lock.unlock();
            task();
            return;
        }
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return shutdown_ || !queue_.empty(); });
            if (queue_.empty())
                return; // shutdown with a drained queue
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace {

/**
 * One pooled parallelFor call, shared with its helpers through a
 * shared_ptr. A helper registers before it claims an index. Once the
 * caller has claimed the last index it closes the call and waits for
 * the registered helpers only; a helper that starts after the close
 * leaves without touching the body, so it never reads the caller's
 * dead frame and concurrent calls never wait on each other's work.
 */
struct PooledCall
{
    PooledCall(std::size_t n, const std::function<void(std::size_t)> &body)
        : n(n), body(&body), errors(n)
    {
    }

    /** Claim and run one index; false once every index is claimed.
     * Tasks only touch their own slot of `errors`, so it needs no
     * lock. */
    bool runOne()
    {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            return false;
        try {
            // Pooled path only: the serial loops never pass here, so a
            // permanent "thread-pool-task" fault is recoverable by
            // recompiling with threads == 1.
            faultPoint("thread-pool-task");
            (*body)(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
        return true;
    }

    /** A helper's whole life: register unless closed, drain, leave. */
    void help()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (closed)
                return;
            ++running;
        }
        while (runOne()) {
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (--running == 0)
            helpers_left.notify_all();
    }

    /** Turn away helpers that have not started; wait for the rest. */
    void close()
    {
        std::unique_lock<std::mutex> lock(mutex);
        closed = true;
        helpers_left.wait(lock, [this] { return running == 0; });
    }

    const std::size_t n;
    /** The caller's body; read only while the call is open or by a
     * registered helper, both of which the caller outlives. */
    const std::function<void(std::size_t)> *body;
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors;

    std::mutex mutex;
    std::condition_variable helpers_left;
    bool closed = false;
    int running = 0;
};

/** parallelFor over @p helpers pool tasks plus the calling thread. */
void
runPooled(ThreadPool &pool, int helpers, std::size_t n,
          const std::function<void(std::size_t)> &body)
{
    // One claim-an-index task per helper instead of one task per index:
    // cluster counts reach 10^4 while queue slots stay O(threads).
    const auto call = std::make_shared<PooledCall>(n, body);
    try {
        for (int t = 0; t < helpers; ++t)
            pool.submit([call] { call->help(); });
    } catch (...) {
        call->close();
        throw;
    }
    // The caller claims indices too — it guarantees progress even if
    // every worker is busy with someone else's tasks.
    while (call->runOne()) {
    }
    // Every index is claimed; once the registered helpers have left,
    // every claimed body(i) has finished.
    call->close();

    // A late helper may drop the last reference to the call after this
    // returns; the exceptions are the caller's, so take them out first.
    std::vector<std::exception_ptr> errors;
    errors.swap(call->errors);
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

/** Helpers one call submits: at most min(threads, n) threads work on
 * it, the caller included. */
int
helpersFor(int threads, std::size_t n)
{
    return static_cast<int>(
               std::min(static_cast<std::size_t>(threads), n)) -
           1;
}

/**
 * The pool behind parallelFor(int, ...). Never destroyed: a caller that
 * runs during static destruction still finds its workers, and the
 * pointer keeps the pool reachable for leak checkers.
 */
ThreadPool &
sharedPool()
{
    static ThreadPool *const pool = new ThreadPool(1);
    return *pool;
}

} // namespace

void
parallelFor(ThreadPool &pool, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    const int threads = pool.numThreads();
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    runPooled(pool, helpersFor(threads, n), n, body);
}

void
parallelFor(int num_threads, std::size_t n,
            const std::function<void(std::size_t)> &body)
{
    if (num_threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    const int helpers = helpersFor(num_threads, n);
    ThreadPool &pool = sharedPool();
    pool.growTo(helpers + 1);
    runPooled(pool, helpers, n, body);
}

} // namespace astitch

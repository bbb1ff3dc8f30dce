/**
 * @file
 * A persistent worker-thread pool for the executable SMVP engine.
 *
 * The Quake inner loop runs thousands of timesteps, each dominated by
 * one SMVP (paper §2.2); spawning and joining std::threads per multiply
 * costs more than the multiply itself on small subdomains.  The pool is
 * created once per engine lifetime and reused: workers sleep on a
 * condition variable between multiplies, so the steady-state dispatch
 * cost is one wake/notify round trip instead of num_threads clone()s.
 *
 * WorkerPoolOptions optionally pins each worker to one CPU, so a
 * worker — and the pages it first-touches — stays on that CPU for the
 * pool's lifetime (DESIGN.md §13); pinning is advisory (failures
 * counted, never fatal).
 */

#ifndef QUAKE98_PARALLEL_WORKER_POOL_H_
#define QUAKE98_PARALLEL_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/collector.h"

namespace quake::parallel
{

/** Optional per-pool placement knobs (see WorkerPool ctor). */
struct WorkerPoolOptions
{
    /**
     * The CPU id worker t pins itself to: entry t, reused modulo size
     * when shorter; empty = no pinning.  Each worker pins itself before
     * its first dispatch, so every task runs post-pin.  Pinning is a
     * no-op for size-1 pools (work runs inline on the caller's thread,
     * which the pool must not hijack).
     */
    std::vector<int> workerCpus;
};

/**
 * A fixed-size pool of persistent worker threads executing fork/join
 * tasks.  run(fn) invokes fn(tid) once per worker (tid in [0, size()))
 * and blocks until every invocation returns — the same structure as
 * spawning size() threads, without the per-call thread creation.
 *
 * Tasks must not throw: an exception escaping a worker terminates the
 * process (as it would from a plain std::thread).  run() itself is not
 * reentrant — one fork/join at a time per pool.
 */
class WorkerPool
{
  public:
    /** @param num_threads Workers; 0 means hardwareThreads(). */
    explicit WorkerPool(int num_threads = 0);

    /** As above, with placement options (pinning). */
    WorkerPool(int num_threads, WorkerPoolOptions options);

    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Number of workers (>= 1). */
    int size() const { return size_; }

    /**
     * Execute fn(tid) for every tid in [0, size()); returns when all
     * invocations have finished.  With size() == 1 the call runs inline
     * on the caller's thread (no workers exist).
     */
    void run(const std::function<void(int)> &fn);

    /**
     * Usable concurrency: the number of CPUs in the process affinity
     * mask when the platform exposes it (container/cgroup cpusets
     * narrow it below the machine's core count), else
     * std::thread::hardware_concurrency; always >= 1.
     */
    static int hardwareThreads();

    /** Pin attempts made by this pool's workers (0 when unpinned). */
    std::int64_t pinAttempts() const
    {
        return pin_attempts_.load(std::memory_order_relaxed);
    }

    /** Pin attempts that failed (the advisory-fallback path). */
    std::int64_t pinFailures() const
    {
        return pin_failures_.load(std::memory_order_relaxed);
    }

    /**
     * Attach a telemetry collector (DESIGN.md §9): each run() records a
     * fork/join span + latency histogram on slot 0, and each worker
     * accumulates the nanoseconds it spent parked between dispatches
     * into Counter::kWorkerWaitNanos on slot 1 + tid.  Setup-time only
     * — must not be called while a run is in flight; pass nullptr to
     * detach.  Once setCollector(nullptr) returns, no worker touches
     * the old collector again (parked workers included), so it may be
     * destroyed before the pool; otherwise the collector must outlive
     * the pool.
     */
    void setCollector(telemetry::Collector *collector);

  private:
    void workerLoop(int tid);

    /** The un-instrumented dispatch body of run(). */
    void dispatch(const std::function<void(int)> &fn);

    telemetry::Collector *tele_ = nullptr;

    int size_ = 1;
    WorkerPoolOptions options_;
    std::atomic<std::int64_t> pin_attempts_{0};
    std::atomic<std::int64_t> pin_failures_{0};
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    const std::function<void(int)> *task_ = nullptr;
    std::uint64_t epoch_ = 0; ///< bumped once per run(); workers track it
    int remaining_ = 0;       ///< workers still inside the current task
    bool stop_ = false;
};

/**
 * CPU ids the process may run on (sched_getaffinity), ascending.  Falls
 * back to [0, hardware_concurrency) where the syscall is unavailable.
 */
std::vector<int> affinityCpus();

} // namespace quake::parallel

#endif // QUAKE98_PARALLEL_WORKER_POOL_H_

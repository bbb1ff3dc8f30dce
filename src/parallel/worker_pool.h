/**
 * @file
 * A persistent worker-thread pool for the executable SMVP engine.
 *
 * The Quake inner loop runs thousands of timesteps, each dominated by
 * one SMVP (paper §2.2); spawning and joining std::threads per multiply
 * costs more than the multiply itself on small subdomains.  The pool is
 * created once per engine lifetime and reused.  The thread that calls
 * run() is worker 0: it computes its share instead of sleeping, so a
 * pool of n workers starts n − 1 threads.  Both waits — a pool thread
 * waiting for the next run, the caller waiting at the join — spin for
 * kSpinBudget before they park on a condition variable, so a run
 * whose waits end within the budget puts no wake-up on its critical
 * path (DESIGN.md §7).  The pool places no thread: the scheduler runs
 * its threads anywhere in the process affinity mask (DESIGN.md §13).
 */

#ifndef QUAKE98_PARALLEL_WORKER_POOL_H_
#define QUAKE98_PARALLEL_WORKER_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/collector.h"

namespace quake::parallel
{

/**
 * A fixed-size pool of workers executing fork/join tasks.  run(fn)
 * invokes fn(tid) once per worker (tid in [0, size())) and blocks until
 * every invocation returns — the same structure as spawning size()
 * threads, without the per-call thread creation.  fn(0) runs on the
 * calling thread, fn(1..size()−1) on the pool's persistent threads.
 *
 * Tasks must not throw: an exception escaping any tid terminates the
 * process (as it would from a plain std::thread).  run() itself is not
 * reentrant — one fork/join at a time per pool.
 */
class WorkerPool
{
  public:
    /**
     * How long a wait spins before it parks: a fifth of an 8-PE sf10
     * step, so the waits of a stepping engine end while spinning, and
     * an idle pool stops burning its CPUs within 50 µs.  No wait spins
     * when the process affinity mask holds one CPU: the spinner would
     * only delay the thread it waits for.
     */
    static constexpr std::chrono::microseconds kSpinBudget{50};

    /** @param num_threads Workers; 0 means hardwareThreads(). */
    explicit WorkerPool(int num_threads = 0);

    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Number of workers (>= 1), the calling thread included. */
    int size() const { return size_; }

    /**
     * Execute fn(tid) for every tid in [0, size()); returns when all
     * invocations have finished.  fn(0) runs on the caller's thread.
     */
    void run(const std::function<void(int)> &fn);

    /**
     * Usable concurrency: the number of CPUs in the process affinity
     * mask when the platform exposes it (container/cgroup cpusets
     * narrow it below the machine's core count), else
     * std::thread::hardware_concurrency; always >= 1.
     */
    static int hardwareThreads();

    /**
     * Attach a telemetry collector (DESIGN.md §9): each run() records a
     * fork/join span + latency histogram on slot 0; worker tid adds the
     * nanoseconds it waited into Counter::kWorkerWaitNanos and each of
     * its parks into Counter::kPoolParks on slot 1 + tid.  For a pool
     * thread the wait runs from the end of one task to the start of the
     * next; for worker 0 it is the join wait.  Setup-time only — must
     * not be called while a run is in flight; pass nullptr to detach.
     * Pool threads touch the collector only inside a run, so once
     * setCollector(nullptr) returns no spinning or parked thread touches
     * the old collector again, and it may be destroyed before the pool;
     * otherwise the collector must outlive the pool.
     */
    void setCollector(telemetry::Collector *collector);

  private:
    void workerLoop(int tid);

    /** The dispatch body of run(); records worker 0's join wait. */
    void dispatch(const std::function<void(int)> &fn,
                  telemetry::Collector *tele);

    /** The attached collector when enabled, else nullptr. */
    telemetry::Collector *attached() const
    {
        return tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
    }

    telemetry::Collector *tele_ = nullptr;

    int size_ = 1;
    bool spin_ = false; ///< waits spin before parking (> 1 CPU)
    std::vector<std::thread> threads_; ///< workers 1 .. size() − 1

    /**
     * The task of the current run; nullptr in the epoch ~WorkerPool
     * publishes tells pool threads to exit.  Written before epoch_ is
     * bumped, read by a pool thread after it sees the bump.
     */
    const std::function<void(int)> *task_ = nullptr;
    std::atomic<std::uint64_t> epoch_{0}; ///< bumped once per run()
    std::atomic<int> remaining_{0}; ///< pool threads still in the task

    /** Guards the park/notify handshakes below (and epoch_ bumps). */
    std::mutex mu_;
    std::condition_variable cv_start_; ///< parked pool threads
    std::condition_variable cv_done_;  ///< the parked caller
    int sleepers_ = 0;          ///< pool threads parked on cv_start_
    bool caller_parked_ = false; ///< the caller is parked on cv_done_
};

} // namespace quake::parallel

#endif // QUAKE98_PARALLEL_WORKER_POOL_H_

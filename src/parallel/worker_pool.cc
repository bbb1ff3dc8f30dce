#include "parallel/worker_pool.h"

#include <algorithm>

#include "common/error.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace quake::parallel
{

namespace
{

/** Spin iterations between two clock reads of spinUntil. */
constexpr int kClockStride = 64;

/** Tell the CPU this is a spin-wait loop (frees the sibling thread). */
inline void
cpuPause()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Poll ready() for up to WorkerPool::kSpinBudget; true once it holds,
 * false when the budget ran out (or `spin` is off) and it still does
 * not — the caller then parks.
 */
template <class Ready>
bool
spinUntil(bool spin, const Ready &ready)
{
    if (ready())
        return true;
    if (!spin)
        return false;
    const auto deadline =
        std::chrono::steady_clock::now() + WorkerPool::kSpinBudget;
    for (int i = 1;; ++i) {
        cpuPause();
        if (ready())
            return true;
        if (i % kClockStride == 0 &&
            std::chrono::steady_clock::now() >= deadline)
            return false;
    }
}

/**
 * Run worker 0's share on the calling thread.  noexcept: an exception
 * terminates the process, as it does on a pool thread, so no pool
 * thread is ever left running a task whose run() has unwound.
 */
void
runOnCaller(const std::function<void(int)> &fn) noexcept
{
    fn(0);
}

/**
 * Pin the calling thread to CPU `cpu` (pthread_setaffinity_np).
 * Returns false — without side effects — on failure, an id outside
 * the cpu_set_t, or platforms without the call.
 */
bool
pinCurrentThreadToCpu(int cpu)
{
#if defined(__linux__)
    if (cpu < 0 || cpu >= CPU_SETSIZE)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    (void)cpu;
    return false;
#endif
}

} // namespace

std::vector<int>
affinityCpus()
{
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        std::vector<int> cpus;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        if (!cpus.empty())
            return cpus;
    }
#endif
    const int n = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<int> cpus(static_cast<std::size_t>(n));
    for (int c = 0; c < n; ++c)
        cpus[static_cast<std::size_t>(c)] = c;
    return cpus;
}

int
WorkerPool::hardwareThreads()
{
    // affinityCpus() honors sched_getaffinity where available, so a
    // container restricted to 4 of 64 cores gets 4 workers instead of
    // oversubscribing 64 onto 4; it already falls back to
    // hardware_concurrency (clamped to >= 1) elsewhere.
    return static_cast<int>(affinityCpus().size());
}

WorkerPool::WorkerPool(int num_threads)
    : WorkerPool(num_threads, WorkerPoolOptions{})
{
}

WorkerPool::WorkerPool(int num_threads, WorkerPoolOptions options)
    : options_(std::move(options))
{
    QUAKE_EXPECT(num_threads >= 0, "thread count must be nonnegative");
    const int cpus = hardwareThreads();
    size_ = num_threads > 0 ? num_threads : cpus;
    spin_ = cpus > 1;
    threads_.reserve(static_cast<std::size_t>(size_ - 1));
    for (int t = 1; t < size_; ++t)
        threads_.emplace_back(&WorkerPool::workerLoop, this, t);
}

WorkerPool::~WorkerPool()
{
    // Publish an epoch with no task: every pool thread, spinning or
    // parked, sees it and exits.
    {
        std::lock_guard<std::mutex> lock(mu_);
        task_ = nullptr;
        epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_start_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::setCollector(telemetry::Collector *collector)
{
    // No lock: pool threads read tele_ only inside a run, which this
    // call must not overlap; the next run's epoch bump publishes it.
    if (collector != nullptr)
        collector->ensureSlots(1 + size_);
    tele_ = collector;
}

void
WorkerPool::workerLoop(int tid)
{
    // Self-pin before the first wait: any task this worker ever runs
    // (and any page it first-touches) executes post-pin.  Advisory —
    // a failure is counted and the worker keeps running unpinned.
    if (!options_.workerCpus.empty()) {
        pin_attempts_.fetch_add(1, std::memory_order_relaxed);
        if (!pinCurrentThreadToCpu(
                options_.workerCpus[static_cast<std::size_t>(tid) %
                                    options_.workerCpus.size()]))
            pin_failures_.fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t seen = 0;
    // The collector of the last run served and when its task ended:
    // the wait since is recorded only if the same collector is still
    // attached at the next run, and only from inside that run.
    telemetry::Collector *last = nullptr;
    std::uint64_t wait0 = 0;
    const auto started = [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
    };
    for (;;) {
        bool parked = false;
        if (!spinUntil(spin_, started)) {
            std::unique_lock<std::mutex> lock(mu_);
            ++sleepers_;
            cv_start_.wait(lock, started);
            --sleepers_;
            parked = true;
        }
        ++seen; // each run waits for every worker, so epochs never skip
        const std::function<void(int)> *task = task_;
        if (task == nullptr)
            return;
        telemetry::Collector *tele = attached();
        if (tele != nullptr && tele == last) {
            tele->add(1 + tid, telemetry::Counter::kWorkerWaitNanos,
                      tele->now() - wait0);
            if (parked)
                tele->add(1 + tid, telemetry::Counter::kPoolParks, 1);
        }
        (*task)(tid);
        last = tele;
        wait0 = tele != nullptr ? tele->now() : 0;
        if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // The last one out wakes the caller only if it parked.
            bool wake;
            {
                std::lock_guard<std::mutex> lock(mu_);
                wake = caller_parked_;
            }
            if (wake)
                cv_done_.notify_one();
        }
    }
}

void
WorkerPool::dispatch(const std::function<void(int)> &fn,
                     telemetry::Collector *tele)
{
    task_ = &fn;
    remaining_.store(size_ - 1, std::memory_order_relaxed);
    bool wake;
    {
        // Bumped under the mutex a parking thread checks it under, so
        // no park misses a run; notify only threads that did park.
        std::lock_guard<std::mutex> lock(mu_);
        epoch_.fetch_add(1, std::memory_order_release);
        wake = sleepers_ > 0;
    }
    if (wake)
        cv_start_.notify_all();

    runOnCaller(fn);

    // Worker 0's join wait; a join with nothing left to wait for (as
    // in a pool of one) reads no clock.
    const auto done = [this] {
        return remaining_.load(std::memory_order_acquire) == 0;
    };
    if (done())
        return;
    const std::uint64_t wait0 = tele != nullptr ? tele->now() : 0;
    bool parked = false;
    if (!spinUntil(spin_, done)) {
        std::unique_lock<std::mutex> lock(mu_);
        caller_parked_ = true;
        cv_done_.wait(lock, done);
        caller_parked_ = false;
        parked = true;
    }
    if (tele != nullptr) {
        tele->add(1, telemetry::Counter::kWorkerWaitNanos,
                  tele->now() - wait0);
        if (parked)
            tele->add(1, telemetry::Counter::kPoolParks, 1);
    }
}

void
WorkerPool::run(const std::function<void(int)> &fn)
{
    telemetry::Collector *tele = attached();
    if (tele == nullptr) {
        dispatch(fn, nullptr);
        return;
    }
    const std::uint64_t t0 = tele->now();
    dispatch(fn, tele);
    const std::uint64_t t1 = tele->now();
    tele->add(0, telemetry::Counter::kPoolRuns, 1);
    tele->observe(0, telemetry::Hist::kForkJoinNanos, t1 - t0);
    if (tele->sampledStep())
        tele->recordSpan(0, telemetry::Span::kForkJoin, -1, t0, t1);
}

} // namespace quake::parallel

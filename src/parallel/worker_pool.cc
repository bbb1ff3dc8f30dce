#include "parallel/worker_pool.h"

#include <algorithm>

#include "common/error.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace quake::parallel
{

namespace
{

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
    size_ = num_threads > 0 ? num_threads : hardwareThreads();
    if (size_ == 1)
        return; // run() executes inline; no workers needed
    threads_.reserve(static_cast<std::size_t>(size_));
    for (int t = 0; t < size_; ++t)
        threads_.emplace_back(&WorkerPool::workerLoop, this, t);
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_start_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
WorkerPool::setCollector(telemetry::Collector *collector)
{
    std::lock_guard<std::mutex> lock(mu_);
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
    for (;;) {
        const std::function<void(int)> *task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            // Time parked between dispatches (wake latency + idle),
            // recorded as kWorkerWaitNanos.  tele_ is read under the
            // mutex setCollector takes, before the wait and again after
            // waking: the wait is recorded only if the same collector is
            // still attached, so a worker parked across a detach (and
            // woken by ~WorkerPool) never touches the old collector.
            telemetry::Collector *tele =
                tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
            const std::uint64_t wait0 =
                tele != nullptr ? tele->now() : 0;
            cv_start_.wait(lock,
                           [&] { return stop_ || epoch_ != seen; });
            if (tele != nullptr && tele == tele_)
                tele->add(1 + tid,
                          telemetry::Counter::kWorkerWaitNanos,
                          tele->now() - wait0);
            if (stop_)
                return;
            seen = epoch_;
            task = task_;
        }
        (*task)(tid);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--remaining_ == 0)
                cv_done_.notify_all();
        }
    }
}

void
WorkerPool::dispatch(const std::function<void(int)> &fn)
{
    if (size_ == 1) {
        fn(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        task_ = &fn;
        remaining_ = size_;
        ++epoch_;
    }
    cv_start_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
    task_ = nullptr;
}

void
WorkerPool::run(const std::function<void(int)> &fn)
{
    telemetry::Collector *tele =
        tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
    if (tele == nullptr) {
        dispatch(fn);
        return;
    }
    const std::uint64_t t0 = tele->now();
    dispatch(fn);
    const std::uint64_t t1 = tele->now();
    tele->add(0, telemetry::Counter::kPoolRuns, 1);
    tele->observe(0, telemetry::Hist::kForkJoinNanos, t1 - t0);
    if (tele->sampledStep())
        tele->recordSpan(0, telemetry::Span::kForkJoin, -1, t0, t1);
}

} // namespace quake::parallel

/**
 * @file
 * Tests for the persistent worker pool: every tid runs exactly once per
 * fork/join, tid 0 on the caller's thread and every other tid on a
 * pool thread of its own, the pool is reusable across many epochs (the
 * engine runs thousands of timesteps against one pool) whether its
 * waits end spinning or parked, hardwareThreads() respects the
 * process affinity mask, advisory one-CPU-per-pool-thread pinning
 * counts failures instead of aborting (DESIGN.md §13), and no worker
 * touches a collector after it is detached.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "parallel/worker_pool.h"
#include "telemetry/collector.h"

namespace
{

using quake::parallel::WorkerPool;

TEST(WorkerPool, RunsEveryTidExactlyOnce)
{
    WorkerPool pool(4);
    ASSERT_EQ(pool.size(), 4);
    std::vector<std::atomic<int>> hits(4);
    for (auto &h : hits)
        h.store(0);
    pool.run([&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, ReusableAcrossManyEpochs)
{
    WorkerPool pool(3);
    std::atomic<int> total{0};
    for (int epoch = 0; epoch < 100; ++epoch)
        pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 300);
}

TEST(WorkerPool, SizeOneRunsInlineOnCallerThread)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id seen;
    pool.run([&](int tid) {
        EXPECT_EQ(tid, 0);
        seen = std::this_thread::get_id();
    });
    EXPECT_EQ(seen, caller);
}

TEST(WorkerPool, CallerRunsTidZeroAndEachOtherTidHasItsOwnThread)
{
    const std::thread::id caller = std::this_thread::get_id();
    for (int n = 1; n <= 4; ++n) {
        WorkerPool pool(n);
        std::vector<std::thread::id> ran(static_cast<std::size_t>(n));
        for (int round = 0; round < 3; ++round) {
            pool.run([&](int tid) {
                ran[static_cast<std::size_t>(tid)] =
                    std::this_thread::get_id();
            });
            EXPECT_EQ(ran[0], caller) << "size " << n;
            const std::set<std::thread::id> distinct(ran.begin(),
                                                     ran.end());
            EXPECT_EQ(distinct.size(), ran.size()) << "size " << n;
        }
    }
}

TEST(WorkerPool, SpinAndParkEdgesKeepEveryRunWhole)
{
    // Sleeping 0–2x the spin budget between runs ends the pool's waits
    // on both sides of the spin/park edge.  Every tid must still run
    // exactly once per run, and the join must stay a barrier: the plain
    // writes below are read after run() returns (ThreadSanitizer checks
    // the ordering, the values check the count).
    constexpr int kSize = 4;
    constexpr int kEpochs = 2000;
    const auto budget_us = static_cast<int>(WorkerPool::kSpinBudget.count());
    std::mt19937 rng(0x5eed);
    std::uniform_int_distribution<int> pause_us(0, 2 * budget_us);

    WorkerPool pool(kSize);
    std::vector<int> runs(kSize, 0), last(kSize, -1);
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
        pool.run([&](int tid) {
            ++runs[static_cast<std::size_t>(tid)];
            last[static_cast<std::size_t>(tid)] = epoch;
        });
        for (int t = 0; t < kSize; ++t) {
            ASSERT_EQ(runs[static_cast<std::size_t>(t)], epoch + 1);
            ASSERT_EQ(last[static_cast<std::size_t>(t)], epoch);
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(pause_us(rng)));
    }

    // Idle far past the budget: every pool thread parks, and the run
    // that wakes it counts the park on its slot (1 + tid).
    quake::telemetry::Collector collector;
    pool.setCollector(&collector);
    pool.run([](int) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.run([](int) {});
    pool.setCollector(nullptr);
    for (int tid = 1; tid < kSize; ++tid)
        EXPECT_GE(collector.slot(1 + tid).counters[static_cast<std::size_t>(
                      quake::telemetry::Counter::kPoolParks)],
                  1u)
            << "tid " << tid;
}

TEST(WorkerPool, DefaultSizeIsPositive)
{
    WorkerPool pool;
    EXPECT_GE(pool.size(), 1);
    EXPECT_GE(WorkerPool::hardwareThreads(), 1);
}

TEST(WorkerPool, AffinityCpusNonEmptyAscending)
{
    const std::vector<int> cpus = quake::parallel::affinityCpus();
    ASSERT_GE(cpus.size(), 1u);
    for (std::size_t i = 1; i < cpus.size(); ++i)
        EXPECT_LT(cpus[i - 1], cpus[i]);
}

TEST(WorkerPool, HardwareThreadsMatchesAffinityMask)
{
    // hardwareThreads() must report usable concurrency — the CPUs the
    // scheduler will actually grant — not the machine's core count.
    const std::vector<int> cpus = quake::parallel::affinityCpus();
    ASSERT_GE(cpus.size(), 1u);
    EXPECT_EQ(WorkerPool::hardwareThreads(),
              static_cast<int>(cpus.size()));
}

#ifdef __linux__
TEST(WorkerPool, HardwareThreadsRespectsNarrowedMask)
{
    // Regression for the seed's hardware_concurrency() fallback, which
    // over-reported inside cpuset-restricted containers: narrow this
    // thread's affinity to one CPU and hardwareThreads() must follow.
    cpu_set_t original;
    CPU_ZERO(&original);
    ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);

    const std::vector<int> cpus = quake::parallel::affinityCpus();
    ASSERT_GE(cpus.size(), 1u);
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    CPU_SET(static_cast<std::size_t>(cpus[0]), &narrow);
    ASSERT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);

    EXPECT_EQ(WorkerPool::hardwareThreads(), 1);
    EXPECT_EQ(quake::parallel::affinityCpus(),
              std::vector<int>{cpus[0]});

    ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
    EXPECT_EQ(WorkerPool::hardwareThreads(),
              static_cast<int>(cpus.size()));
}
#endif

TEST(WorkerPool, PinnedWorkersCountAttemptsAndSucceedOnRealCpus)
{
    // Pin the pool thread to a CPU the process is allowed on: the
    // attempt must stick, and the pool must work exactly as unpinned.
    // Worker 0 is the caller's thread and is never pinned.
    const std::vector<int> cpus = quake::parallel::affinityCpus();
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {cpus[0]}; // reused modulo size for tid 1
    WorkerPool pool(2, opts);
    std::atomic<int> total{0};
    pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 2);
    EXPECT_EQ(pool.pinAttempts(), 1);
    EXPECT_EQ(pool.pinFailures(), 0);
}

TEST(WorkerPool, BogusPinFailsGracefullyAndStillRuns)
{
    // A CPU id far beyond any real machine: the pin must fail, be
    // counted, and leave the pool fully functional (advisory only).
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {1 << 20};
    WorkerPool pool(2, opts);
    std::atomic<int> total{0};
    for (int epoch = 0; epoch < 10; ++epoch)
        pool.run([&](int) { total++; });
    EXPECT_EQ(total.load(), 20);
    EXPECT_EQ(pool.pinAttempts(), 1); // tid 1; the caller never pins
    EXPECT_EQ(pool.pinFailures(), 1);
}

TEST(WorkerPool, SizeOnePoolIgnoresPinning)
{
    // A size-1 pool is the caller's thread alone, which the pool must
    // not re-pin out from under the caller.
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {0};
    WorkerPool pool(1, opts);
    std::atomic<int> total{0};
    pool.run([&](int tid) {
        EXPECT_EQ(tid, 0);
        total++;
    });
    EXPECT_EQ(total.load(), 1);
    EXPECT_EQ(pool.pinAttempts(), 0);
}

TEST(WorkerPool, PinnedPoolDestructsCleanly)
{
    // Construction joins no dispatch, so destruction must work whether
    // or not the pool ever ran — including with failed pins pending.
    quake::parallel::WorkerPoolOptions opts;
    opts.workerCpus = {1 << 20, 0};
    {
        WorkerPool unused(3, opts);
    }
    {
        WorkerPool used(3, opts);
        std::atomic<int> total{0};
        used.run([&](int) { total++; });
        EXPECT_EQ(total.load(), 3);
    }
}

TEST(WorkerPool, DetachedCollectorIsNeverTouchedAgain)
{
    // Pool threads spin and then park between dispatches, and
    // ~WorkerPool wakes them to stop.  A thread parked while the
    // collector was attached must not record its final wait into that
    // collector once setCollector(nullptr) has returned: the caller may
    // already have destroyed it.
    quake::telemetry::Collector collector;
    auto pool = std::make_unique<WorkerPool>(2);
    pool->setCollector(&collector);
    pool->run([](int) {});
    // Let the pool thread park again with the collector still attached.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool->setCollector(nullptr);

    const std::uint64_t waited = collector.counterTotal(
        quake::telemetry::Counter::kWorkerWaitNanos);
    pool.reset();
    EXPECT_EQ(collector.counterTotal(
                  quake::telemetry::Counter::kWorkerWaitNanos),
              waited);
}

TEST(WorkerPool, JoinIsABarrier)
{
    // After run() returns, all side effects of all workers are visible.
    WorkerPool pool(4);
    std::vector<int> slots(4, 0);
    for (int round = 1; round <= 10; ++round) {
        pool.run([&](int tid) {
            slots[static_cast<std::size_t>(tid)] = round;
        });
        for (int v : slots)
            EXPECT_EQ(v, round);
    }
}

} // namespace

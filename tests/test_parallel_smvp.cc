/**
 * @file
 * Tests for the executable parallel SMVP: exact agreement with the
 * sequential global product across part counts and thread counts,
 * bitwise determinism, input validation, and pinned engines (one CPU
 * per worker, DESIGN.md §13): advisory pins that fail open, one pin
 * per worker, collector detach, and clean teardown.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "common/error.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "parallel/parallel_smvp.h"
#include "partition/baselines.h"
#include "partition/geometric_bisection.h"
#include "sparse/assembly.h"
#include "telemetry/collector.h"

namespace
{

using namespace quake::parallel;
using namespace quake::mesh;
using namespace quake::partition;

struct SmvpFixtureData
{
    TetMesh mesh;
    UniformModel model{Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0};
    quake::sparse::Bcsr3Matrix global_k;
    std::vector<double> x;

    explicit SmvpFixtureData(int lattice_n = 4)
        : mesh(buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, lattice_n,
                                lattice_n, lattice_n)),
          global_k(quake::sparse::assembleStiffness(mesh, model))
    {
        x.resize(static_cast<std::size_t>(global_k.numRows()));
        quake::common::SplitMix64 rng(31337);
        for (double &v : x)
            v = rng.uniform(-1, 1);
    }
};

class ParallelSmvpParts : public ::testing::TestWithParam<int>
{};

TEST_P(ParallelSmvpParts, MatchesSequentialProduct)
{
    SmvpFixtureData s;
    const GeometricBisection partitioner;
    const DistributedProblem problem = distribute(
        s.mesh, s.model, partitioner.partition(s.mesh, GetParam()));
    const ParallelSmvp psmvp(problem);

    const std::vector<double> y_par = psmvp.multiply(s.x);
    const std::vector<double> y_seq = s.global_k.multiply(s.x);
    ASSERT_EQ(y_par.size(), y_seq.size());
    for (std::size_t i = 0; i < y_seq.size(); ++i)
        EXPECT_NEAR(y_par[i], y_seq[i],
                    1e-10 * (1.0 + std::fabs(y_seq[i])))
            << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, ParallelSmvpParts,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16));

TEST(ParallelSmvp, BitwiseDeterministicAcrossThreadCounts)
{
    SmvpFixtureData s;
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 8));

    const std::vector<double> y1 = ParallelSmvp(problem, 1).multiply(s.x);
    const std::vector<double> y2 = ParallelSmvp(problem, 2).multiply(s.x);
    const std::vector<double> y4 = ParallelSmvp(problem, 4).multiply(s.x);
    EXPECT_EQ(y1, y2);
    EXPECT_EQ(y1, y4);
}

TEST(ParallelSmvp, OverlappedBitwiseEqualsBarrier)
{
    // The tentpole determinism guarantee: publishing message buffers
    // early and overlapping interior compute must not change a single
    // bit of the result, for any thread count.
    SmvpFixtureData s;
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 8));

    const ParallelSmvp barrier(problem, 1, ExchangeMode::kBarrier);
    const std::vector<double> y_ref = barrier.multiply(s.x);
    for (int threads : {1, 2, 3, 4, 8}) {
        const ParallelSmvp overlapped(problem, threads,
                                      ExchangeMode::kOverlapped);
        EXPECT_EQ(overlapped.multiply(s.x), y_ref)
            << threads << " threads";
        const ParallelSmvp barrier_t(problem, threads,
                                     ExchangeMode::kBarrier);
        EXPECT_EQ(barrier_t.multiply(s.x), y_ref)
            << threads << " threads (barrier)";
    }
}

TEST(ParallelSmvp, ModeAndThreadAccessors)
{
    SmvpFixtureData s(2);
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 4));
    const ParallelSmvp engine(problem, 2);
    EXPECT_EQ(engine.mode(), ExchangeMode::kOverlapped);
    EXPECT_EQ(engine.numThreads(), 2);
    const ParallelSmvp barrier(problem, 2, ExchangeMode::kBarrier);
    EXPECT_EQ(barrier.mode(), ExchangeMode::kBarrier);
}

TEST(ParallelSmvp, EnginePersistsAcrossManyMultiplies)
{
    // The engine is built for the timestep loop: one pool, reused.
    // Alternate inputs so stale scratch or a stale publish flag from a
    // previous epoch would be caught immediately.
    SmvpFixtureData s(3);
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 6));
    const ParallelSmvp engine(problem, 3);

    std::vector<double> x2(s.x.size());
    for (std::size_t i = 0; i < x2.size(); ++i)
        x2[i] = -2.0 * s.x[i];
    const std::vector<double> y1 = engine.multiply(s.x);
    const std::vector<double> y2 = engine.multiply(x2);
    for (int round = 0; round < 50; ++round) {
        EXPECT_EQ(engine.multiply(s.x), y1) << "round " << round;
        EXPECT_EQ(engine.multiply(x2), y2) << "round " << round;
    }
}

TEST(ParallelSmvp, RepeatedCallsIdentical)
{
    SmvpFixtureData s;
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 4));
    const ParallelSmvp psmvp(problem);
    EXPECT_EQ(psmvp.multiply(s.x), psmvp.multiply(s.x));
}

TEST(ParallelSmvp, WorksWithRandomPartition)
{
    // Even a locality-free partition must compute the right answer —
    // the schedule, not the geometry, carries correctness.
    SmvpFixtureData s(3);
    const RandomPartitioner partitioner(5);
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 6));
    const ParallelSmvp psmvp(problem);
    const std::vector<double> y_par = psmvp.multiply(s.x);
    const std::vector<double> y_seq = s.global_k.multiply(s.x);
    for (std::size_t i = 0; i < y_seq.size(); ++i)
        EXPECT_NEAR(y_par[i], y_seq[i],
                    1e-10 * (1.0 + std::fabs(y_seq[i])));
}

TEST(ParallelSmvp, ThreadCountClampedToParts)
{
    SmvpFixtureData s(2);
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 2));
    const ParallelSmvp psmvp(problem, 16);
    EXPECT_EQ(psmvp.numThreads(), 2);
}

TEST(ParallelSmvp, RejectsWrongVectorSize)
{
    SmvpFixtureData s(2);
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 2));
    const ParallelSmvp psmvp(problem);
    EXPECT_THROW(psmvp.multiply(std::vector<double>(5, 0.0)),
                 quake::common::FatalError);
}

TEST(ParallelSmvp, RejectsPatternOnlyProblem)
{
    SmvpFixtureData s(2);
    const GeometricBisection partitioner;
    const DistributedProblem topo =
        distributeTopology(s.mesh, partitioner.partition(s.mesh, 2));
    EXPECT_THROW(ParallelSmvp{topo}, quake::common::FatalError);
}

TEST(ParallelSmvp, ZeroInputGivesZeroOutput)
{
    SmvpFixtureData s(2);
    const GeometricBisection partitioner;
    const DistributedProblem problem =
        distribute(s.mesh, s.model, partitioner.partition(s.mesh, 4));
    const ParallelSmvp psmvp(problem);
    const std::vector<double> y = psmvp.multiply(
        std::vector<double>(static_cast<std::size_t>(
                                3 * s.mesh.numNodes()),
                            0.0));
    for (double v : y)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

// ------------------------------------------------------ pinned engines

/** The 8-PE problem of the default fixture lattice. */
DistributedProblem
eightPeProblem(const SmvpFixtureData &s)
{
    return distribute(s.mesh, s.model,
                      GeometricBisection().partition(s.mesh, 8));
}

/** Worker pins to a CPU id no machine has: every pin fails. */
const std::vector<int> kBogusCpus = {1 << 20};

TEST(PinnedEngine, BogusPinFailsOpenAndStaysBitwise)
{
    SmvpFixtureData s;
    const DistributedProblem problem = eightPeProblem(s);
    const std::vector<double> y_ref =
        ParallelSmvp(problem, 1).multiply(s.x);

    const ParallelSmvp engine(problem, 4, ExchangeMode::kOverlapped,
                              SmvpKernelBackend::kBcsr3, kBogusCpus);
    EXPECT_GT(engine.pinFailures(), 0);
    EXPECT_EQ(engine.multiply(s.x), y_ref);
}

TEST(PinnedEngine, OnePoolPinsEachWorkerOnce)
{
    // 4 workers of one pool: the caller runs worker 0 unpinned, and
    // each of the 3 pool threads pins itself once — 3 attempts, all
    // failing on a CPU id that cannot exist; no extra threads, no
    // extra pins.
    SmvpFixtureData s;
    const DistributedProblem problem = eightPeProblem(s);
    const ParallelSmvp engine(problem, 4, ExchangeMode::kOverlapped,
                              SmvpKernelBackend::kBcsr3, kBogusCpus);
    EXPECT_EQ(engine.numThreads(), 4);
    EXPECT_EQ(engine.workerPool().size(), 4);
    EXPECT_EQ(engine.workerPool().pinAttempts(), 3);
    EXPECT_EQ(engine.pinFailures(), 3);
}

TEST(PinnedEngine, DetachedCollectorIsNeverTouchedAgain)
{
    // setCollector(nullptr) must reach every pinned worker: once it
    // returns, tearing the engine down — which wakes every parked
    // worker — records nothing more.
    namespace telemetry = quake::telemetry;
    SmvpFixtureData s;
    const DistributedProblem problem = eightPeProblem(s);
    const std::size_t n = s.x.size();
    std::vector<double> up(n, 0.0), inv_mass(n, 1.0), force(n, 0.0);
    quake::sparse::StepUpdate su;
    su.u = s.x.data();
    su.up = up.data();
    su.f = force.data();
    su.invMass = inv_mass.data();
    su.dt = 1e-3;
    su.dt2 = su.dt * su.dt;

    telemetry::Collector collector;
    auto engine = std::make_unique<ParallelSmvp>(
        problem, 4, ExchangeMode::kOverlapped, SmvpKernelBackend::kBcsr3,
        affinityCpus());
    ASSERT_EQ(engine->numThreads(), 4);
    engine->setCollector(&collector);
    engine->stepFused(su);
    // Let every worker park again with the collector still attached.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine->setCollector(nullptr);

    const auto totals = [&collector] {
        std::vector<std::uint64_t> t;
        for (int c = 0; c < static_cast<int>(telemetry::Counter::kCount);
             ++c)
            t.push_back(collector.counterTotal(
                static_cast<telemetry::Counter>(c)));
        return t;
    };
    const std::vector<std::uint64_t> detached = totals();
    EXPECT_EQ(detached[static_cast<std::size_t>(
                  telemetry::Counter::kSmvpCalls)],
              1u);
    engine.reset();
    EXPECT_EQ(totals(), detached);
}

TEST(PinnedEngine, DestructsCleanlyAfterUse)
{
    SmvpFixtureData s;
    const DistributedProblem problem = distribute(
        s.mesh, s.model, GeometricBisection().partition(s.mesh, 4));
    std::vector<double> y_first;
    {
        const ParallelSmvp engine(problem, 4, ExchangeMode::kOverlapped,
                                  SmvpKernelBackend::kBcsr3,
                                  affinityCpus());
        y_first = engine.multiply(s.x);
        // Destruction with pinned workers parked mid-epoch must join
        // every worker without hanging.
    }
    EXPECT_EQ(y_first, ParallelSmvp(problem, 1).multiply(s.x));
}

} // namespace

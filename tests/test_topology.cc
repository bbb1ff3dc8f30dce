/**
 * @file
 * Tests for the two-level execution topology (DESIGN.md §13): cpulist
 * parsing, spec parsing/validation/detection, the engine's topology
 * normalization (shard clamping, thread capping), and the bitwise
 * hierarchical == flat contract across shard counts, exchange modes,
 * the fused step, and advisory pin failures; that every topology runs
 * on one pool of shards x threads workers; and that a collector detach
 * reaches every worker.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mesh/generator.h"
#include "parallel/parallel_smvp.h"
#include "parallel/topology.h"
#include "partition/geometric_bisection.h"
#include "sparse/assembly.h"
#include "telemetry/collector.h"

namespace
{

using namespace quake::parallel;
using quake::common::FatalError;

TEST(ParseCpuList, SinglesRangesAndMixes)
{
    EXPECT_EQ(parseCpuList("0"), (std::vector<int>{0}));
    EXPECT_EQ(parseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(parseCpuList("0-2,8,10-11"),
              (std::vector<int>{0, 1, 2, 8, 10, 11}));
    EXPECT_EQ(parseCpuList(" 4-5 \n"), (std::vector<int>{4, 5}));
    // Overlaps deduplicate, order normalizes ascending.
    EXPECT_EQ(parseCpuList("3,1,2-3"), (std::vector<int>{1, 2, 3}));
}

TEST(ParseCpuList, MalformedReturnsEmpty)
{
    EXPECT_TRUE(parseCpuList("").empty());
    EXPECT_TRUE(parseCpuList("abc").empty());
    EXPECT_TRUE(parseCpuList("1-").empty());
    EXPECT_TRUE(parseCpuList("-3").empty());
    EXPECT_TRUE(parseCpuList("3-1").empty());
    // Empty segments are skipped, not fatal (lenient like the kernel).
    EXPECT_EQ(parseCpuList("1,,2"), (std::vector<int>{1, 2}));
}

TEST(Topology, AffinityCpusNonEmptyAscending)
{
    const std::vector<int> cpus = affinityCpus();
    ASSERT_GE(cpus.size(), 1u);
    for (std::size_t i = 1; i < cpus.size(); ++i)
        EXPECT_LT(cpus[i - 1], cpus[i]);
}

TEST(Topology, FlatReproducesHistoricalSemantics)
{
    const Topology t = Topology::flat(3);
    EXPECT_EQ(t.numShards, 1);
    EXPECT_EQ(t.threadsPerShard, 0);
    EXPECT_EQ(t.threadBudget, 3);
    EXPECT_FALSE(t.pin);
    t.validate();
}

TEST(Topology, DetectAlwaysYieldsAValidTopology)
{
    // On any host — NUMA or not, sysfs or not — detection must return
    // something the engine can run: >= 1 shard, a CPU list per shard.
    const Topology t = Topology::detect();
    t.validate();
    EXPECT_GE(t.numShards, 1);
    ASSERT_EQ(t.shardCpus.size(),
              static_cast<std::size_t>(t.numShards));
    for (const std::vector<int> &cpus : t.shardCpus)
        EXPECT_FALSE(cpus.empty());
}

TEST(Topology, ParseAcceptsTheDocumentedSpecs)
{
    EXPECT_EQ(Topology::parse("flat").numShards, 1);
    const Topology st = Topology::parse("2x4");
    EXPECT_EQ(st.numShards, 2);
    EXPECT_EQ(st.threadsPerShard, 4);
    EXPECT_EQ(Topology::parse("3x0").threadsPerShard, 0);
    EXPECT_GE(Topology::parse("auto").numShards, 1);
    EXPECT_GE(Topology::parse("detect").numShards, 1);
    EXPECT_TRUE(Topology::parse("2x2", true).pin);
}

TEST(Topology, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(Topology::parse(""), FatalError);
    EXPECT_THROW(Topology::parse("nonsense"), FatalError);
    EXPECT_THROW(Topology::parse("2x"), FatalError);
    EXPECT_THROW(Topology::parse("x4"), FatalError);
    EXPECT_THROW(Topology::parse("0x4"), FatalError);
    EXPECT_THROW(Topology::parse("2x-1"), FatalError);
    EXPECT_THROW(Topology::parse("2x4x8"), FatalError);
}

TEST(Topology, ValidateRejectsInvalidFields)
{
    Topology t;
    t.numShards = 0;
    EXPECT_THROW(t.validate(), FatalError);
    t = Topology{};
    t.threadsPerShard = -1;
    EXPECT_THROW(t.validate(), FatalError);
    t = Topology{};
    t.numShards = 2;
    t.shardCpus = {{0}}; // size mismatch: 1 list for 2 shards
    EXPECT_THROW(t.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Engine integration: normalization and the bitwise contract.
// ---------------------------------------------------------------------

struct HierarchyFixture
{
    quake::mesh::TetMesh mesh;
    quake::mesh::UniformModel model{
        quake::mesh::Aabb{{0, 0, 0}, {1, 1, 1}}, 1.0, 1.0};
    DistributedProblem problem;
    std::vector<double> x;

    explicit HierarchyFixture(int pes = 8)
        : mesh(quake::mesh::buildKuhnLattice(
              quake::mesh::Aabb{{0, 0, 0}, {1, 1, 1}}, 4, 4, 4)),
          problem(distribute(
              mesh, model,
              quake::partition::GeometricBisection().partition(mesh,
                                                               pes)))
    {
        x.resize(static_cast<std::size_t>(3 * problem.numGlobalNodes));
        quake::common::SplitMix64 rng(31337);
        for (double &v : x)
            v = rng.uniform(-1, 1);
    }
};

TEST(HierarchicalEngine, NormalizationClampsAndCaps)
{
    HierarchyFixture f(4);
    // More shards than PEs: clamped to the PE count.
    const ParallelSmvp clamped(f.problem, Topology::uniform(16, 1));
    EXPECT_EQ(clamped.numShards(), 4);
    EXPECT_EQ(clamped.threadsPerShard(), 1);
    // Threads per shard beyond the largest shard's PE block: capped.
    const ParallelSmvp capped(f.problem, Topology::uniform(2, 64));
    EXPECT_EQ(capped.numShards(), 2);
    EXPECT_LE(capped.threadsPerShard(), 2);
    // Flat topology == the historical flat engine shape.
    const ParallelSmvp flat(f.problem, Topology::flat(2));
    EXPECT_EQ(flat.numShards(), 1);
    EXPECT_EQ(flat.numThreads(), 2);
}

TEST(HierarchicalEngine, SingleShardBitwiseEqualsFlatCtor)
{
    HierarchyFixture f;
    const std::vector<double> y_flat =
        ParallelSmvp(f.problem, 2).multiply(f.x);
    const std::vector<double> y_topo =
        ParallelSmvp(f.problem, Topology::flat(2)).multiply(f.x);
    EXPECT_EQ(y_flat, y_topo);
}

TEST(HierarchicalEngine, ShardCountsAndModesAreBitwiseInvariant)
{
    HierarchyFixture f;
    const std::vector<double> y_ref =
        ParallelSmvp(f.problem, 1, ExchangeMode::kBarrier).multiply(f.x);
    for (int shards : {2, 3, 4, 8}) {
        for (const ExchangeMode mode :
             {ExchangeMode::kBarrier, ExchangeMode::kOverlapped}) {
            const ParallelSmvp engine(f.problem,
                                      Topology::uniform(shards, 2), mode);
            EXPECT_EQ(engine.multiply(f.x), y_ref)
                << shards << " shards, mode "
                << static_cast<int>(mode);
        }
    }
}

TEST(HierarchicalEngine, FusedStepBitwiseInvariantAcrossShards)
{
    HierarchyFixture f;
    const std::size_t n = f.x.size();
    std::vector<double> inv_mass(n, 1.0), force(n, 0.0);

    auto run_step = [&](const ParallelSmvp &engine,
                        std::vector<double> &up) {
        quake::sparse::StepUpdate su;
        su.u = f.x.data();
        su.up = up.data();
        su.f = force.data();
        su.invMass = inv_mass.data();
        su.dt = 1e-3;
        su.dt2 = su.dt * su.dt;
        return engine.stepFused(su);
    };

    const ParallelSmvp ref(f.problem, 1, ExchangeMode::kBarrier);
    std::vector<double> up_ref(n, 0.0);
    const quake::sparse::StepPartials p_ref = run_step(ref, up_ref);

    for (int shards : {2, 4}) {
        const ParallelSmvp engine(f.problem,
                                  Topology::uniform(shards, 2));
        std::vector<double> up(n, 0.0);
        const quake::sparse::StepPartials p = run_step(engine, up);
        EXPECT_EQ(up, up_ref) << shards << " shards";
        EXPECT_EQ(p.peak, p_ref.peak);
        EXPECT_EQ(p.energy, p_ref.energy);
    }
}

TEST(HierarchicalEngine, BogusPinFailsOpenAndStaysBitwise)
{
    HierarchyFixture f;
    const std::vector<double> y_ref =
        ParallelSmvp(f.problem, 1).multiply(f.x);

    Topology topo = Topology::uniform(2, 2, /*pin=*/true);
    topo.shardCpus.assign(2, {1 << 20}); // no such CPU anywhere
    const ParallelSmvp engine(f.problem, topo);
    EXPECT_GT(engine.pinFailures(), 0);
    EXPECT_EQ(engine.multiply(f.x), y_ref);
}

TEST(HierarchicalEngine, OnePoolPinsEachWorkerOnce)
{
    // 2 shards x 2 threads are 4 workers of one pool, and each pins
    // itself once: 4 attempts, all failing on a CPU id that cannot
    // exist — no extra per-shard threads, no extra pins.
    HierarchyFixture f;
    Topology topo = Topology::uniform(2, 2, /*pin=*/true);
    topo.shardCpus.assign(2, {1 << 20});
    const ParallelSmvp engine(f.problem, topo);
    EXPECT_EQ(engine.numThreads(), 4);
    EXPECT_EQ(engine.workerPool().size(), 4);
    EXPECT_EQ(engine.workerPool().pinAttempts(), 4);
    EXPECT_EQ(engine.pinFailures(), 4);
}

TEST(HierarchicalEngine, TrafficClassificationIsConsistent)
{
    HierarchyFixture f;
    // Flat engine: every exchange is intra-shard by definition.
    const ParallelSmvp flat(f.problem, Topology::flat(2));
    EXPECT_EQ(flat.remoteExchangeBytes(), 0);
    EXPECT_DOUBLE_EQ(flat.shardImbalance(), 0.0);

    // Hierarchical: the split reclassifies, never changes the total.
    const ParallelSmvp hier(f.problem, Topology::uniform(2, 2));
    EXPECT_GT(hier.remoteExchangeBytes(), 0);
    EXPECT_EQ(hier.remoteExchangeBytes() + hier.localExchangeBytes(),
              flat.remoteExchangeBytes() + flat.localExchangeBytes());
    EXPECT_GE(hier.shardImbalance(), 0.0);
}

TEST(HierarchicalEngine, DetachedCollectorIsNeverTouchedAgain)
{
    // setCollector(nullptr) must reach every worker of every shard:
    // once it returns, tearing the engine down — which wakes every
    // parked worker — records nothing more.
    namespace telemetry = quake::telemetry;
    HierarchyFixture f;
    const std::size_t n = f.x.size();
    std::vector<double> up(n, 0.0), inv_mass(n, 1.0), force(n, 0.0);
    quake::sparse::StepUpdate su;
    su.u = f.x.data();
    su.up = up.data();
    su.f = force.data();
    su.invMass = inv_mass.data();
    su.dt = 1e-3;
    su.dt2 = su.dt * su.dt;

    telemetry::Collector collector;
    auto engine =
        std::make_unique<ParallelSmvp>(f.problem, Topology::uniform(2, 2));
    ASSERT_EQ(engine->numShards(), 2);
    ASSERT_EQ(engine->threadsPerShard(), 2);
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

TEST(HierarchicalEngine, PinnedEngineDestructsCleanlyAfterUse)
{
    HierarchyFixture f(4);
    std::vector<double> y_first;
    {
        const ParallelSmvp engine(f.problem,
                                  Topology::uniform(2, 2, /*pin=*/true));
        y_first = engine.multiply(f.x);
        // Destruction with pinned workers of both shards parked
        // mid-epoch must join every worker without hanging.
    }
    EXPECT_EQ(y_first, ParallelSmvp(f.problem, 1).multiply(f.x));
}

} // namespace

/**
 * @file
 * Tests for the end-to-end Quake simulation driver: sequential and
 * distributed runs agree, reports are coherent, the SMVP dominates
 * the step time (the paper's §2.3 premise), and a pinned engine runs
 * each worker on its own CPU.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/error.h"
#include "mesh/generator.h"
#include "parallel/parallel_smvp.h"
#include "quake/simulation.h"

namespace
{

using namespace quake::sim;
using namespace quake::mesh;
using quake::common::FatalError;

SimulationConfig
smallConfig()
{
    SimulationConfig config;
    config.durationSeconds = 1000.0; // maxSteps is the binding cap
    config.maxSteps = 150;
    config.sampleInterval = 5;
    config.wavelet.peakFrequencyHz = 0.5;
    config.wavelet.delaySeconds = 0.2;
    return config;
}

struct SmallProblem
{
    TetMesh mesh;
    UniformModel model{Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0, 1.0};

    SmallProblem()
        : mesh(buildKuhnLattice(Aabb{{0, 0, 0}, {4, 4, 4}}, 3, 3, 3))
    {}
};

TEST(Simulation, ReportFieldsCoherent)
{
    SmallProblem p;
    const SimulationReport report =
        runSimulation(p.mesh, p.model, smallConfig());
    EXPECT_GT(report.steps, 0);
    EXPECT_LE(report.steps, 150);
    EXPECT_GT(report.dt, 0.0);
    EXPECT_NEAR(report.simulatedSeconds, report.steps * report.dt,
                1e-9);
    EXPECT_GE(report.totalSeconds, report.smvpSeconds);
    EXPECT_GT(report.smvpFraction, 0.0);
    EXPECT_LE(report.smvpFraction, 1.0);
    EXPECT_FALSE(report.samples.empty());
}

TEST(Simulation, WaveActuallyPropagates)
{
    SmallProblem p;
    const SimulationReport report =
        runSimulation(p.mesh, p.model, smallConfig());
    EXPECT_GT(report.peakDisplacement, 0.0);
    EXPECT_TRUE(std::isfinite(report.peakDisplacement));
}

TEST(Simulation, SamplesOrderedInTime)
{
    SmallProblem p;
    const SimulationReport report =
        runSimulation(p.mesh, p.model, smallConfig());
    for (std::size_t i = 1; i < report.samples.size(); ++i)
        EXPECT_GT(report.samples[i].time, report.samples[i - 1].time);
}

TEST(Simulation, DistributedMatchesSequential)
{
    // The distributed run replaces only the SMVP implementation, so the
    // wavefield must match the sequential run to FP-reassociation
    // tolerance.
    SmallProblem p;
    SimulationConfig config = smallConfig();
    config.maxSteps = 60;

    const SimulationReport seq = runSimulation(p.mesh, p.model, config);
    config.numPes = 4;
    const SimulationReport par = runSimulation(p.mesh, p.model, config);

    EXPECT_EQ(seq.steps, par.steps);
    EXPECT_NEAR(seq.peakDisplacement, par.peakDisplacement,
                1e-8 * (1.0 + seq.peakDisplacement));
    ASSERT_EQ(seq.samples.size(), par.samples.size());
    for (std::size_t i = 0; i < seq.samples.size(); ++i)
        EXPECT_NEAR(seq.samples[i].kineticEnergy,
                    par.samples[i].kineticEnergy,
                    1e-6 * (1.0 + seq.samples[i].kineticEnergy));
}

#ifdef __linux__
TEST(Simulation, PinnedEnginePinsEachWorkerToOneCpu)
{
    // pinSmvpThreads pins pool thread w to CPU w of the affinity mask,
    // so tid 1's own mask holds exactly CPU 1 of it.  Worker 0 runs on
    // the caller's thread, whose mask the pool leaves untouched.
    const std::vector<int> cpus = quake::parallel::affinityCpus();
    if (cpus.size() < 2)
        GTEST_SKIP() << "needs at least 2 CPUs in the affinity mask";
    SmallProblem p;
    SimulationConfig config = smallConfig();
    config.numPes = 8;
    config.smvpThreads = 2;
    config.pinSmvpThreads = true;
    const SimulationEngine engine =
        makeSimulationEngine(p.mesh, p.model, config);
    ASSERT_NE(engine.psmvp, nullptr);
    quake::parallel::WorkerPool &pool = engine.psmvp->workerPool();
    ASSERT_EQ(pool.size(), 2);

    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::vector<int>> masks(2);
    std::vector<std::thread::id> ran(2);
    pool.run([&masks, &ran](int w) {
        ran[static_cast<std::size_t>(w)] = std::this_thread::get_id();
        cpu_set_t set;
        CPU_ZERO(&set);
        if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                masks[static_cast<std::size_t>(w)].push_back(c);
    });
    EXPECT_EQ(ran[0], caller);
    EXPECT_NE(ran[1], caller);
    EXPECT_EQ(masks[0], cpus);
    EXPECT_EQ(masks[1], std::vector<int>{cpus[1]});
}
#endif

TEST(Simulation, MaxStepsCapsRun)
{
    SmallProblem p;
    SimulationConfig config = smallConfig();
    config.maxSteps = 7;
    const SimulationReport report =
        runSimulation(p.mesh, p.model, config);
    EXPECT_EQ(report.steps, 7);
}

TEST(Simulation, RejectsBadConfig)
{
    SmallProblem p;
    SimulationConfig config = smallConfig();
    config.durationSeconds = -1;
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
    config = smallConfig();
    config.numPes = 0;
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
}

TEST(Simulation, ValidatesConfigFieldsOnEntry)
{
    SmallProblem p;
    SimulationConfig config = smallConfig();
    config.durationSeconds = std::numeric_limits<double>::infinity();
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
    config = smallConfig();
    config.durationSeconds = std::nan("");
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
    config = smallConfig();
    config.smvpThreads = -1;
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
    config = smallConfig();
    config.sampleInterval = -1;
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
    config = smallConfig();
    config.maxSteps = -1;
    EXPECT_THROW(runSimulation(p.mesh, p.model, config), FatalError);
    // smvpThreads = 0 stays valid: hardware concurrency.
    config = smallConfig();
    config.smvpThreads = 0;
    config.maxSteps = 3;
    EXPECT_EQ(runSimulation(p.mesh, p.model, config).steps, 3);
}

TEST(Simulation, FusedAndUnfusedRunsAgree)
{
    // The fused pipeline only reschedules the same arithmetic, so the
    // sequential displacement-derived outputs match exactly and the
    // distributed ones to reduction-order tolerance.
    SmallProblem p;
    for (const int pes : {1, 4}) {
        SimulationConfig config = smallConfig();
        config.maxSteps = 80;
        config.numPes = pes;
        config.fusedStep = true;
        const SimulationReport fused =
            runSimulation(p.mesh, p.model, config);
        config.fusedStep = false;
        const SimulationReport unfused =
            runSimulation(p.mesh, p.model, config);

        EXPECT_EQ(fused.steps, unfused.steps);
        EXPECT_EQ(fused.peakDisplacement, unfused.peakDisplacement);
        ASSERT_EQ(fused.samples.size(), unfused.samples.size());
        for (std::size_t i = 0; i < fused.samples.size(); ++i) {
            EXPECT_EQ(fused.samples[i].peakDisplacement,
                      unfused.samples[i].peakDisplacement);
            if (pes == 1)
                EXPECT_EQ(fused.samples[i].kineticEnergy,
                          unfused.samples[i].kineticEnergy);
            else
                EXPECT_NEAR(fused.samples[i].kineticEnergy,
                            unfused.samples[i].kineticEnergy,
                            1e-9 * (1.0 +
                                    unfused.samples[i].kineticEnergy));
        }
    }
}

TEST(Simulation, EnergyBoundedAfterSourceEnds)
{
    // Explicit central differences on an undamped system: energy after
    // the wavelet dies must stay bounded (no exponential growth).
    SmallProblem p;
    SimulationConfig config = smallConfig();
    config.maxSteps = 400;
    config.durationSeconds = 10.0;
    const SimulationReport report =
        runSimulation(p.mesh, p.model, config);

    double late_max = 0.0, mid_max = 0.0;
    for (const FieldSample &s : report.samples) {
        if (s.time > 0.75 * report.simulatedSeconds)
            late_max = std::max(late_max, s.kineticEnergy);
        else if (s.time > 0.4 * report.simulatedSeconds)
            mid_max = std::max(mid_max, s.kineticEnergy);
    }
    if (mid_max > 0) {
        EXPECT_LT(late_max, 10.0 * mid_max);
    }
}

TEST(Simulation, SfQuickRunWorks)
{
    // End-to-end through the generator on the tiny class.
    SimulationConfig config = smallConfig();
    config.maxSteps = 20;
    config.hypocenter = {25, 25, 5};
    const SimulationReport report =
        runSfSimulation(SfClass::kSf20, config, 1.5);
    EXPECT_EQ(report.steps, 20);
    EXPECT_TRUE(std::isfinite(report.peakDisplacement));
}

TEST(Simulation, SmvpDominatesOnLargerMesh)
{
    // Paper §2.3: SMVP is >80% of sequential running time.  On a
    // non-trivial mesh the SMVP share must at least dominate (>50%)
    // even in this instrumented build; the bench reports the real
    // number on sf-class meshes.
    const TetMesh mesh =
        buildKuhnLattice(Aabb{{0, 0, 0}, {4, 4, 4}}, 8, 8, 8);
    const UniformModel model(Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0, 1.0);
    SimulationConfig config = smallConfig();
    config.maxSteps = 40;
    const SimulationReport report = runSimulation(mesh, model, config);
    EXPECT_GT(report.smvpFraction, 0.5);
}

} // namespace

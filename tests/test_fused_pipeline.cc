/**
 * @file
 * Tests for the fused zero-copy time-stepping pipeline (DESIGN.md §8):
 * every fused backend (sequential BCSR3, the pooled spark kernel, and
 * the distributed two-phase engine) must produce a displacement
 * history bitwise identical to the unfused SMVP + reference triad of
 * the same operator, across thread counts, exchange modes, and
 * damping settings; the fused peak/energy reductions must be bitwise
 * deterministic across thread counts; and the zero-copy multiplyInto
 * path must match multiply() bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "mesh/generator.h"
#include "parallel/parallel_smvp.h"
#include "partition/geometric_bisection.h"
#include "quake/simulation.h"
#include "quake/time_stepper.h"
#include "sparse/assembly.h"
#include "spark/kernels.h"

namespace
{

using namespace quake::sim;
using namespace quake::mesh;
using quake::common::FatalError;
namespace sparse = quake::sparse;
namespace parallel = quake::parallel;
namespace spark = quake::spark;

/** A mesh/model pair with its assembled operator and step size. */
struct System
{
    TetMesh mesh;
    sparse::Bcsr3Matrix k;
    std::vector<double> mass;
    double dt = 0.0;
    Vec3 center{0, 0, 0};
};

System
latticeSystem()
{
    const Aabb box{{0, 0, 0}, {4, 4, 4}};
    const UniformModel model(box, 1.0, 1.0);
    System sys;
    sys.mesh = buildKuhnLattice(box, 3, 3, 3);
    sys.k = sparse::assembleStiffness(sys.mesh, model);
    sys.mass = sparse::assembleLumpedMass(sys.mesh, model);
    sys.dt = stableTimeStep(sys.mesh, model);
    sys.center = {2, 2, 2};
    return sys;
}

System
gradedSystem()
{
    // The sf-class generator grades element size with the soil profile,
    // giving an irregular matrix structure (unlike the uniform lattice).
    const LayeredBasinModel model;
    const GeneratedMesh generated =
        generateMesh(model, MeshSpec::forClass(SfClass::kSf20, 1.5));
    System sys;
    sys.mesh = generated.mesh;
    sys.k = sparse::assembleStiffness(sys.mesh, model);
    sys.mass = sparse::assembleLumpedMass(sys.mesh, model);
    sys.dt = stableTimeStep(sys.mesh, model);
    sys.center = {25, 25, 5};
    return sys;
}

/** A stepper driven by the standard test source. */
ExplicitTimeStepper
makeStepper(const System &sys, SmvpFn smvp, double damping)
{
    ExplicitTimeStepper stepper(std::move(smvp), sys.mass, sys.dt);
    if (damping > 0)
        stepper.setDamping(damping);
    RickerWavelet w;
    w.peakFrequencyHz = 0.8;
    w.delaySeconds = 0.3;
    stepper.addSource(
        makePointSource(sys.mesh, sys.center, {0.3, 0.2, 1.0}, w));
    return stepper;
}

/** Every-step displacement history of a stepper run. */
std::vector<std::vector<double>>
runHistory(ExplicitTimeStepper &stepper, int steps)
{
    std::vector<std::vector<double>> history;
    history.reserve(static_cast<std::size_t>(steps));
    for (int s = 0; s < steps; ++s) {
        stepper.step();
        history.push_back(stepper.displacement());
    }
    return history;
}

/** Assert two histories are bitwise identical at every step. */
void
expectBitwiseHistory(const std::vector<std::vector<double>> &a,
                     const std::vector<std::vector<double>> &b,
                     const char *label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].size(), b[s].size()) << label;
        if (std::memcmp(a[s].data(), b[s].data(),
                        a[s].size() * sizeof(double)) == 0)
            continue;
        for (std::size_t i = 0; i < a[s].size(); ++i)
            ASSERT_EQ(a[s][i], b[s][i])
                << label << ": step " << s + 1 << ", dof " << i;
    }
}

// ------------------------------------------------- sequential fused BCSR3

TEST(FusedSequential, BitwiseMatchesUnfusedOnLattice)
{
    const System sys = latticeSystem();
    for (const double damping : {0.0, 0.35}) {
        SmvpFn smvp = [&sys](const std::vector<double> &x,
                             std::vector<double> &y) {
            sys.k.multiply(x.data(), y.data());
        };
        ExplicitTimeStepper unfused = makeStepper(sys, smvp, damping);
        ExplicitTimeStepper fused = makeStepper(sys, smvp, damping);
        fused.setFusedStep([&sys](const sparse::StepUpdate &su) {
            return sys.k.multiplyFusedStep(su);
        });
        ASSERT_TRUE(fused.fusedStep());
        ASSERT_FALSE(unfused.fusedStep());

        const auto a = runHistory(unfused, 300);
        const auto b = runHistory(fused, 300);
        expectBitwiseHistory(a, b, damping > 0 ? "damped" : "undamped");

        // The reductions funnel through the same accumulation order, so
        // they agree exactly too.
        EXPECT_EQ(unfused.peakDisplacement(), fused.peakDisplacement());
        EXPECT_EQ(unfused.kineticEnergy(), fused.kineticEnergy());
    }
}

TEST(FusedSequential, BitwiseMatchesUnfusedOnGradedMesh)
{
    const System sys = gradedSystem();
    SmvpFn smvp = [&sys](const std::vector<double> &x,
                         std::vector<double> &y) {
        sys.k.multiply(x.data(), y.data());
    };
    ExplicitTimeStepper unfused = makeStepper(sys, smvp, 0.0);
    ExplicitTimeStepper fused = makeStepper(sys, smvp, 0.0);
    fused.setFusedStep([&sys](const sparse::StepUpdate &su) {
        return sys.k.multiplyFusedStep(su);
    });
    expectBitwiseHistory(runHistory(unfused, 200), runHistory(fused, 200),
                         "graded");
}

// ------------------------------------------------------ pooled spark kernel

TEST(FusedPooledKernel, BitwiseAcrossThreadCounts)
{
    const System sys = latticeSystem();
    SmvpFn smvp = [&sys](const std::vector<double> &x,
                         std::vector<double> &y) {
        sys.k.multiply(x.data(), y.data());
    };
    ExplicitTimeStepper unfused = makeStepper(sys, smvp, 0.0);
    const auto reference = runHistory(unfused, 250);
    const double ref_peak = unfused.peakDisplacement();
    const double ref_energy = unfused.kineticEnergy();

    double pooled_energy = 0.0;
    bool first = true;
    for (const int threads : {1, 2, 4}) {
        parallel::WorkerPool pool(threads);
        const spark::FusedStepKernel kernel(sys.k, pool);
        EXPECT_EQ(kernel.chunks(), 64); // fixed grid, not pool-sized

        ExplicitTimeStepper fused = makeStepper(sys, smvp, 0.0);
        fused.setFusedStep([&kernel](const sparse::StepUpdate &su) {
            return kernel.step(su);
        });
        expectBitwiseHistory(reference, runHistory(fused, 250), "pooled");

        // Peak is an order-independent max of bitwise-identical values,
        // so it matches the serial reference exactly.  Energy sums are
        // associated per chunk, so they are bitwise identical across
        // thread counts (the grid is fixed) but only close to the
        // serial single-chain sum.
        EXPECT_EQ(fused.peakDisplacement(), ref_peak);
        EXPECT_NEAR(fused.kineticEnergy(), ref_energy,
                    1e-12 * (1.0 + ref_energy));
        if (first) {
            pooled_energy = fused.kineticEnergy();
            first = false;
        } else {
            EXPECT_EQ(fused.kineticEnergy(), pooled_energy);
        }
    }
}

// --------------------------------------------------- distributed fused step

/** Shared distributed fixture: one problem, many engines. */
struct DistributedSystem
{
    System sys;
    parallel::DistributedProblem problem;

    explicit DistributedSystem(int pes)
        : sys(latticeSystem()),
          problem([&] {
              const UniformModel model(Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0,
                                       1.0);
              const quake::partition::GeometricBisection partitioner;
              return parallel::distribute(
                  sys.mesh, model, partitioner.partition(sys.mesh, pes));
          }())
    {}
};

TEST(FusedParallel, BitwiseAcrossThreadsModesAndDamping)
{
    DistributedSystem d(4);
    for (const double damping : {0.0, 0.35}) {
        // Reference: the unfused zero-copy engine path.
        parallel::ParallelSmvp ref_engine(d.problem, 2);
        SmvpFn ref_smvp = [&ref_engine](const std::vector<double> &x,
                                        std::vector<double> &y) {
            ref_engine.multiplyInto(x, y);
        };
        ExplicitTimeStepper unfused = makeStepper(d.sys, ref_smvp, damping);
        const auto reference = runHistory(unfused, 250);

        double fused_peak = 0.0, fused_energy = 0.0;
        bool first = true;
        for (const int threads : {1, 2, 4}) {
            for (const parallel::ExchangeMode mode :
                 {parallel::ExchangeMode::kBarrier,
                  parallel::ExchangeMode::kOverlapped}) {
                parallel::ParallelSmvp engine(d.problem, threads, mode);
                SmvpFn smvp = [&engine](const std::vector<double> &x,
                                        std::vector<double> &y) {
                    engine.multiplyInto(x, y);
                };
                ExplicitTimeStepper fused =
                    makeStepper(d.sys, smvp, damping);
                fused.setFusedStep(
                    [&engine](const sparse::StepUpdate &su) {
                        return engine.stepFused(su);
                    });
                expectBitwiseHistory(reference, runHistory(fused, 250),
                                     "parallel fused");

                // Per-PE partials are combined in ascending PE order,
                // so the reductions match bitwise across every thread
                // count and both exchange modes.
                if (first) {
                    fused_peak = fused.peakDisplacement();
                    fused_energy = fused.kineticEnergy();
                    first = false;
                } else {
                    EXPECT_EQ(fused.peakDisplacement(), fused_peak);
                    EXPECT_EQ(fused.kineticEnergy(), fused_energy);
                }
            }
        }

        // Peak is an order-independent max of the same bitwise values.
        EXPECT_EQ(unfused.peakDisplacement(), fused_peak);
    }
}

// -------------------------------------------------------- zero-copy multiply

TEST(MultiplyInto, BitwiseMatchesMultiply)
{
    DistributedSystem d(3);
    parallel::ParallelSmvp engine(d.problem, 2);

    const std::int64_t dof = 3 * d.problem.numGlobalNodes;
    std::vector<double> x(static_cast<std::size_t>(dof));
    for (std::int64_t i = 0; i < dof; ++i)
        x[static_cast<std::size_t>(i)] =
            std::sin(0.37 * static_cast<double>(i) + 0.11);

    const std::vector<double> expect = engine.multiply(x);
    std::vector<double> got(static_cast<std::size_t>(dof), -1.0);
    engine.multiplyInto(x, got);
    for (std::int64_t i = 0; i < dof; ++i)
        ASSERT_EQ(expect[static_cast<std::size_t>(i)],
                  got[static_cast<std::size_t>(i)])
            << "dof " << i;
}

TEST(MultiplyInto, RejectsWrongSizes)
{
    DistributedSystem d(2);
    parallel::ParallelSmvp engine(d.problem, 1);
    const std::size_t dof =
        static_cast<std::size_t>(3 * d.problem.numGlobalNodes);
    std::vector<double> x(dof), y(dof);
    std::vector<double> bad(dof - 1);
    EXPECT_THROW(engine.multiplyInto(bad, y), FatalError);
    EXPECT_THROW(engine.multiplyInto(x, bad), FatalError);
}

// ----------------------------------------------------------- cached stats

TEST(StepperStats, CachedStatsMatchExplicitSweep)
{
    const System sys = latticeSystem();
    SmvpFn smvp = [&sys](const std::vector<double> &x,
                         std::vector<double> &y) {
        sys.k.multiply(x.data(), y.data());
    };
    for (const bool use_fused : {false, true}) {
        ExplicitTimeStepper stepper = makeStepper(sys, smvp, 0.0);
        if (use_fused)
            stepper.setFusedStep([&sys](const sparse::StepUpdate &su) {
                return sys.k.multiplyFusedStep(su);
            });
        for (int s = 0; s < 120; ++s)
            stepper.step();

        double peak = 0.0;
        for (const double v : stepper.displacement())
            peak = std::max(peak, std::fabs(v));
        EXPECT_EQ(stepper.peakDisplacement(), peak);

        double energy = 0.0;
        const std::vector<double> &u = stepper.displacement();
        const std::vector<double> &up = stepper.previousDisplacement();
        for (std::size_t i = 0; i < u.size(); ++i) {
            const double v = (u[i] - up[i]) / sys.dt;
            // Same arithmetic as the stepper: reciprocal mass, divide.
            energy += 0.5 * v * v / (1.0 / sys.mass[i]);
        }
        EXPECT_DOUBLE_EQ(stepper.kineticEnergy(), energy);
    }
}

} // namespace

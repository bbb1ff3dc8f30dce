/**
 * @file
 * Tests for the extension features: the full-duplex NI mode of the
 * phase simulator (Figure 5) and Rayleigh damping in the time stepper.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "mesh/generator.h"
#include "parallel/phase_simulator.h"
#include "quake/simulation.h"

namespace
{

using namespace quake;
using quake::common::FatalError;

// ------------------------------------------------------- full-duplex NI

core::SmvpCharacterization
handChar()
{
    core::SmvpCharacterization ch;
    ch.numPes = 2;
    ch.pes = {core::PeLoad{1000, 60, 2}, core::PeLoad{800, 100, 4}};
    return ch;
}

TEST(NiDuplex, HalvesCommTimeExactly)
{
    const parallel::MachineModel m{"t", 1e-9, 1e-6, 10e-9};
    const parallel::PhaseTimes half = parallel::simulateSmvp(
        handChar(), m, parallel::OverlapMode::kNone,
        parallel::NiMode::kHalfDuplex);
    const parallel::PhaseTimes full = parallel::simulateSmvp(
        handChar(), m, parallel::OverlapMode::kNone,
        parallel::NiMode::kFullDuplex);
    // The exchange schedule is symmetric, so concurrent in/out links
    // carry exactly half each.
    EXPECT_NEAR(full.tComm, half.tComm / 2.0, 1e-18);
    EXPECT_GT(full.efficiency, half.efficiency);
}

TEST(NiDuplex, ComposesWithOverlap)
{
    const parallel::MachineModel m{"t", 1e-9, 1e-6, 10e-9};
    const parallel::PhaseTimes t = parallel::simulateSmvp(
        handChar(), m, parallel::OverlapMode::kPerfect,
        parallel::NiMode::kFullDuplex);
    EXPECT_NEAR(t.tSmvp, std::max(t.tComp, t.tComm), 1e-18);
}

// ---------------------------------------------------------- damping

sim::SmvpFn
scalarSpring(double k)
{
    return [k](const std::vector<double> &x, std::vector<double> &y) {
        for (std::size_t i = 0; i < x.size(); ++i)
            y[i] = k * x[i];
    };
}

TEST(Damping, DecaysDrivenOscillation)
{
    // Same driven oscillator, with and without damping: the damped
    // late-time amplitude must be strictly smaller.
    auto run = [&](double a0) {
        sim::ExplicitTimeStepper stepper(scalarSpring(4.0),
                                         std::vector<double>(3, 1.0),
                                         1e-3);
        if (a0 > 0)
            stepper.setDamping(a0);
        sim::PointSource s;
        s.node = 0;
        s.direction = {1, 0, 0};
        s.wavelet.peakFrequencyHz = 0.4;
        s.wavelet.delaySeconds = 1.0;
        stepper.addSource(s);
        // Drive for 4 s, then ring down for 6 s.
        double late_peak = 0;
        for (int i = 0; i < 10'000; ++i) {
            stepper.step();
            if (i > 8'000)
                late_peak = std::max(
                    late_peak, std::fabs(stepper.displacement()[0]));
        }
        return late_peak;
    };
    const double undamped = run(0.0);
    const double damped = run(1.5);
    EXPECT_GT(undamped, 0.0);
    EXPECT_LT(damped, 0.25 * undamped);
}

TEST(Damping, ExponentialRateMatchesTheory)
{
    // Free ring-down of a mass-proportionally damped mode decays as
    // exp(-a0 t / 2).  Drive briefly, measure successive peaks.
    sim::ExplicitTimeStepper stepper(scalarSpring(400.0),
                                     std::vector<double>(3, 1.0), 1e-4);
    const double a0 = 0.8;
    stepper.setDamping(a0);
    sim::PointSource s;
    s.node = 0;
    s.direction = {1, 0, 0};
    s.wavelet.peakFrequencyHz = 3.0;
    s.wavelet.delaySeconds = 0.3;
    stepper.addSource(s);

    // Past t = 1.5 the source is dead; sample envelope over windows.
    double peak_a = 0, peak_b = 0;
    const double window = 2.0;
    while (stepper.time() < 1.5)
        stepper.step();
    while (stepper.time() < 1.5 + window) {
        stepper.step();
        peak_a = std::max(peak_a, std::fabs(stepper.displacement()[0]));
    }
    while (stepper.time() < 1.5 + 2 * window) {
        stepper.step();
        peak_b = std::max(peak_b, std::fabs(stepper.displacement()[0]));
    }
    ASSERT_GT(peak_a, 0.0);
    const double measured_rate = std::log(peak_a / peak_b) / window;
    EXPECT_NEAR(measured_rate, a0 / 2.0, 0.15 * a0);
}

TEST(Damping, RejectsBadCoefficients)
{
    sim::ExplicitTimeStepper stepper(scalarSpring(1.0),
                                     std::vector<double>(3, 1.0), 0.1);
    EXPECT_THROW(stepper.setDamping(-0.1), FatalError);
    EXPECT_THROW(stepper.setDamping(100.0), FatalError); // a0 dt >= 2
}

TEST(Damping, WiredThroughSimulationConfig)
{
    const mesh::TetMesh m = mesh::buildKuhnLattice(
        mesh::Aabb{{0, 0, 0}, {4, 4, 4}}, 3, 3, 3);
    const mesh::UniformModel model(mesh::Aabb{{0, 0, 0}, {4, 4, 4}},
                                   1.0, 1.0);
    sim::SimulationConfig config;
    config.durationSeconds = 1e9;
    config.maxSteps = 250;
    config.sampleInterval = 25;
    config.wavelet.peakFrequencyHz = 0.5;
    config.wavelet.delaySeconds = 0.2;

    const sim::SimulationReport undamped =
        sim::runSimulation(m, model, config);
    config.dampingA0 = 2.0;
    const sim::SimulationReport damped =
        sim::runSimulation(m, model, config);
    ASSERT_FALSE(undamped.samples.empty());
    EXPECT_LT(damped.samples.back().kineticEnergy,
              undamped.samples.back().kineticEnergy);
}

} // namespace

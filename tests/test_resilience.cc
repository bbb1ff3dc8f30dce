/**
 * @file
 * Tests for the resilience subsystem (DESIGN.md §11): checkpoint
 * serialization round trips and the corruption-refusal sweep, atomic
 * file IO with errno context, bitwise save/restore continuation of the
 * integrator, the retry/backoff/degradation state machine with injected
 * failures and a fake sleeper, the heartbeat's stall check, the Eq. (1)
 * model-informed deadline, end-to-end supervised runs that resume from
 * their own checkpoints, and FNV-1a pins of the checkpoint bytes.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/error.h"
#include "common/fnv.h"
#include "mesh/generator.h"
#include "mesh/soil_model.h"
#include "quake/simulation.h"
#include "quake/time_stepper.h"
#include "resilience/checkpoint.h"
#include "resilience/supervisor.h"

namespace
{

using namespace quake;
using quake::common::FatalError;

/** Run `fn`, expecting a FatalError; return its message. */
std::string
fatalMessage(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected FatalError";
    return "";
}

bool
bitwiseEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(double)) == 0;
}

/** A handmade checkpoint with every field populated and distinct. */
resilience::Checkpoint
sampleCheckpoint()
{
    resilience::Checkpoint c;
    c.fingerprint = 0x123456789abcdef0ULL;
    c.dt = 0.015625;
    c.plannedSteps = 40;
    c.state.steps = 20;
    c.state.u = {1.0, -2.5, 3.25, 0.0};
    c.state.up = {0.5, -1.25, 2.0, -0.125};
    c.state.partials.peak = 3.25;
    c.state.partials.energy = 7.5;
    c.state.statsValid = true;
    c.reportPeak = 3.5;
    c.samples = {{0.1, 1.0, 2.0}, {0.2, 3.5, 4.0}};
    return c;
}

/** Byte offset of the first payload byte of the tagged section. */
std::size_t
payloadOffset(const std::vector<std::uint8_t> &bytes, std::uint32_t tag)
{
    std::size_t pos = 8 + 4; // magic + version
    while (pos + 20 <= bytes.size()) {
        std::uint32_t t = 0;
        std::uint64_t len = 0;
        std::memcpy(&t, bytes.data() + pos, sizeof(t));
        std::memcpy(&len, bytes.data() + pos + 4, sizeof(len));
        if (t == tag)
            return pos + 20;
        pos += 20 + len;
    }
    ADD_FAILURE() << "tag not found in serialized checkpoint";
    return 0;
}

// ---------------------------------------------------------------------
// Serialization round trip and the corruption-refusal sweep.
// ---------------------------------------------------------------------

TEST(CheckpointFormat, SerializeParseRoundTripIsBitwise)
{
    const resilience::Checkpoint c = sampleCheckpoint();
    const std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(c);
    const resilience::Checkpoint back =
        resilience::parseCheckpoint(bytes, "test");

    EXPECT_EQ(back.fingerprint, c.fingerprint);
    EXPECT_EQ(back.dt, c.dt);
    EXPECT_EQ(back.plannedSteps, c.plannedSteps);
    EXPECT_EQ(back.state.steps, c.state.steps);
    EXPECT_TRUE(bitwiseEqual(back.state.u, c.state.u));
    EXPECT_TRUE(bitwiseEqual(back.state.up, c.state.up));
    EXPECT_EQ(back.state.partials.peak, c.state.partials.peak);
    EXPECT_EQ(back.state.partials.energy, c.state.partials.energy);
    EXPECT_EQ(back.state.statsValid, c.state.statsValid);
    EXPECT_EQ(back.reportPeak, c.reportPeak);
    ASSERT_EQ(back.samples.size(), c.samples.size());
    for (std::size_t i = 0; i < c.samples.size(); ++i) {
        EXPECT_EQ(back.samples[i].time, c.samples[i].time);
        EXPECT_EQ(back.samples[i].peakDisplacement,
                  c.samples[i].peakDisplacement);
        EXPECT_EQ(back.samples[i].kineticEnergy,
                  c.samples[i].kineticEnergy);
    }
    EXPECT_EQ(resilience::stateFingerprint(back),
              resilience::stateFingerprint(c));
}

TEST(CheckpointFormat, SerializationIsDeterministic)
{
    const resilience::Checkpoint c = sampleCheckpoint();
    EXPECT_EQ(resilience::serializeCheckpoint(c),
              resilience::serializeCheckpoint(c));
}

TEST(CheckpointFormat, RejectsTruncation)
{
    std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(sampleCheckpoint());
    bytes.resize(bytes.size() / 2);
    const std::string what = fatalMessage(
        [&] { resilience::parseCheckpoint(bytes, "test"); });
    EXPECT_NE(what.find("checkpoint truncated"), std::string::npos)
        << what;
}

TEST(CheckpointFormat, RejectsBadMagic)
{
    std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(sampleCheckpoint());
    bytes[0] ^= 0xFF;
    const std::string what = fatalMessage(
        [&] { resilience::parseCheckpoint(bytes, "test"); });
    EXPECT_NE(what.find("not a quake98 checkpoint"), std::string::npos)
        << what;
}

TEST(CheckpointFormat, RejectsVersionSkew)
{
    std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(sampleCheckpoint());
    bytes[8] += 1;
    const std::string what = fatalMessage(
        [&] { resilience::parseCheckpoint(bytes, "test"); });
    EXPECT_NE(what.find("unsupported checkpoint version"),
              std::string::npos)
        << what;
}

TEST(CheckpointFormat, RejectsBitFlipInEverySection)
{
    const struct
    {
        std::uint32_t tag;
        const char *name;
    } sections[] = {{0x4d455441, "META"},
                    {0x55435552, "UCUR"},
                    {0x55505256, "UPRV"},
                    {0x53544154, "STAT"},
                    {0x52505254, "RPRT"}};
    for (const auto &sec : sections) {
        std::vector<std::uint8_t> bytes =
            resilience::serializeCheckpoint(sampleCheckpoint());
        bytes[payloadOffset(bytes, sec.tag)] ^= 0x40;
        const std::string what = fatalMessage(
            [&] { resilience::parseCheckpoint(bytes, "test"); });
        EXPECT_NE(what.find(std::string("section ") + sec.name +
                            " checksum mismatch"),
                  std::string::npos)
            << sec.name << ": " << what;
    }
}

TEST(CheckpointFormat, RejectsTrailingGarbage)
{
    std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(sampleCheckpoint());
    bytes.push_back(0xAB);
    const std::string what = fatalMessage(
        [&] { resilience::parseCheckpoint(bytes, "test"); });
    EXPECT_NE(what.find("trailing garbage"), std::string::npos) << what;
}

TEST(CheckpointFormat, StateFingerprintSeesEveryField)
{
    const resilience::Checkpoint base = sampleCheckpoint();
    const std::uint64_t h0 = resilience::stateFingerprint(base);

    resilience::Checkpoint c = base;
    c.state.u[2] = std::nextafter(c.state.u[2], 1e300);
    EXPECT_NE(resilience::stateFingerprint(c), h0);

    c = base;
    c.state.steps += 1;
    EXPECT_NE(resilience::stateFingerprint(c), h0);

    c = base;
    c.reportPeak += 1.0;
    EXPECT_NE(resilience::stateFingerprint(c), h0);

    c = base;
    c.samples.pop_back();
    EXPECT_NE(resilience::stateFingerprint(c), h0);
}

// ---------------------------------------------------------------------
// File IO: atomic write/read round trip and errno-context diagnostics.
// ---------------------------------------------------------------------

TEST(CheckpointIo, FileRoundTrip)
{
    const std::string path = "test_resilience_roundtrip.ckpt";
    const resilience::Checkpoint c = sampleCheckpoint();
    const std::size_t bytes = resilience::writeCheckpoint(path, c);
    EXPECT_GT(bytes, 0u);
    const resilience::Checkpoint back = resilience::readCheckpoint(path);
    EXPECT_EQ(resilience::stateFingerprint(back),
              resilience::stateFingerprint(c));
    std::remove(path.c_str());
}

TEST(CheckpointIo, MissingFileDiagnosticCarriesErrnoContext)
{
    const std::string what = fatalMessage(
        [] { resilience::readCheckpoint("/no/such/dir/x.ckpt"); });
    EXPECT_NE(what.find("/no/such/dir/x.ckpt"), std::string::npos)
        << what;
    EXPECT_NE(what.find("(errno "), std::string::npos) << what;
}

TEST(CheckpointIo, UnwritablePathDiagnosticCarriesErrnoContext)
{
    const std::string what = fatalMessage([] {
        resilience::writeCheckpoint("/no/such/dir/x.ckpt",
                                    sampleCheckpoint());
    });
    EXPECT_NE(what.find("(errno "), std::string::npos) << what;
}

// ---------------------------------------------------------------------
// Integrator save/restore: bitwise continuation on a small system.
// ---------------------------------------------------------------------

/** A ring Laplacian SMVP: deterministic, mesh-free, any size. */
sim::SmvpFn
ringSmvp()
{
    return [](const std::vector<double> &x, std::vector<double> &y) {
        const std::size_t n = x.size();
        y.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            y[i] = 2.0 * x[i] - 0.5 * (x[(i + 1) % n] +
                                       x[(i + n - 1) % n]);
    };
}

sim::ExplicitTimeStepper
makeRingStepper(int n)
{
    sim::ExplicitTimeStepper stepper(ringSmvp(),
                                     std::vector<double>(n, 1.0), 0.01);
    std::vector<double> u0(n), v0(n, 0.0);
    for (int i = 0; i < n; ++i)
        u0[i] = std::sin(0.7 * i);
    stepper.setInitialConditions(u0, v0);
    return stepper;
}

TEST(StepperState, RestoreContinuationIsBitwise)
{
    const int n = 24;
    sim::ExplicitTimeStepper golden = makeRingStepper(n);
    for (int s = 0; s < 5; ++s)
        golden.step();
    sim::StepperState mid;
    golden.saveState(mid);
    EXPECT_EQ(mid.steps, 5);
    for (int s = 5; s < 10; ++s)
        golden.step();

    sim::ExplicitTimeStepper resumed = makeRingStepper(n);
    resumed.restoreState(mid);
    EXPECT_EQ(resumed.stepCount(), 5);
    for (int s = 5; s < 10; ++s)
        resumed.step();

    EXPECT_TRUE(bitwiseEqual(resumed.displacement(),
                             golden.displacement()));
    EXPECT_TRUE(bitwiseEqual(resumed.previousDisplacement(),
                             golden.previousDisplacement()));
    EXPECT_EQ(resumed.peakDisplacement(), golden.peakDisplacement());
    EXPECT_EQ(resumed.kineticEnergy(), golden.kineticEnergy());
}

TEST(StepperState, RestoreRejectsWrongDofCount)
{
    sim::ExplicitTimeStepper stepper = makeRingStepper(24);
    stepper.step();
    sim::StepperState state;
    stepper.saveState(state);
    state.u.resize(12);
    state.up.resize(12);
    sim::ExplicitTimeStepper other = makeRingStepper(24);
    EXPECT_THROW(other.restoreState(state), FatalError);
}

// ---------------------------------------------------------------------
// Engine fingerprint: what it covers and what it deliberately excludes.
// ---------------------------------------------------------------------

sim::SimulationConfig
latticeConfig()
{
    sim::SimulationConfig config;
    // A duration long enough that the step cap is the binding limit.
    config.durationSeconds = 1000.0;
    config.maxSteps = 12;
    config.sampleInterval = 3;
    config.numPes = 2;
    config.smvpThreads = 2;
    return config;
}

struct Lattice
{
    mesh::Aabb box{{0, 0, 0}, {4.0, 4.0, 2.0}};
    mesh::UniformModel model{box, 1.0};
    mesh::TetMesh mesh = mesh::buildKuhnLattice(box, 2, 2, 2);
};

TEST(EngineFingerprint, ExcludesExecutionKnobsIncludesPhysics)
{
    const Lattice lat;
    const sim::SimulationConfig base = latticeConfig();
    const std::uint64_t h0 =
        sim::makeSimulationEngine(lat.mesh, lat.model, base).fingerprint;

    // Execution knobs proven bitwise-invariant must NOT change the
    // fingerprint: a checkpoint may legally resume under any of them.
    sim::SimulationConfig cfg = base;
    cfg.smvpThreads = 1;
    cfg.overlapSmvp = !cfg.overlapSmvp;
    cfg.fusedStep = !cfg.fusedStep;
    EXPECT_EQ(
        sim::makeSimulationEngine(lat.mesh, lat.model, cfg).fingerprint,
        h0);

    // Physics and topology MUST change it.
    cfg = base;
    cfg.dampingA0 = 0.25;
    EXPECT_NE(
        sim::makeSimulationEngine(lat.mesh, lat.model, cfg).fingerprint,
        h0);
    cfg = base;
    cfg.numPes = 4;
    EXPECT_NE(
        sim::makeSimulationEngine(lat.mesh, lat.model, cfg).fingerprint,
        h0);
}

TEST(EngineFingerprint, RequireCompatibleRefusesMismatch)
{
    const Lattice lat;
    sim::SimulationEngine engine =
        sim::makeSimulationEngine(lat.mesh, lat.model, latticeConfig());
    resilience::Checkpoint c = sampleCheckpoint();
    c.fingerprint = engine.fingerprint;
    resilience::requireCompatible(c, engine); // must not throw

    c.fingerprint ^= 1;
    const std::string what = fatalMessage(
        [&] { resilience::requireCompatible(c, engine); });
    EXPECT_NE(what.find("fingerprint mismatch"), std::string::npos)
        << what;
}

// ---------------------------------------------------------------------
// Supervisor policy: validation, backoff, retries, degradation.
// ---------------------------------------------------------------------

TEST(SupervisorOptions, ValidateRejectsNonsense)
{
    resilience::SupervisorOptions o;
    o.maxAttempts = 0;
    EXPECT_THROW(o.validate(), FatalError);

    o = {};
    o.stallTimeout = std::chrono::milliseconds{-1};
    EXPECT_THROW(o.validate(), FatalError);

    o = {};
    o.backoffFactor = 0.5;
    EXPECT_THROW(o.validate(), FatalError);

    o = {};
    o.backoffCap = std::chrono::milliseconds{10};
    o.backoffBase = std::chrono::milliseconds{100};
    EXPECT_THROW(o.validate(), FatalError);

    o = {};
    o.validate(); // defaults are sane
}

TEST(RunSupervisor, BackoffIsCappedExponential)
{
    resilience::SupervisorOptions o;
    o.backoffBase = std::chrono::milliseconds{100};
    o.backoffFactor = 2.0;
    o.backoffCap = std::chrono::milliseconds{300};
    const resilience::RunSupervisor sup(o);
    EXPECT_EQ(sup.backoffDelay(1).count(), 100);
    EXPECT_EQ(sup.backoffDelay(2).count(), 200);
    EXPECT_EQ(sup.backoffDelay(3).count(), 300); // capped (400 -> 300)
    EXPECT_EQ(sup.backoffDelay(4).count(), 300);
}

TEST(RunSupervisor, RetriesTransientFailuresWithBackoff)
{
    resilience::SupervisorOptions o;
    o.maxAttempts = 5;
    o.backoffBase = std::chrono::milliseconds{100};
    o.backoffFactor = 2.0;
    o.backoffCap = std::chrono::milliseconds{5000};

    std::vector<std::int64_t> slept;
    resilience::RunSupervisor sup(
        o, [&](std::chrono::milliseconds d) {
            slept.push_back(d.count());
        });

    int calls = 0;
    const resilience::RunOutcome out = sup.supervise(
        [&](int, resilience::Heartbeat &) -> sim::SimulationReport {
            if (++calls < 3)
                throw std::runtime_error("transient failure");
            sim::SimulationReport r;
            r.steps = 7;
            return r;
        },
        4);

    EXPECT_TRUE(out.succeeded);
    EXPECT_EQ(out.attempts, 3);
    EXPECT_EQ(out.stalls, 0);
    EXPECT_EQ(out.degradations, 0);
    EXPECT_EQ(out.finalThreads, 4); // no stall, no degradation
    EXPECT_EQ(out.report.steps, 7);
    EXPECT_TRUE(out.error.empty());
    ASSERT_EQ(slept.size(), 2u);
    EXPECT_EQ(slept[0], 100);
    EXPECT_EQ(slept[1], 200);
}

TEST(RunSupervisor, StallsDegradeThreadsAndExhaustAttempts)
{
    resilience::SupervisorOptions o;
    o.maxAttempts = 3;
    o.backoffBase = std::chrono::milliseconds{0};
    o.backoffCap = std::chrono::milliseconds{0};
    resilience::RunSupervisor sup(o,
                                  [](std::chrono::milliseconds) {});

    std::vector<int> thread_budgets;
    const resilience::RunOutcome out = sup.supervise(
        [&](int threads,
            resilience::Heartbeat &) -> sim::SimulationReport {
            thread_budgets.push_back(threads);
            throw resilience::StallError("stuck");
        },
        8);

    EXPECT_FALSE(out.succeeded);
    EXPECT_EQ(out.attempts, 3);
    EXPECT_EQ(out.stalls, 3);
    EXPECT_EQ(out.degradations, 3); // 8 -> 4 -> 2 -> 1
    EXPECT_EQ(out.error, "stuck");
    EXPECT_EQ(thread_budgets, (std::vector<int>{8, 4, 2}));
}

TEST(RunSupervisor, DegradationCanBeDisabled)
{
    resilience::SupervisorOptions o;
    o.maxAttempts = 2;
    o.backoffBase = std::chrono::milliseconds{0};
    o.backoffCap = std::chrono::milliseconds{0};
    o.degradeThreadsOnStall = false;
    resilience::RunSupervisor sup(o,
                                  [](std::chrono::milliseconds) {});

    std::vector<int> thread_budgets;
    const resilience::RunOutcome out = sup.supervise(
        [&](int threads,
            resilience::Heartbeat &) -> sim::SimulationReport {
            thread_budgets.push_back(threads);
            throw resilience::StallError("stuck");
        },
        8);
    EXPECT_EQ(out.degradations, 0);
    EXPECT_EQ(thread_budgets, (std::vector<int>{8, 8}));
}

#ifdef __linux__
TEST(RunSupervisor, ZeroBudgetFollowsTheAffinityMask)
{
    // A 0 budget means the CPUs this thread may run on — what the
    // engine's WorkerPool sizes a 0 budget to — not the machine's core
    // count: narrow the mask to one CPU and the attempt sees 1 thread.
    cpu_set_t original;
    CPU_ZERO(&original);
    ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
    const int first = [&] {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original))
                return c;
        return -1;
    }();
    ASSERT_GE(first, 0);
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    CPU_SET(first, &narrow);
    ASSERT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);

    resilience::RunSupervisor sup(resilience::SupervisorOptions{},
                                  [](std::chrono::milliseconds) {});
    int seen = -1;
    const resilience::RunOutcome out = sup.supervise(
        [&](int threads,
            resilience::Heartbeat &) -> sim::SimulationReport {
            seen = threads;
            return {};
        },
        0);

    ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
    EXPECT_TRUE(out.succeeded);
    EXPECT_EQ(seen, 1);
    EXPECT_EQ(out.finalThreads, 1);
}
#endif

// The stall tests sleep for real: a beat is a stall once more than
// stallTimeout of steady-clock time has passed, and sleeping three
// timeouts guarantees that on any host.  The fake sleeper only skips
// the backoff between attempts.

TEST(RunSupervisor, BeatAfterSilencePastTimeoutStallsAndHalvesBudget)
{
    resilience::SupervisorOptions o;
    o.maxAttempts = 2;
    o.stallTimeout = std::chrono::milliseconds{20};
    resilience::RunSupervisor sup(o,
                                  [](std::chrono::milliseconds) {});

    std::vector<int> thread_budgets;
    const resilience::RunOutcome out = sup.supervise(
        [&](int threads,
            resilience::Heartbeat &hb) -> sim::SimulationReport {
            thread_budgets.push_back(threads);
            hb.beat(1);
            std::this_thread::sleep_for(std::chrono::milliseconds{60});
            hb.beat(2); // 60 ms of silence: must throw StallError
            ADD_FAILURE() << "a beat after the timeout did not stall";
            return {};
        },
        8);

    EXPECT_FALSE(out.succeeded);
    EXPECT_EQ(out.stalls, 2);
    EXPECT_EQ(out.degradations, 2);
    EXPECT_EQ(thread_budgets, (std::vector<int>{8, 4}));
    EXPECT_NE(out.error.find("stalled"), std::string::npos) << out.error;
}

TEST(RunSupervisor, BeatsInsideTimeoutNeverStall)
{
    resilience::SupervisorOptions o;
    o.maxAttempts = 1;
    o.stallTimeout = std::chrono::milliseconds{10000};
    resilience::RunSupervisor sup(o,
                                  [](std::chrono::milliseconds) {});

    const resilience::RunOutcome out = sup.supervise(
        [&](int, resilience::Heartbeat &hb) -> sim::SimulationReport {
            for (std::int64_t step = 1; step <= 20; ++step) {
                std::this_thread::sleep_for(std::chrono::milliseconds{1});
                hb.beat(step);
            }
            sim::SimulationReport r;
            r.steps = 20;
            return r;
        },
        4);

    EXPECT_TRUE(out.succeeded) << out.error;
    EXPECT_EQ(out.stalls, 0);
    EXPECT_EQ(out.finalThreads, 4);
    EXPECT_EQ(out.report.steps, 20);
}

TEST(RunSupervisor, SlowStartBeforeFirstBeatIsAStall)
{
    // The silence clock starts with the attempt, so a slow engine build
    // counts against the first beat.
    resilience::SupervisorOptions o;
    o.maxAttempts = 1;
    o.stallTimeout = std::chrono::milliseconds{20};
    resilience::RunSupervisor sup(o,
                                  [](std::chrono::milliseconds) {});

    const resilience::RunOutcome out = sup.supervise(
        [&](int, resilience::Heartbeat &hb) -> sim::SimulationReport {
            std::this_thread::sleep_for(std::chrono::milliseconds{60});
            hb.beat(1);
            ADD_FAILURE() << "the first beat after a slow start did not "
                             "stall";
            return {};
        },
        2);

    EXPECT_FALSE(out.succeeded);
    EXPECT_EQ(out.stalls, 1);
    EXPECT_EQ(out.degradations, 1);
}

TEST(RunSupervisor, ZeroTimeoutDisablesTheStallCheck)
{
    resilience::RunSupervisor sup(resilience::SupervisorOptions{},
                                  [](std::chrono::milliseconds) {});
    const resilience::RunOutcome out = sup.supervise(
        [&](int, resilience::Heartbeat &hb) -> sim::SimulationReport {
            std::this_thread::sleep_for(std::chrono::milliseconds{30});
            hb.beat(1);
            return {};
        },
        1);
    EXPECT_TRUE(out.succeeded) << out.error;
    EXPECT_EQ(out.stalls, 0);
}

TEST(ModelStepDeadline, FollowsEq1AndClampsToFloor)
{
    core::SmvpShape shape;
    shape.flops = 1e6;
    shape.wordsMax = 1e4;
    shape.blocksMax = 100;

    // 1e6 * 1e-6 s + 1e4 * 1e-4 s = 2 s; x3 slack = 6000 ms.
    const auto d = resilience::modelStepDeadline(shape, 1e-6, 1e-4, 3.0);
    EXPECT_EQ(d.count(), 6000);

    // A tiny problem clamps to the floor.
    const auto tiny = resilience::modelStepDeadline(
        shape, 1e-12, 0.0, 1.0, std::chrono::milliseconds{50});
    EXPECT_EQ(tiny.count(), 50);

    EXPECT_THROW(resilience::modelStepDeadline(shape, 0.0, 1e-4, 3.0),
                 FatalError);
    EXPECT_THROW(resilience::modelStepDeadline(shape, 1e-6, -1.0, 3.0),
                 FatalError);
    EXPECT_THROW(resilience::modelStepDeadline(shape, 1e-6, 1e-4, 0.0),
                 FatalError);
}

// ---------------------------------------------------------------------
// End-to-end supervised runs on the lattice scenario.
// ---------------------------------------------------------------------

TEST(SupervisedRun, PlainRunSucceedsWithoutCheckpointing)
{
    const Lattice lat;
    const resilience::RunOutcome out = resilience::runSupervisedSimulation(
        lat.mesh, lat.model, latticeConfig(), {});
    EXPECT_TRUE(out.succeeded) << out.error;
    EXPECT_EQ(out.attempts, 1);
    EXPECT_EQ(out.restarts, 0);
    EXPECT_EQ(out.report.steps, 12);
    EXPECT_NE(out.stateFingerprint, 0u);
}

TEST(SupervisedRun, ResumeFromMidRunCheckpointMatchesUninterrupted)
{
    const Lattice lat;
    const sim::SimulationConfig config = latticeConfig();
    const std::string path = "test_resilience_resume.ckpt";
    std::remove(path.c_str());

    resilience::ResilientRunOptions opts;
    opts.checkpointPath = path;
    opts.checkpointEvery = 5; // checkpoints at steps 5 and 10 of 12

    const resilience::RunOutcome golden =
        resilience::runSupervisedSimulation(lat.mesh, lat.model, config,
                                            opts);
    ASSERT_TRUE(golden.succeeded) << golden.error;

    // Rewrite the mid-run checkpoint (step 10 was the last written; to
    // force a genuine partial resume, re-run with a coarser interval so
    // the file holds step 10, then resume and advance the final 2
    // steps).  The resumed run must land on the exact same final state.
    resilience::ResilientRunOptions resume = opts;
    resume.resume = true;
    const resilience::RunOutcome resumed =
        resilience::runSupervisedSimulation(lat.mesh, lat.model, config,
                                            resume);
    ASSERT_TRUE(resumed.succeeded) << resumed.error;
    EXPECT_EQ(resumed.restarts, 1);
    EXPECT_EQ(resumed.resumedFromStep, 10);
    EXPECT_EQ(resumed.report.steps, 12);
    EXPECT_EQ(resumed.stateFingerprint, golden.stateFingerprint);
    EXPECT_EQ(resumed.report.peakDisplacement,
              golden.report.peakDisplacement);
    ASSERT_EQ(resumed.report.samples.size(),
              golden.report.samples.size());

    std::remove(path.c_str());
}

TEST(SupervisedRun, ResumeUnderDifferentExecutionKnobsStillMatches)
{
    const Lattice lat;
    const sim::SimulationConfig config = latticeConfig();
    const std::string path = "test_resilience_reshuffle.ckpt";
    std::remove(path.c_str());

    resilience::ResilientRunOptions opts;
    opts.checkpointPath = path;
    opts.checkpointEvery = 5;
    const resilience::RunOutcome golden =
        resilience::runSupervisedSimulation(lat.mesh, lat.model, config,
                                            opts);
    ASSERT_TRUE(golden.succeeded) << golden.error;

    // The trajectory is bitwise invariant across threads / exchange
    // mode / fused-unfused, so resuming under different knobs is legal
    // and must land on the same final displacement state.  (The state
    // fingerprint also covers the kinetic-energy reduction, which is
    // only tolerance-equal across fused<->unfused, so flip everything
    // EXCEPT the fused flag here.)
    sim::SimulationConfig other = config;
    other.smvpThreads = 1;
    other.overlapSmvp = !other.overlapSmvp;
    resilience::ResilientRunOptions resume = opts;
    resume.resume = true;
    const resilience::RunOutcome resumed =
        resilience::runSupervisedSimulation(lat.mesh, lat.model, other,
                                            resume);
    ASSERT_TRUE(resumed.succeeded) << resumed.error;
    EXPECT_EQ(resumed.restarts, 1);
    EXPECT_EQ(resumed.stateFingerprint, golden.stateFingerprint);

    std::remove(path.c_str());
}

TEST(SupervisedRun, RejectsInconsistentOptions)
{
    const Lattice lat;
    resilience::ResilientRunOptions opts;
    opts.checkpointEvery = 5; // but no path
    EXPECT_THROW(resilience::runSupervisedSimulation(
                     lat.mesh, lat.model, latticeConfig(), opts),
                 FatalError);

    opts = {};
    opts.resume = true; // but no path
    EXPECT_THROW(resilience::runSupervisedSimulation(
                     lat.mesh, lat.model, latticeConfig(), opts),
                 FatalError);

    opts = {};
    opts.checkpointPath = "x.ckpt";
    opts.checkpointEvery = -1;
    EXPECT_THROW(resilience::runSupervisedSimulation(
                     lat.mesh, lat.model, latticeConfig(), opts),
                 FatalError);
}

// ---------------------------------------------------------------------
// Checkpoint bytes pinned by FNV-1a: the values were recorded from the
// library before checkpoints moved from a stepper hook into the run
// loop's observer, so the move provably kept every byte.
// ---------------------------------------------------------------------

std::uint64_t
fileHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), 1568u);
    return common::fnv1a(bytes.data(), bytes.size());
}

TEST(CheckpointPin, SupervisedRunFileBytes)
{
    // The lattice scenario checkpointed every 5 of 12 steps: the file
    // left behind holds step 10.
    const Lattice lat;
    const std::string path = "test_resilience_pin.ckpt";
    std::remove(path.c_str());
    resilience::ResilientRunOptions opts;
    opts.checkpointPath = path;
    opts.checkpointEvery = 5;
    const resilience::RunOutcome out = resilience::runSupervisedSimulation(
        lat.mesh, lat.model, latticeConfig(), opts);
    ASSERT_TRUE(out.succeeded) << out.error;
    EXPECT_EQ(fileHash(path), 0x67dd7a361185817aULL);
    std::remove(path.c_str());
}

TEST(CheckpointPin, StepSixSnapshotBytes)
{
    // checkpoint_tool's snapshot: the same scenario at step 6, taken
    // from the run loop's observer.
    const Lattice lat;
    const sim::SimulationConfig config = latticeConfig();
    sim::SimulationEngine engine =
        sim::makeSimulationEngine(lat.mesh, lat.model, config);
    sim::SimulationReport report;
    report.dt = engine.dt;
    resilience::Checkpoint mid;
    sim::advanceSimulation(engine, config, report, [&](std::int64_t step) {
        if (step == 6)
            mid = resilience::snapshot(engine, report);
    });
    const std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(mid);
    EXPECT_EQ(bytes.size(), 1544u);
    EXPECT_EQ(common::fnv1a(bytes.data(), bytes.size()),
              0xe3dfa0cb8a908f6bULL);
}

} // namespace

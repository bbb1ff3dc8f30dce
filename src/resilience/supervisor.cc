#include "resilience/supervisor.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/error.h"
#include "parallel/worker_pool.h"

namespace quake::resilience
{

void
SupervisorOptions::validate() const
{
    QUAKE_EXPECT(maxAttempts >= 1,
                 "maxAttempts must be >= 1, got " << maxAttempts);
    QUAKE_EXPECT(stallTimeout.count() >= 0,
                 "stallTimeout must be >= 0 ms, got "
                     << stallTimeout.count());
    QUAKE_EXPECT(pollInterval.count() > 0,
                 "pollInterval must be positive, got "
                     << pollInterval.count());
    QUAKE_EXPECT(backoffBase.count() >= 0,
                 "backoffBase must be >= 0 ms, got "
                     << backoffBase.count());
    QUAKE_EXPECT(backoffFactor >= 1.0 && std::isfinite(backoffFactor),
                 "backoffFactor must be >= 1 and finite, got "
                     << backoffFactor);
    QUAKE_EXPECT(backoffCap >= backoffBase,
                 "backoffCap (" << backoffCap.count()
                                << " ms) must be >= backoffBase ("
                                << backoffBase.count() << " ms)");
}

RunSupervisor::RunSupervisor(SupervisorOptions options, SleepFn sleep)
    : options_(options), sleep_(std::move(sleep))
{
    options_.validate();
    if (!sleep_)
        sleep_ = [](std::chrono::milliseconds d) {
            std::this_thread::sleep_for(d);
        };
}

std::chrono::milliseconds
RunSupervisor::backoffDelay(int retry) const
{
    QUAKE_REQUIRE(retry >= 1, "backoffDelay retry index must be >= 1");
    double ms = static_cast<double>(options_.backoffBase.count()) *
                std::pow(options_.backoffFactor, retry - 1);
    ms = std::min(ms, static_cast<double>(options_.backoffCap.count()));
    return std::chrono::milliseconds{
        static_cast<std::chrono::milliseconds::rep>(ms)};
}

namespace
{

/**
 * Watchdog thread body: poll the heartbeat; when no new beat arrives
 * for `timeout`, cancel the attempt and exit.  `done` stops the
 * watchdog when the attempt finishes on its own.
 */
void
watchdogLoop(Heartbeat &hb, std::atomic<bool> &done,
             std::chrono::milliseconds timeout,
             std::chrono::milliseconds poll)
{
    auto last_change = std::chrono::steady_clock::now();
    std::uint64_t last_beats = hb.beats();
    while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(poll);
        const std::uint64_t beats = hb.beats();
        const auto now = std::chrono::steady_clock::now();
        if (beats != last_beats) {
            last_beats = beats;
            last_change = now;
            continue;
        }
        if (now - last_change >= timeout) {
            hb.cancel();
            return;
        }
    }
}

} // namespace

RunOutcome
RunSupervisor::supervise(const AttemptFn &attempt, int initialThreads)
{
    QUAKE_EXPECT(static_cast<bool>(attempt),
                 "supervise requires a non-null attempt body");
    QUAKE_EXPECT(initialThreads >= 0,
                 "initialThreads must be >= 0, got " << initialThreads);
    int threads = initialThreads > 0
                      ? initialThreads
                      : parallel::WorkerPool::hardwareThreads();

    RunOutcome outcome;
    Heartbeat hb;
    for (int att = 1; att <= options_.maxAttempts; ++att) {
        outcome.attempts = att;
        outcome.finalThreads = threads;
        hb.reset();

        std::atomic<bool> done{false};
        std::thread watchdog;
        if (options_.stallTimeout.count() > 0)
            watchdog = std::thread(watchdogLoop, std::ref(hb),
                                   std::ref(done), options_.stallTimeout,
                                   options_.pollInterval);

        bool stalled = false;
        try {
            outcome.report = attempt(threads, hb);
            outcome.succeeded = true;
            outcome.error.clear();
        } catch (const StallError &e) {
            stalled = true;
            outcome.error = e.what();
        } catch (const std::exception &e) {
            outcome.error = e.what();
            // A cancel that surfaced as some other exception is still a
            // stall for policy purposes.
            stalled = hb.cancelled();
        }
        done.store(true, std::memory_order_relaxed);
        if (watchdog.joinable())
            watchdog.join();

        if (outcome.succeeded)
            return outcome;

        if (stalled) {
            ++outcome.stalls;
            if (options_.degradeThreadsOnStall && threads > 1) {
                threads = std::max(1, threads / 2);
                ++outcome.degradations;
            }
        }
        if (att < options_.maxAttempts) {
            const auto delay = backoffDelay(att);
            if (delay.count() > 0)
                sleep_(delay);
        }
    }
    return outcome;
}

std::chrono::milliseconds
modelStepDeadline(const core::SmvpShape &shape, double tf, double tc,
                  double slack, std::chrono::milliseconds floor)
{
    QUAKE_EXPECT(tf > 0 && std::isfinite(tf),
                 "tf must be positive and finite, got " << tf);
    QUAKE_EXPECT(tc >= 0 && std::isfinite(tc),
                 "tc must be >= 0 and finite, got " << tc);
    QUAKE_EXPECT(slack > 0 && std::isfinite(slack),
                 "slack must be positive and finite, got " << slack);
    const double step_seconds =
        shape.flops * tf + shape.wordsMax * tc;
    const double ms = 1000.0 * slack * step_seconds;
    const auto deadline = std::chrono::milliseconds{
        static_cast<std::chrono::milliseconds::rep>(std::ceil(ms))};
    return std::max(deadline, floor);
}

namespace
{

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Shared between attempts of one supervised scenario run. */
struct ScenarioState
{
    int attemptsStarted = 0;
    int resumes = 0;
    std::int64_t lastResumeStep = 0;
    std::uint64_t finalFingerprint = 0;
};

} // namespace

RunOutcome
runSupervisedSimulation(const mesh::TetMesh &mesh,
                        const mesh::SoilModel &model,
                        const sim::SimulationConfig &config,
                        const ResilientRunOptions &options)
{
    config.validate();
    options.supervisor.validate();
    QUAKE_EXPECT(options.checkpointEvery >= 0,
                 "checkpointEvery must be >= 0, got "
                     << options.checkpointEvery);
    QUAKE_EXPECT(options.checkpointEvery == 0 ||
                     !options.checkpointPath.empty(),
                 "checkpointEvery > 0 requires a checkpoint path");
    QUAKE_EXPECT(!options.resume || !options.checkpointPath.empty(),
                 "--resume requires a checkpoint path");

    auto state = std::make_shared<ScenarioState>();

    const AttemptFn attempt = [&, state](int threads,
                                         Heartbeat &hb) {
        sim::SimulationConfig cfg = config;
        if (cfg.numPes > 1)
            cfg.smvpThreads = threads;
        sim::SimulationEngine engine =
            sim::makeSimulationEngine(mesh, model, cfg);
        sim::ExplicitTimeStepper &stepper = *engine.stepper;

        sim::SimulationReport report;
        report.dt = engine.dt;

        // Resume when asked (first attempt) or when a prior attempt of
        // this very run left a checkpoint behind (retries).
        ++state->attemptsStarted;
        const bool try_resume =
            !options.checkpointPath.empty() &&
            (options.resume || state->attemptsStarted > 1) &&
            fileExists(options.checkpointPath);
        if (try_resume) {
            const Checkpoint ckpt =
                readCheckpoint(options.checkpointPath);
            requireCompatible(ckpt, engine);
            stepper.restoreState(ckpt.state);
            report.peakDisplacement = ckpt.reportPeak;
            report.samples = ckpt.samples;
            ++state->resumes;
            state->lastResumeStep = ckpt.state.steps;
            if (cfg.collector != nullptr)
                cfg.collector->add(0, telemetry::Counter::kRunRestarts,
                                   1);
        }

        if (options.checkpointEvery > 0) {
            // The hook fires inside step() before the loop folds the
            // current step into the live report, so fold it here: the
            // snapshot must equal what an uninterrupted run's report
            // holds after this step.
            auto *collector = cfg.collector;
            auto *report_p = &report;
            const auto *engine_p = &engine;
            const int sample_every = cfg.sampleInterval;
            stepper.checkpointEvery(
                options.checkpointEvery,
                [collector, report_p, engine_p, sample_every,
                 &options](const sim::ExplicitTimeStepper &st) {
                    Checkpoint ckpt;
                    ckpt.fingerprint = engine_p->fingerprint;
                    ckpt.dt = engine_p->dt;
                    ckpt.plannedSteps = engine_p->plannedSteps;
                    st.saveState(ckpt.state);
                    ckpt.reportPeak =
                        std::max(report_p->peakDisplacement,
                                 st.peakDisplacement());
                    ckpt.samples = report_p->samples;
                    if (sample_every > 0 &&
                        st.stepCount() % sample_every == 0)
                        ckpt.samples.push_back(sim::FieldSample{
                            st.time(), st.peakDisplacement(),
                            st.kineticEnergy()});
                    const std::size_t bytes =
                        writeCheckpoint(options.checkpointPath, ckpt);
                    if (collector != nullptr && collector->enabled()) {
                        collector->add(
                            0, telemetry::Counter::kCheckpointsWritten,
                            1);
                        collector->add(
                            0, telemetry::Counter::kCheckpointBytes,
                            bytes);
                    }
                });
        }

        sim::advanceSimulation(engine, cfg, report,
                               [&hb](std::int64_t step) {
                                   hb.beat(step);
                                   if (hb.cancelled())
                                       throw StallError(
                                           "attempt cancelled by the "
                                           "watchdog (heartbeat stall)");
                               });

        // Final-state fingerprint for the outcome (and for textual
        // comparison by the kill/resume smoke).
        Checkpoint fin;
        fin.fingerprint = engine.fingerprint;
        fin.dt = engine.dt;
        fin.plannedSteps = engine.plannedSteps;
        stepper.saveState(fin.state);
        fin.reportPeak = report.peakDisplacement;
        fin.samples = report.samples;
        state->finalFingerprint = stateFingerprint(fin);
        return report;
    };

    RunSupervisor supervisor(options.supervisor);
    RunOutcome outcome = supervisor.supervise(
        attempt, config.numPes > 1 ? config.smvpThreads : 1);
    outcome.restarts = state->resumes;
    outcome.resumedFromStep = state->lastResumeStep;
    outcome.stateFingerprint = state->finalFingerprint;
    if (config.collector != nullptr && outcome.degradations > 0) {
        config.collector->ensureSlots(1);
        config.collector->add(0, telemetry::Counter::kRunDegradations,
                              static_cast<std::uint64_t>(
                                  outcome.degradations));
    }
    return outcome;
}

} // namespace quake::resilience

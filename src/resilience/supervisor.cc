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

Heartbeat::Heartbeat(std::chrono::milliseconds stallTimeout)
    : timeout_(stallTimeout), last_(std::chrono::steady_clock::now())
{
}

void
Heartbeat::beat(std::int64_t step)
{
    if (timeout_.count() == 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    if (now - last_ > timeout_) {
        const auto silent =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                now - last_);
        throw StallError("attempt stalled: no heartbeat for " +
                         std::to_string(silent.count()) +
                         " ms before step " + std::to_string(step) +
                         " (deadline " + std::to_string(timeout_.count()) +
                         " ms)");
    }
    last_ = now;
}

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
    for (int att = 1; att <= options_.maxAttempts; ++att) {
        outcome.attempts = att;
        outcome.finalThreads = threads;

        Heartbeat hb(options_.stallTimeout);
        try {
            outcome.report = attempt(threads, hb);
            outcome.succeeded = true;
            outcome.error.clear();
            return outcome;
        } catch (const StallError &e) {
            outcome.error = e.what();
            ++outcome.stalls;
            if (options_.degradeThreadsOnStall && threads > 1) {
                threads = std::max(1, threads / 2);
                ++outcome.degradations;
            }
        } catch (const std::exception &e) {
            outcome.error = e.what();
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

    ScenarioState state;
    const AttemptFn attempt = [&](int threads, Heartbeat &hb) {
        sim::SimulationConfig cfg = config;
        if (cfg.numPes > 1)
            cfg.smvpThreads = threads;
        sim::SimulationEngine engine =
            sim::makeSimulationEngine(mesh, model, cfg);

        sim::SimulationReport report;
        report.dt = engine.dt;

        // Resume when asked (first attempt) or when a prior attempt of
        // this very run left a checkpoint behind (retries).
        ++state.attemptsStarted;
        const bool try_resume =
            !options.checkpointPath.empty() &&
            (options.resume || state.attemptsStarted > 1) &&
            fileExists(options.checkpointPath);
        if (try_resume) {
            const Checkpoint ckpt = readCheckpoint(options.checkpointPath);
            restore(ckpt, engine, report);
            ++state.resumes;
            state.lastResumeStep = ckpt.state.steps;
            if (cfg.collector != nullptr)
                cfg.collector->add(0, telemetry::Counter::kRunRestarts,
                                   1);
        }

        // The observer runs after the loop has folded the step into
        // the report, so the snapshot is exactly what an uninterrupted
        // run holds there.  Checkpoint first, then beat.
        telemetry::Collector *tele = cfg.collector;
        sim::advanceSimulation(
            engine, cfg, report, [&](std::int64_t step) {
                if (options.checkpointEvery > 0 &&
                    step % options.checkpointEvery == 0) {
                    const std::size_t bytes = writeCheckpoint(
                        options.checkpointPath, snapshot(engine, report));
                    if (tele != nullptr && tele->enabled()) {
                        tele->add(0, telemetry::Counter::kCheckpointsWritten,
                                  1);
                        tele->add(0, telemetry::Counter::kCheckpointBytes,
                                  bytes);
                    }
                }
                hb.beat(step);
            });

        // Final-state fingerprint for the outcome (and for textual
        // comparison by the kill/resume smoke).
        state.finalFingerprint = stateFingerprint(snapshot(engine, report));
        return report;
    };

    RunSupervisor supervisor(options.supervisor);
    RunOutcome outcome = supervisor.supervise(
        attempt, config.numPes > 1 ? config.smvpThreads : 1);
    outcome.restarts = state.resumes;
    outcome.resumedFromStep = state.lastResumeStep;
    outcome.stateFingerprint = state.finalFingerprint;
    if (config.collector != nullptr && outcome.degradations > 0) {
        config.collector->ensureSlots(1);
        config.collector->add(0, telemetry::Counter::kRunDegradations,
                              static_cast<std::uint64_t>(
                                  outcome.degradations));
    }
    return outcome;
}

} // namespace quake::resilience

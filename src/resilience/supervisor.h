/**
 * @file
 * Watchdog-supervised scenario execution (DESIGN.md §11).  The paper's
 * runs are long — hours of wall time across thousands of SMVP steps —
 * so the resilience layer wraps the stepping loop in a supervisor that
 * (a) heartbeats step progress, (b) cancels an attempt whose heartbeat
 * stalls past a deadline derived from the Eq.(1) per-step model
 * prediction, (c) restores from the last good checkpoint and retries
 * under capped exponential backoff, and (d) degrades the thread count
 * after repeated stalls, on the theory that a straggling core is the
 * most common cause of stuck progress on shared machines.
 *
 * The supervisor is generic over the attempt body so the retry /
 * backoff / watchdog state machine is unit-testable with injected
 * failures and a fake sleeper; runSupervisedSimulation binds it to the
 * real engine + checkpoint subsystem.
 */

#ifndef QUAKE98_RESILIENCE_SUPERVISOR_H_
#define QUAKE98_RESILIENCE_SUPERVISOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "core/perf_model.h"
#include "quake/simulation.h"
#include "resilience/checkpoint.h"

namespace quake::resilience
{

/**
 * Shared progress channel between an attempt and its watchdog: the
 * attempt beats once per completed step; the watchdog cancels by flag,
 * which the attempt observes at its next step boundary.
 */
class Heartbeat
{
  public:
    /** Record progress at `step` (called by the attempt, per step). */
    void
    beat(std::int64_t step)
    {
        last_step_.store(step, std::memory_order_relaxed);
        beats_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Most recent step reported. */
    std::int64_t
    lastStep() const
    {
        return last_step_.load(std::memory_order_relaxed);
    }

    /** Total beats observed (monotone; the watchdog watches this). */
    std::uint64_t
    beats() const
    {
        return beats_.load(std::memory_order_relaxed);
    }

    /** Ask the attempt to stop at its next step boundary. */
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** Re-arm for the next attempt. */
    void
    reset()
    {
        last_step_.store(0, std::memory_order_relaxed);
        beats_.store(0, std::memory_order_relaxed);
        cancelled_.store(false, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> last_step_{0};
    std::atomic<std::uint64_t> beats_{0};
    std::atomic<bool> cancelled_{false};
};

/** Thrown inside an attempt when the watchdog cancels it. */
struct StallError : std::runtime_error
{
    explicit StallError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Retry / watchdog policy. */
struct SupervisorOptions
{
    /** Maximum attempts (first run + retries); >= 1. */
    int maxAttempts = 3;

    /**
     * Watchdog deadline: cancel the attempt when no heartbeat arrives
     * for this long.  0 disables the watchdog (retry policy still
     * applies to thrown failures).
     */
    std::chrono::milliseconds stallTimeout{0};

    /** Watchdog poll interval. */
    std::chrono::milliseconds pollInterval{50};

    /** First backoff delay before a retry. */
    std::chrono::milliseconds backoffBase{100};

    /** Backoff multiplier per additional retry. */
    double backoffFactor = 2.0;

    /** Backoff ceiling. */
    std::chrono::milliseconds backoffCap{5000};

    /**
     * Halve the attempt's thread budget after a stall-cancelled
     * attempt (never below 1).  Thread-count changes are bitwise-safe:
     * the engine is proven invariant across thread counts.
     */
    bool degradeThreadsOnStall = true;

    /** Reject nonsensical policies (FatalError naming the field). */
    void validate() const;
};

/** What happened across all attempts of one supervised run. */
struct RunOutcome
{
    bool succeeded = false;
    int attempts = 0;       ///< attempts started (>= 1)
    int restarts = 0;       ///< attempts that resumed from a checkpoint
    int degradations = 0;   ///< thread-budget halvings applied
    int stalls = 0;         ///< attempts cancelled by the watchdog
    std::int64_t resumedFromStep = 0; ///< last resume point (0 = cold)
    int finalThreads = 0;   ///< thread budget of the final attempt
    std::string error;      ///< last failure message when !succeeded
    sim::SimulationReport report;   ///< valid when succeeded
    std::uint64_t stateFingerprint = 0; ///< final-state hash (succeeded)
};

/**
 * The per-attempt body: run (or resume) the scenario under `threads`,
 * beating `heartbeat` every step and aborting promptly once
 * heartbeat.cancelled().  Throws to report failure.
 */
using AttemptFn =
    std::function<sim::SimulationReport(int threads, Heartbeat &heartbeat)>;

/** Injectable sleep for tests (defaults to std::this_thread). */
using SleepFn = std::function<void(std::chrono::milliseconds)>;

/**
 * Retry/backoff/watchdog driver, generic over the attempt body.
 * Runs `attempt` up to options.maxAttempts times; between attempts
 * sleeps min(cap, base * factor^(retries-1)); when the watchdog is
 * armed, a heartbeat silence past stallTimeout cancels the attempt
 * (cooperatively — the attempt must poll heartbeat.cancelled()) and
 * optionally halves the thread budget for the next one.
 */
class RunSupervisor
{
  public:
    explicit RunSupervisor(SupervisorOptions options, SleepFn sleep = {});

    /**
     * Supervise `attempt` starting with `initialThreads` (0 = the CPUs
     * in the affinity mask, as the engine sizes a 0 budget).  Never
     * throws on attempt failure — the outcome carries the last error;
     * configuration errors (bad options) still throw FatalError.
     */
    RunOutcome supervise(const AttemptFn &attempt, int initialThreads);

    /** Backoff before retry number `retry` (1-based) — exposed for tests. */
    std::chrono::milliseconds backoffDelay(int retry) const;

  private:
    SupervisorOptions options_;
    SleepFn sleep_;
};

/**
 * Per-step stall deadline from the Eq.(1) performance model (core/
 * perf_model.h): predicted SMVP seconds
 *   T_smvp = F * T_f + C_max * T_c
 * for the shape under per-flop time `tf` and per-word time `tc`, times
 * `slack`.  Gives the watchdog a model-informed timeout instead of a
 * magic constant; clamped below by `floor` so tiny problems aren't
 * starved by timer granularity.  FatalError on non-positive slack/tf
 * or negative tc.
 */
std::chrono::milliseconds
modelStepDeadline(const core::SmvpShape &shape, double tf, double tc,
                  double slack,
                  std::chrono::milliseconds floor =
                      std::chrono::milliseconds{50});

/** Options for a supervised, checkpointed scenario run. */
struct ResilientRunOptions
{
    /** Checkpoint file path; empty disables checkpointing. */
    std::string checkpointPath;

    /** Steps between checkpoints; 0 disables. */
    std::int64_t checkpointEvery = 0;

    /** Resume from checkpointPath if it exists and is compatible. */
    bool resume = false;

    SupervisorOptions supervisor;
};

/**
 * Run the full scenario under supervision: build the engine, optionally
 * restore from options.checkpointPath, advance with per-step heartbeat
 * + periodic atomic checkpoints, and on failure restore from the last
 * good checkpoint and retry per the supervisor policy.  config's
 * smvpThreads seeds the (degradable) thread budget.
 */
RunOutcome runSupervisedSimulation(const mesh::TetMesh &mesh,
                                   const mesh::SoilModel &model,
                                   const sim::SimulationConfig &config,
                                   const ResilientRunOptions &options);

} // namespace quake::resilience

#endif // QUAKE98_RESILIENCE_SUPERVISOR_H_

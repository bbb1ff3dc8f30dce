/**
 * @file
 * Supervised scenario execution (DESIGN.md §11).  The paper's runs are
 * long — hours of wall time across thousands of SMVP steps — so the
 * resilience layer wraps the stepping loop in a supervisor that
 * (a) heartbeats step progress from the loop itself, (b) abandons an
 * attempt whose next beat comes later than a deadline derived from the
 * Eq.(1) per-step model prediction, (c) restores from the last good
 * checkpoint and retries under capped exponential backoff, and
 * (d) degrades the thread count after repeated stalls, on the theory
 * that a straggling core is the most common cause of stuck progress on
 * shared machines.  Everything runs on the attempt's own thread.
 *
 * The supervisor is generic over the attempt body so the retry /
 * backoff / stall state machine is unit-testable with injected
 * failures and a fake sleeper; runSupervisedSimulation binds it to the
 * real engine + checkpoint subsystem.
 */

#ifndef QUAKE98_RESILIENCE_SUPERVISOR_H_
#define QUAKE98_RESILIENCE_SUPERVISOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/perf_model.h"
#include "quake/simulation.h"
#include "resilience/checkpoint.h"

namespace quake::resilience
{

/** Thrown by Heartbeat::beat when an attempt stalls. */
struct StallError : std::runtime_error
{
    explicit StallError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Step-progress check of one attempt, single-threaded: the attempt's
 * step loop beats once per completed step, and a beat that comes more
 * than the stall timeout after the previous one — or after the attempt
 * started, so engine construction counts — throws StallError.
 */
class Heartbeat
{
  public:
    /** Arm for one attempt; 0 disables the check. */
    explicit Heartbeat(std::chrono::milliseconds stallTimeout);

    /** Record progress at `step`; throws StallError on a stall. */
    void beat(std::int64_t step);

  private:
    std::chrono::milliseconds timeout_;
    std::chrono::steady_clock::time_point last_;
};

/** Retry / stall policy. */
struct SupervisorOptions
{
    /** Maximum attempts (first run + retries); >= 1. */
    int maxAttempts = 3;

    /**
     * Stall deadline: abandon the attempt when a heartbeat comes more
     * than this long after the previous one (or after the attempt
     * started).  0 disables the check (retry policy still applies to
     * thrown failures).
     */
    std::chrono::milliseconds stallTimeout{0};

    /** First backoff delay before a retry. */
    std::chrono::milliseconds backoffBase{100};

    /** Backoff multiplier per additional retry. */
    double backoffFactor = 2.0;

    /** Backoff ceiling. */
    std::chrono::milliseconds backoffCap{5000};

    /**
     * Halve the attempt's thread budget after a stalled attempt (never
     * below 1).  Thread-count changes are bitwise-safe: the engine is
     * proven invariant across thread counts.
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
    int stalls = 0;         ///< attempts abandoned as stalled
    std::int64_t resumedFromStep = 0; ///< last resume point (0 = cold)
    int finalThreads = 0;   ///< thread budget of the final attempt
    std::string error;      ///< last failure message when !succeeded
    sim::SimulationReport report;   ///< valid when succeeded
    std::uint64_t stateFingerprint = 0; ///< final-state hash (succeeded)
};

/**
 * The per-attempt body: run (or resume) the scenario under `threads`,
 * beating `heartbeat` every step, which throws StallError when the
 * attempt stalls.  Throws to report failure.
 */
using AttemptFn =
    std::function<sim::SimulationReport(int threads, Heartbeat &heartbeat)>;

/** Injectable sleep for tests (defaults to std::this_thread). */
using SleepFn = std::function<void(std::chrono::milliseconds)>;

/**
 * Retry/backoff/stall driver, generic over the attempt body.  Runs
 * `attempt` up to options.maxAttempts times; between attempts sleeps
 * min(cap, base * factor^(retries-1)); an attempt that throws
 * StallError (its heartbeat, armed with stallTimeout, saw a silence
 * past the deadline) counts as a stall and optionally halves the
 * thread budget for the next one.
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
 * `slack`.  Gives the stall check a model-informed timeout instead of a
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
 * restore from options.checkpointPath, advance with a step observer
 * that writes periodic atomic checkpoints and then beats the
 * heartbeat, and on failure restore from the last good checkpoint and
 * retry per the supervisor policy.  config's smvpThreads seeds the
 * (degradable) thread budget.
 */
RunOutcome runSupervisedSimulation(const mesh::TetMesh &mesh,
                                   const mesh::SoilModel &model,
                                   const sim::SimulationConfig &config,
                                   const ResilientRunOptions &options);

} // namespace quake::resilience

#endif // QUAKE98_RESILIENCE_SUPERVISOR_H_

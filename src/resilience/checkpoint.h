/**
 * @file
 * Deterministic checkpoint/restart for the Quake engine (DESIGN.md
 * §11).  A checkpoint is a versioned, sectioned, per-section-checksummed
 * binary snapshot of everything the stepping loop owns that the engine
 * construction does not reproduce: the displacement triad's live pair
 * (u_n, u_{n-1}), the step index, the cached peak/energy reductions,
 * and the report prefix (running peak + recorded samples).  Everything
 * else — matrix, mass, dt, damping, source — is rebuilt from the
 * scenario config and guarded by the engine's config fingerprint, so a
 * checkpoint can never silently resume against the wrong problem.
 *
 * Writes are atomic (temp file + fsync + rename): a crash mid-write
 * leaves the previous checkpoint intact, never a torn file.  Loads
 * refuse — with distinct FatalError messages — truncated files, foreign
 * files, version skew, per-section checksum mismatches, and config
 * fingerprint mismatches.
 */

#ifndef QUAKE98_RESILIENCE_CHECKPOINT_H_
#define QUAKE98_RESILIENCE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "quake/simulation.h"
#include "quake/time_stepper.h"

namespace quake::resilience
{

/** Format version; bumped on any layout change. */
constexpr std::uint32_t kCheckpointVersion = 1;

/** In-memory image of one checkpoint. */
struct Checkpoint
{
    /** Engine config fingerprint the state was produced under. */
    std::uint64_t fingerprint = 0;

    /** Time step, recorded for reporting (covered by the fingerprint). */
    double dt = 0.0;

    /** Planned total steps of the run being checkpointed. */
    std::int64_t plannedSteps = 0;

    /** Full integrator state at the checkpointed step. */
    sim::StepperState state;

    /** Running report prefix: peak over steps 1..state.steps. */
    double reportPeak = 0.0;

    /** Samples recorded up to and including the checkpointed step. */
    std::vector<sim::FieldSample> samples;
};

/**
 * Snapshot a run at a step boundary: the engine's fingerprint, dt and
 * planned steps, the integrator state, and the report's running peak
 * and samples.  Call it once advanceSimulation has folded the step
 * into `report` — from a StepObserver, or after the run returns — so
 * the image is exactly what an uninterrupted run holds at that step.
 */
Checkpoint snapshot(const sim::SimulationEngine &engine,
                    const sim::SimulationReport &report);

/**
 * Resume a run from `ckpt`: refuse a foreign fingerprint
 * (requireCompatible), restore the integrator state, and put back the
 * report's running peak and samples.  advanceSimulation then continues
 * bitwise identically to the run that took the snapshot.
 */
void restore(const Checkpoint &ckpt, sim::SimulationEngine &engine,
             sim::SimulationReport &report);

/**
 * Serialise `ckpt` and write it to `path` atomically (temp file in the
 * same directory + fsync + rename).  FatalError with errno context on
 * any IO failure.  Returns the serialised byte count.
 */
std::size_t writeCheckpoint(const std::string &path,
                            const Checkpoint &ckpt);

/**
 * Read and fully validate the checkpoint at `path`.  Throws FatalError
 * with a distinct message per failure class:
 *  - unreadable file (errno context),
 *  - "not a quake98 checkpoint" (bad magic),
 *  - "unsupported checkpoint version",
 *  - "checkpoint truncated" (short header/section/payload),
 *  - "checkpoint section ... checksum mismatch" (bit corruption),
 *  - "checkpoint has trailing garbage".
 */
Checkpoint readCheckpoint(const std::string &path);

/**
 * Refuse (FatalError) unless `ckpt` was produced under an engine whose
 * fingerprint matches — i.e. the same mesh, partition count, matrix,
 * mass, dt, damping, and source.
 */
void requireCompatible(const Checkpoint &ckpt,
                       const sim::SimulationEngine &engine);

/**
 * FNV-1a fingerprint of the resumable state (step index, u, u_prev,
 * cached stats, report prefix).  Two runs with equal state fingerprints
 * at the same step are bitwise identical continuations; printed by the
 * CLI so the kill/resume smoke can compare runs textually.
 */
std::uint64_t stateFingerprint(const Checkpoint &ckpt);

/** Serialise to bytes (exact on-disk image) — exposed for tests. */
std::vector<std::uint8_t> serializeCheckpoint(const Checkpoint &ckpt);

/** Parse the on-disk image — exposed for tests. */
Checkpoint parseCheckpoint(const std::vector<std::uint8_t> &bytes,
                           const std::string &origin);

} // namespace quake::resilience

#endif // QUAKE98_RESILIENCE_CHECKPOINT_H_

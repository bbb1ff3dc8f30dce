/**
 * @file
 * The end-to-end Quake application (paper §2): generate (or accept) a
 * San Fernando-class mesh, assemble the elastic system, and propagate
 * seismic waves with the explicit stepper — sequentially or over a
 * partitioned set of logical PEs whose only communicating operation is
 * the SMVP, exactly as the paper describes.
 */

#ifndef QUAKE98_QUAKE_SIMULATION_H_
#define QUAKE98_QUAKE_SIMULATION_H_

#include <memory>
#include <vector>

#include "mesh/generator.h"
#include "mesh/soil_model.h"
#include "parallel/distributor.h"
#include "quake/seismogram.h"
#include "quake/time_stepper.h"

namespace quake::parallel
{
class ParallelSmvp;
}

namespace quake::sparse
{
class SlicedEll3Matrix;
}

namespace quake::sim
{

/** Configuration of one simulation run. */
struct SimulationConfig
{
    /** Simulated duration in seconds (the paper runs 60 s). */
    double durationSeconds = 10.0;

    /** CFL safety factor for the time step. */
    double cflSafety = 0.5;

    /** Poisson ratio of the ground material. */
    double poisson = 0.25;

    /** Mass-proportional Rayleigh damping a0 (1/s); 0 = undamped. */
    double dampingA0 = 0.0;

    /**
     * Subdomains to distribute over; 1 means run the sequential SMVP.
     * The distributed run uses the threaded parallel SMVP with logical
     * PEs multiplexed onto hardware threads.
     */
    int numPes = 1;

    /**
     * Worker threads of the distributed SMVP engine; 0 = hardware
     * concurrency (capped at numPes).  Ignored when numPes == 1.
     */
    int smvpThreads = 0;

    /**
     * Overlap the interior-row compute with the boundary exchange
     * (ExchangeMode::kOverlapped).  The result is bitwise identical
     * either way; this only changes scheduling.
     */
    bool overlapSmvp = true;

    /**
     * Run the fused zero-allocation step pipeline (DESIGN.md §8):
     * SMVP, central-difference update, and peak/energy statistics in
     * one pass, with no ku vector and no per-step heap allocation.
     * Displacements are bitwise identical with the flag off; this only
     * changes scheduling and memory traffic.
     */
    bool fusedStep = true;

    /**
     * SMVP kernel backend (DESIGN.md §12).  kSlicedEll3 converts the
     * stiffness into sliced-ELLPACK-3x3 slabs at engine construction
     * (global matrix when sequential, per-PE boundary/interior slabs
     * when distributed) and runs the SIMD-dispatched slice kernel.
     *
     * Unlike smvpThreads/overlapSmvp/fusedStep, this knob CHANGES the
     * trajectory bits: within one backend results stay bitwise
     * invariant across threads, modes, and fusion, but the two
     * backends agree only within ULP tolerance (FMA contraction on the
     * AVX2 path) — so the backend is folded into the checkpoint
     * fingerprint and a checkpoint cannot resume under the other one.
     */
    enum class KernelBackend
    {
        kBcsr3,      ///< blocked-CSR row kernel (the default)
        kSlicedEll3, ///< sliced-ELLPACK-3x3, SIMD dispatched
    };
    KernelBackend kernelBackend = KernelBackend::kBcsr3;

    /** Source description. */
    mesh::Vec3 hypocenter{25.0, 25.0, 8.0}; ///< under the basin
    mesh::Vec3 sourceDirection{0.0, 0.0, 1.0};
    RickerWavelet wavelet;

    /** Record energy/peak samples every this many steps. */
    int sampleInterval = 25;

    /**
     * Optional seismogram recorder (caller-owned); when set, station
     * displacements are recorded every sampleInterval steps.
     */
    Seismogram *recorder = nullptr;

    /** Hard cap on steps (guards tiny dt in tests); 0 = no cap. */
    std::int64_t maxSteps = 0;

    /**
     * Optional telemetry collector (caller-owned, DESIGN.md §9).  When
     * set and enabled, the stepper, SMVP engine, and worker pool record
     * phase spans, counters, and latency histograms into it — exported
     * after the run as a Chrome trace and/or metrics JSON by the
     * caller.  Telemetry is observation-only: the report and all
     * displacements are bitwise identical with it off.
     */
    telemetry::Collector *collector = nullptr;

    /**
     * Reject invalid field combinations (FatalError naming the field):
     * positive finite duration/cflSafety, poisson in [0, 0.5),
     * dampingA0 >= 0, numPes >= 1, smvpThreads >= 0,
     * sampleInterval >= 0, maxSteps >= 0.  runSimulation
     * calls this on entry; CLI front ends call it right after argument
     * parsing so a bad flag fails before any mesh is generated.
     */
    void validate() const;
};

/** One recorded sample of the wavefield. */
struct FieldSample
{
    double time = 0.0;
    double peakDisplacement = 0.0;
    double kineticEnergy = 0.0;
};

/** Results of a simulation run. */
struct SimulationReport
{
    std::int64_t steps = 0;
    double dt = 0.0;
    double simulatedSeconds = 0.0;
    double smvpSeconds = 0.0;   ///< wall time inside the SMVP
    double totalSeconds = 0.0;  ///< wall time inside step()
    double smvpFraction = 0.0;  ///< smvpSeconds / totalSeconds
    double peakDisplacement = 0.0; ///< max over the whole run
    std::vector<FieldSample> samples;
};

/**
 * The bound simulation engine: the stepper plus every backing object
 * (global matrix or distributed problem + SMVP engine) it multiplies
 * through, kept alive together (DESIGN.md §11).  Exposing this lets
 * the resilience subsystem restore a checkpoint into a freshly built
 * engine and advance it under its own StepObserver; runSimulation is
 * the thin uninterrupted loop over the same pieces.
 */
struct SimulationEngine
{
    double dt = 0.0;

    /** Steps the configured duration requires (after the maxSteps cap). */
    std::int64_t plannedSteps = 0;

    /**
     * FNV-1a fingerprint of everything that determines the bit pattern
     * of the trajectory: mesh geometry/topology, partition (via numPes
     * over the deterministic bisection), stiffness values, lumped
     * mass, dt, damping, and the bound source.  Thread counts,
     * exchange mode, and fused/unfused are deliberately EXCLUDED —
     * the engine is proven bitwise invariant across them, so a
     * checkpoint may legally resume under any of those configurations.
     * The kernel backend IS included: backends agree only within ULP
     * tolerance, so their trajectories are distinct bit patterns.
     */
    std::uint64_t fingerprint = 0;

    std::unique_ptr<ExplicitTimeStepper> stepper;

    /**
     * Backing objects (exactly one family is populated).  The matrix
     * and distributed problem are const-shared: the engine only reads
     * them during stepping (multiply/multiplyFusedStep are const and
     * scratch-free), so one assembled prefix may back many concurrent
     * engines — the contract the scenario service's content-addressed
     * cache relies on (DESIGN.md §14).
     */
    std::shared_ptr<const sparse::Bcsr3Matrix> globalK;
    std::shared_ptr<const parallel::DistributedProblem> problem;
    std::shared_ptr<parallel::ParallelSmvp> psmvp;

    /** Sequential sliced-ELL backend: the converted global matrix. */
    std::shared_ptr<const sparse::SlicedEll3Matrix> globalEll;
};

/**
 * A precomputed engine prefix (DESIGN.md §14): the expensive objects
 * every run of the same (mesh, model, numPes, poisson) recomputes —
 * the assembled global stiffness when sequential, the partitioned +
 * distributed problem otherwise.  makeSimulationEngineWith() binds an
 * engine around a supplied prefix instead of assembling its own; the
 * scenario service fills one from its content-addressed cache.  Both
 * pointers optional — whichever is null is built from scratch.
 *
 * Correctness: a prefix is pure input data (const, scratch-free), and
 * the fingerprint is computed from the bound objects, so an engine
 * built over a cached prefix is bit-for-bit the engine a cold build
 * produces — provided the prefix actually matches (mesh, model,
 * numPes, poisson); the service's cache keys guarantee that.
 */
struct EnginePrefix
{
    /** Assembled global stiffness (used when config.numPes == 1). */
    std::shared_ptr<const sparse::Bcsr3Matrix> globalK;

    /** Partitioned + distributed problem (used when numPes > 1). */
    std::shared_ptr<const parallel::DistributedProblem> problem;
};

/**
 * Assemble and bind the engine for `mesh`/`model` per `config`
 * (validated on entry): stable dt, lumped mass, stiffness (global or
 * distributed over config.numPes geometric-bisection parts), fused
 * backend, telemetry, damping, and the point source.
 */
SimulationEngine makeSimulationEngine(const mesh::TetMesh &mesh,
                                      const mesh::SoilModel &model,
                                      const SimulationConfig &config);

/**
 * Like makeSimulationEngine, but reuse the supplied prefix objects
 * (cached stiffness / distributed problem) instead of assembling them.
 * Null prefix members are built from scratch, so {} degenerates to
 * makeSimulationEngine exactly.
 */
SimulationEngine makeSimulationEngineWith(const mesh::TetMesh &mesh,
                                          const mesh::SoilModel &model,
                                          const SimulationConfig &config,
                                          const EnginePrefix &prefix);

/**
 * Per-step run policy, run after advanceSimulation has folded each
 * completed step into the report, with the just-finished step index
 * (1-based, == stepper.stepCount()).  This is the one place a run
 * takes checkpoints (resilience::snapshot) and checks for stalls or a
 * missed deadline; it may throw to abort the run.
 */
using StepObserver = std::function<void(std::int64_t step)>;

/**
 * Advance `engine` from its current step count to engine.plannedSteps,
 * folding the running peak and periodic samples into `report` — which
 * may already hold the prefix restored from a checkpoint.  Fills the
 * report's final fields (steps, times, smvp split) on completion.
 */
void advanceSimulation(SimulationEngine &engine,
                       const SimulationConfig &config,
                       SimulationReport &report,
                       const StepObserver &observer = {});

/**
 * Run the earthquake simulation on `mesh`/`model` per `config`.
 * Sequential when config.numPes == 1, otherwise distributed over
 * config.numPes logical PEs (geometric-bisection partition).
 *
 * The config is validated on entry (positive finite duration,
 * numPes >= 1, smvpThreads >= 0, sampleInterval >= 0, maxSteps >= 0);
 * violations throw common::FatalError with a message naming the field.
 */
SimulationReport runSimulation(const mesh::TetMesh &mesh,
                               const mesh::SoilModel &model,
                               const SimulationConfig &config);

/** Convenience: generate the sf-class mesh, then run. */
SimulationReport runSfSimulation(mesh::SfClass cls,
                                 const SimulationConfig &config,
                                 double h_scale = 1.0);

} // namespace quake::sim

#endif // QUAKE98_QUAKE_SIMULATION_H_

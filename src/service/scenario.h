/**
 * @file
 * The scenario request/result types of the multi-tenant service
 * (DESIGN.md §14).  A ScenarioRequest is a complete, self-contained
 * description of one earthquake simulation — mesh spec, soil model,
 * source, physics, fault assumptions, and an SLO deadline — plus the
 * content-addressed stage keys that let the service share the
 * expensive prefix (generated mesh, partition, assembled stiffness)
 * between every request that agrees on it.
 *
 * Key discipline (see common::Fnv1aHasher): every semantically distinct
 * field is hashed individually with stage tags for domain separation;
 * later stages chain from earlier digests, so meshKey() is a prefix of
 * partitionKey() is a prefix of assemblyKey().  Execution-only knobs
 * (threads, fused/unfused, deadline, faults) are deliberately EXCLUDED
 * from every key — the engine is proven bitwise invariant across them
 * — while the kernel backend IS included in the scenario key because
 * backends differ at ULP level.
 */

#ifndef QUAKE98_SERVICE_SCENARIO_H_
#define QUAKE98_SERVICE_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "mesh/generator.h"
#include "mesh/soil_model.h"
#include "quake/simulation.h"

namespace quake::service
{

/** Which ground model the scenario simulates. */
enum class SoilKind
{
    kLayeredBasin,    ///< the default San Fernando-style basin
    kMultiBasinThree, ///< MultiBasinModel::threeBasins()
    kUniform,         ///< uniform half-space (uniformVs/uniformRho)
};

/** Stable display name ("layered-basin", ...). */
const char *soilKindName(SoilKind kind);

/** One tenant's request for one earthquake scenario. */
struct ScenarioRequest
{
    /** Owning tenant; non-empty (per-tenant accounting key). */
    std::string tenant;

    /** Free-form request tag (result-record naming); may be empty. */
    std::string label;

    // --- problem identity (enters the cache keys) ---
    mesh::MeshSpec meshSpec =
        mesh::MeshSpec::forClass(mesh::SfClass::kSf20, 1.5);
    SoilKind soil = SoilKind::kLayeredBasin;
    double uniformVs = 1.0;  ///< km/s, kUniform only
    double uniformRho = 2.6; ///< g/cm^3, kUniform only

    double durationSeconds = 10.0;
    std::int64_t maxSteps = 0; ///< 0 = no cap
    double cflSafety = 0.5;
    double poisson = 0.25;
    double dampingA0 = 0.0;
    mesh::Vec3 hypocenter{25.0, 25.0, 8.0};
    mesh::Vec3 sourceDirection{0.0, 0.0, 1.0};
    sim::RickerWavelet wavelet;
    int sampleInterval = 25;
    int numPes = 1;
    sim::SimulationConfig::KernelBackend kernelBackend =
        sim::SimulationConfig::KernelBackend::kBcsr3;

    // --- execution knobs (bitwise-invariant; excluded from keys) ---
    /** Run the fused step pipeline (scheduling only). */
    bool fusedStep = true;

    /**
     * Assumed network fault environment (capacity_planner-style): the
     * admission model inflates the predicted exchange cost by a
     * protocol-recovery factor derived from dropRate.  Does not change
     * the trajectory (faults are modeled, not injected, here).
     */
    bool faults = false;
    double faultDropRate = 1e-3; ///< in [0, 1]

    /**
     * SLO deadline for the whole scenario, milliseconds of wall time;
     * 0 = none.  Admission sheds requests the Eq. (1) model predicts
     * cannot finish in time; at runtime, a step observer aborts the
     * run the moment the deadline actually passes.
     */
    double deadlineMs = 0.0;

    /**
     * Reject invalid requests (FatalError naming the field): non-empty
     * tenant, a valid meshSpec and physics config (delegated to their
     * own validate()), positive uniform material when kUniform,
     * faultDropRate in [0, 1], deadlineMs >= 0.
     */
    void validate() const;

    /**
     * The equivalent single-run engine config (no collector, no
     * recorder; threads left for the service to fill in).
     */
    sim::SimulationConfig toSimConfig() const;

    /** Instantiate the requested soil model. */
    std::unique_ptr<mesh::SoilModel> makeSoilModel() const;

    // --- content-addressed stage keys (DESIGN.md §14) ---

    /** Mesh stage: soil model + full mesh spec. */
    std::uint64_t meshKey() const;

    /** Partition stage: meshKey + numPes. */
    std::uint64_t partitionKey() const;

    /** Assembly stage (stiffness/problem): partitionKey + poisson. */
    std::uint64_t assemblyKey() const;

    /**
     * Full scenario identity: assemblyKey + physics + source + backend
     * + tenant/label.  Names result records; two requests with equal
     * scenario keys produce bitwise-identical trajectories.
     */
    std::uint64_t scenarioKey() const;
};

/** Everything the service reports back for one request. */
struct ScenarioResult
{
    std::string tenant;
    std::string label;
    std::uint64_t scenarioKey = 0;

    /** False = shed before execution (error says why). */
    bool admitted = false;

    /** True = ran to plannedSteps; false + deadlineMiss = aborted. */
    bool completed = false;

    /** The runtime SLO observer aborted the run mid-flight. */
    bool deadlineMiss = false;

    /** Why the request was shed or failed; empty on success. */
    std::string error;

    sim::SimulationReport report;

    /** Engine config fingerprint (trajectory identity). */
    std::uint64_t engineFingerprint = 0;

    /**
     * FNV-1a fingerprint of the final integrator state + report — the
     * value the bitwise service-vs-standalone contract compares
     * (resilience::stateFingerprint over a final-state checkpoint).
     */
    std::uint64_t stateFingerprint = 0;

    /** Which prefix stages were served from cache. */
    bool meshCacheHit = false;
    bool partitionCacheHit = false;
    bool assemblyCacheHit = false;

    /** Stage totals: hits out of attempts (2 sequential, 3 dist). */
    int cacheStagesHit = 0;
    int cacheStagesTotal = 0;

    /** Wall-clock breakdown, seconds. */
    double queueSeconds = 0.0;  ///< admission queue wait
    double prefixSeconds = 0.0; ///< mesh/partition/assembly (or cache)
    double stepSeconds = 0.0;   ///< engine build + time stepping

    /** Eq. (1) model prediction the admission decision used (s). */
    double predictedSeconds = 0.0;

    /** Worker threads the engine ran with (1 when sequential). */
    int threadsUsed = 0;

    /** Executor lane that ran it; -1 = never executed. */
    int lane = -1;

    /** True when the scenario spanned the whole pool (large). */
    bool spanned = false;

    /** Streamed result record path; empty when streaming is off. */
    std::string resultPath;
};

} // namespace quake::service

#endif // QUAKE98_SERVICE_SCENARIO_H_

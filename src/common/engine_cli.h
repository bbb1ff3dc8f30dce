/**
 * @file
 * Shared parsing of the engine-facing command-line flags
 * (--pin/--topology, --faults/--drop-rate/--seed,
 * --deadline-ms/--retry-budget, --trace/--metrics/--sample-every).
 *
 * Three front ends expose the same execution knobs — earthquake_sim,
 * capacity_planner, and scenario_server — and each used to carry its
 * own copy of the parse + validate boilerplate.  This helper owns the
 * flag names and the numeric entry validation (FatalError naming the
 * flag, before any mesh is generated), so the rejection ctests guard
 * one implementation instead of three drifting copies.
 *
 * Layering: quake_common cannot see parallel::FaultSpec or
 * parallel::Topology, so the helper returns plain values; callers feed
 * them into the typed structs (one or two lines each) whose own
 * validate() remains the final authority on semantic ranges.
 */

#ifndef QUAKE98_COMMON_ENGINE_CLI_H_
#define QUAKE98_COMMON_ENGINE_CLI_H_

#include <cstdint>
#include <string>

#include "common/args.h"

namespace quake::common
{

/** The engine knobs every front end shares, parsed and range-checked. */
struct EngineCliOptions
{
    // --- execution topology (DESIGN.md §13) ---
    bool pin = false;         ///< --pin
    std::string topologySpec; ///< --topology flat|auto|detect|SxT ("" = unset)

    // --- fault injection (DESIGN.md §6) ---
    bool faults = false;          ///< --faults
    double dropRate = 1e-3;       ///< --drop-rate R (in [0, 1])
    std::uint64_t faultSeed = 0x5eed; ///< --seed S

    // --- SLO / retry budget (DESIGN.md §11) ---
    bool hasDeadlineMs = false; ///< --deadline-ms was given
    double deadlineMs = 0.0;    ///< --deadline-ms D (> 0 when given)
    long retryBudget = 3;       ///< --retry-budget N (>= 1)

    // --- telemetry outputs (DESIGN.md §9) ---
    std::string tracePath;        ///< --trace path
    std::string metricsPath;      ///< --metrics path
    std::int64_t sampleEvery = 16; ///< --sample-every N (>= 1)
};

/**
 * Parse the shared engine flags out of `args`, rejecting malformed
 * values with FatalError messages that name the flag (the behaviour
 * the reject_* ctests pin down).  Flags that are absent keep their
 * defaults; the caller decides which groups it actually consumes.
 */
EngineCliOptions parseEngineCli(const Args &args);

} // namespace quake::common

#endif // QUAKE98_COMMON_ENGINE_CLI_H_

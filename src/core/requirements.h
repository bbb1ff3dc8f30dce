/**
 * @file
 * Requirement sweeps (paper §4): given an application shape and a grid of
 * machine assumptions (sustained MFLOPS) and target efficiencies, produce
 * the data behind Figures 8-11 — required sustained bandwidth, bisection
 * bandwidth, latency/burst-bandwidth tradeoff curves, and half-bandwidth
 * design points.
 */

#ifndef QUAKE98_CORE_REQUIREMENTS_H_
#define QUAKE98_CORE_REQUIREMENTS_H_

#include <vector>

#include "core/perf_model.h"

namespace quake::core
{

/** A machine-assumption/efficiency operating point. */
struct OperatingPoint
{
    double mflops = 0.0;     ///< sustained local SMVP rate T_f^-1
    double efficiency = 0.0; ///< target E
};

/** One requirement row (Figure 9 and Figure 8 are built from these). */
struct RequirementRow
{
    OperatingPoint point;
    double tc = 0.0;                     ///< required T_c (seconds/word)
    double sustainedBandwidthBytes = 0.0; ///< T_c^-1 in bytes/sec
    double bisectionBandwidthBytes = 0.0; ///< §4.2, zero if volume unset
};

/** Requirements for one shape over a grid of operating points. */
std::vector<RequirementRow> requirementSweep(
    const SmvpShape &shape, const std::vector<OperatingPoint> &grid,
    std::int64_t bisection_words = 0);

/**
 * An operating-point grid pinned to a host-measured per-flop time
 * (one PE's local SMVP: the single-threaded winner of
 * spark::KernelSuite::autotune) instead of a datasheet MFLOPS
 * assumption, one point per target efficiency.  This is how the
 * Figure 9/10 requirement targets are derived from the kernel that
 * actually runs, per §3.1's insistence that T_f is measured.
 *
 * @param tf_seconds   Measured seconds per flop (> 0).
 * @param efficiencies Target efficiencies, each in (0, 1).
 */
std::vector<OperatingPoint> gridFromMeasuredTf(
    double tf_seconds, const std::vector<double> &efficiencies);

/**
 * requirementSweep over gridFromMeasuredTf: re-derive the Equation (1)
 * requirement rows directly from a per-flop time — the path the MESI
 * co-simulator's predicted effective T_f feeds (arch/cosim.h), turning
 * a modeled memory hierarchy into §4 network requirements.
 */
std::vector<RequirementRow> requirementSweepFromTf(
    const SmvpShape &shape, double tf_seconds,
    const std::vector<double> &efficiencies,
    std::int64_t bisection_words = 0);

/** One point on a Figure 10 curve. */
struct TradeoffPoint
{
    double burstBandwidthBytes = 0.0; ///< x-axis: T_w^-1
    double latency = 0.0;             ///< y-axis: admissible T_l (seconds)
};

/**
 * The Figure 10 latency/burst-bandwidth tradeoff: admissible block
 * latency as a function of burst bandwidth, holding T_c at the value
 * required for the operating point.  Points with no feasible latency
 * (burst alone already exceeds the budget) are omitted, which is why the
 * curve has a vertical asymptote at C_max words/T_comm.
 *
 * @param shape        Application shape (use withFixedBlockSize() first
 *                     for the cache-line variant).
 * @param tc_target    Required amortized word time from Equation (1).
 * @param bw_min_bytes Smallest burst bandwidth on the sweep (bytes/s).
 * @param bw_max_bytes Largest burst bandwidth on the sweep (bytes/s).
 * @param num_points   Number of log-spaced samples.
 */
std::vector<TradeoffPoint> tradeoffCurve(const SmvpShape &shape,
                                         double tc_target,
                                         double bw_min_bytes,
                                         double bw_max_bytes,
                                         int num_points);

/** The §4 headline figures for one shape at one operating point. */
struct Headline
{
    double sustainedBandwidthBytes = 0.0; ///< Equation (1) requirement
    HalfBandwidthPoint halfPoint;         ///< §4.4 design point
    double infiniteBurstLatency = 0.0;    ///< T_l bound when T_w -> 0
};

/** Compute the headline numbers for (shape, mflops, efficiency). */
Headline computeHeadline(const SmvpShape &shape, double mflops,
                         double efficiency);

/** num log-spaced samples in [lo, hi]; lo and hi must be positive. */
std::vector<double> logspace(double lo, double hi, int num);

} // namespace quake::core

#endif // QUAKE98_CORE_REQUIREMENTS_H_

/**
 * @file
 * Shared pieces of the quake98 benchmark: run options, the
 * outcome every workload reports (metrics plus correctness checks),
 * host identity, and small order statistics.
 *
 * The benchmark calls the program only through its public library
 * functions and times each layer around its own calls; nothing under
 * src/ is instrumented for it.
 */

#ifndef QUAKE98_PERFBENCH_BENCH_H_
#define QUAKE98_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mesh/generator.h"
#include "quake/source.h"

namespace perfbench
{

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the timed window
    bool trace = false;     ///< per-layer run (spans + telemetry)
    bool tiny = false;      ///< seconds-long smoke sizes
    bool corrupt = false;   ///< negative test: corrupt one checked result
    std::string workDir;    ///< scratch files (checkpoints, trace)
};

/** One reported number. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** Everything a workload run reports. */
struct Outcome
{
    /** Operations whose correctness was checked, and how many failed. */
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    /** End-to-end metrics (untraced) and per-layer metrics (traced). */
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    /** Record one correctness check; a failure is printed at once. */
    void check(bool ok, const std::string &what);

    /** Count `n` operations, `bad` of which failed (no message). */
    void count(std::int64_t n, std::int64_t bad);

    void
    e2e(const std::string &name, const std::string &unit, double v)
    {
        endToEnd.push_back({name, unit, v});
    }

    void
    layer(const std::string &name, const std::string &unit, double v)
    {
        perLayer.push_back({name, unit, v});
    }
};

/** Host facts every result carries. */
struct HostInfo
{
    int affinityCpus = 0;
    std::string cpuModel;
    std::int64_t l2Bytes = 0;  ///< per-core unified L2 (sysfs)
    std::int64_t llcBytes = 0; ///< last-level cache (sysfs)
};

/** Read the affinity mask, CPU model and cache sizes. */
HostInfo readHostInfo();

/** A seeded point source: hypocenter, force direction and wavelet. */
struct Source
{
    quake::mesh::Vec3 hypocenter{25.0, 25.0, 8.0};
    quake::mesh::Vec3 direction{0.0, 0.0, 1.0};
    quake::sim::RickerWavelet wavelet;
};

/** Draw a source under the basin for a mesh of class `cls`. */
Source drawSource(std::mt19937_64 &rng, quake::mesh::SfClass cls);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Monotonic seconds. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Quantile q in [0, 1] of `v` by linear interpolation between order
 * statistics (v is sorted in place).  0 for an empty vector.
 */
double quantile(std::vector<double> &v, double q);

/** Median of `v` (sorted in place). */
inline double
median(std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** The three stepping workloads (sf10-p8, sf5-p8-ckpt, sf5-seq). */
bool isSteppingWorkload(const std::string &name);
Outcome runStepping(const Options &opt, const HostInfo &host);

/** The scenario-service traffic mix (service-mix). */
Outcome runServiceMix(const Options &opt);

} // namespace perfbench

#endif // QUAKE98_PERFBENCH_BENCH_H_

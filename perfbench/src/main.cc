/**
 * @file
 * quake98_bench: run one benchmark workload and report its metrics.
 *
 *   quake98_bench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--work-dir DIR] [--tiny] [--corrupt]
 *
 * Prints a human-readable report and, as its last line,
 * "PERFBENCH_RESULT {json}" with the correctness counts and every
 * metric.  Exits 0 only when every correctness check passed.
 * perfbench/run.py builds this binary and wraps it in the benchmark's
 * command line.
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"

namespace
{

using perfbench::Metric;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "quake98_bench: " << why
              << "\nusage: quake98_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--tiny] "
                 "[--corrupt]\n";
    std::exit(2);
}

perfbench::Options
parse(int argc, char **argv)
{
    perfbench::Options o;
    o.workDir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--work-dir")
                o.workDir = value();
            else if (a == "--tiny")
                o.tiny = true;
            else if (a == "--corrupt")
                o.corrupt = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return o;
}

void
jsonMetrics(std::ostream &os, const std::vector<Metric> &ms)
{
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i)
        os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
           << std::setprecision(17) << ms[i].value << ", \"unit\": \""
           << ms[i].unit << "\"}";
    os << "}";
}

int
run(int argc, char **argv)
{
    const perfbench::Options opt = parse(argc, argv);
    const perfbench::HostInfo host = perfbench::readHostInfo();

    std::cout << "host: " << host.affinityCpus << " CPU(s) in affinity mask, "
              << host.cpuModel << ", L2 " << (host.l2Bytes >> 10)
              << " KiB/core, LLC " << (host.llcBytes >> 10) << " KiB\n"
              << "build: " << PERFBENCH_COMPILER << ", "
              << PERFBENCH_BUILD_TYPE
              << (kOptimized ? ", optimized" : ", NOT optimized") << "\n"
              << "seed: " << opt.seed << ", window " << opt.seconds
              << " s, trace " << (opt.trace ? 1 : 0)
              << (opt.tiny ? ", tiny sizes" : "") << "\n";
    if (!kOptimized)
        std::cout << "WARNING: this build is NOT optimized; its timings "
                     "are not comparable with an optimized build\n";

    perfbench::Outcome out;
    if (perfbench::isSteppingWorkload(opt.workload))
        out = perfbench::runStepping(opt, host);
    else if (opt.workload == "service-mix")
        out = perfbench::runServiceMix(opt);
    else
        usage("unknown workload " + opt.workload);

    const double rss = perfbench::peakRssMb();
    out.e2e("peak_rss_mb", "MB", rss);
    const double error_rate =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
    std::cout << std::setprecision(6) << "  peak_rss_mb   " << rss
              << " MB\n  error_rate    " << error_rate << "  ("
              << out.failed << " failed of " << out.attempted
              << " checked)\n";

    std::ostringstream os;
    os << "PERFBENCH_RESULT {\"workload\": \"" << opt.workload
       << "\", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"end_to_end\": ";
    jsonMetrics(os, out.endToEnd);
    os << ", \"per_layer\": ";
    jsonMetrics(os, out.perLayer);
    os << "}";
    std::cout << os.str() << std::endl;
    return out.failed == 0 && out.attempted > 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 2;
    }
}

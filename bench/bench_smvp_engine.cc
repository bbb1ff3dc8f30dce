/**
 * @file
 * The SMVP engine benchmark: measures the persistent-pool parallel
 * engine with boundary/interior overlap against the best serial
 * kernel — the autotuned winner of the four single-threaded storage
 * formats in spark::KernelSuite — on an sf10-class generated mesh.
 *
 * Emits BENCH_smvp.json (host info, per-kernel GFLOP/s and T_f) so the
 * perf trajectory can be tracked across commits, verifies that the
 * overlapped exchange is bit-for-bit identical to the barrier schedule,
 * and feeds the autotuned single-thread T_f — one PE's rate, as Eq. (1)
 * consumes it — into the §4 requirement sweep (exit status reflects the
 * determinism check only).
 *
 * Flags: --smoke (tiny mesh, few reps — the `perf` ctest label),
 *        --pes N, --threads N, --reps N, --full (paper-scale sf10),
 *        --trace FILE / --metrics FILE (telemetry on the overlap run).
 */

#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "common/rng.h"
#include "core/requirements.h"
#include "parallel/parallel_smvp.h"
#include "spark/kernels.h"
#include "telemetry/collector.h"
#include "telemetry/export.h"

namespace
{

using namespace quake;

double
timeMultiplies(const std::function<void()> &fn, int reps)
{
    fn(); // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / reps;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::Args args(argc, argv);
    bench::benchHeader("SMVP engine (pool + overlap + blocked kernels)",
                       "the T_f measurements of Section 3.1");

    const bench::EngineBenchOptions opt = bench::engineBenchOptions(args);
    const bool smoke = opt.smoke;
    const int threads = opt.threads;
    const int pes = opt.pes;
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 3 : 20));

    const bench::BenchMesh bm = opt.mesh;
    const mesh::TetMesh &m = bench::cachedMesh(bm);
    const mesh::LayeredBasinModel model;

    std::cout << "mesh: " << bm.label << ", " << m.numNodes()
              << " nodes, " << m.numElements() << " elements\n"
              << "hardware threads: "
              << parallel::WorkerPool::hardwareThreads()
              << ", logical PEs: " << pes << "\n\n";

    // --- Single-threaded kernel suite + autotuner: the serial floor. ---
    const spark::KernelSuite suite(m, model);
    const spark::AutotuneResult tuned = suite.autotune(reps);
    const double serial_seconds = tuned.bestTiming.secondsPerSmvp;

    std::vector<bench::BenchJsonRecord> records;
    common::Table kt({"kernel", "s/SMVP", "GFLOP/s", "T_f (ns)"});
    for (const spark::AutotuneEntry &e : tuned.entries) {
        kt.addRow({spark::kernelName(e.kernel),
                   common::formatFixed(e.timing.secondsPerSmvp * 1e3, 3) +
                       " ms",
                   common::formatFixed(e.timing.mflops / 1e3, 3),
                   common::formatFixed(e.timing.tf * 1e9, 3)});
        bench::BenchJsonRecord rec;
        rec.kernel = spark::kernelName(e.kernel);
        rec.rows = suite.dof();
        rec.nnz = suite.nnz();
        rec.secondsPerSmvp = e.timing.secondsPerSmvp;
        rec.gflops = e.timing.mflops / 1e3;
        rec.tfNs = e.timing.tf * 1e9;
        records.push_back(std::move(rec));
    }
    bench::printTable(kt, args);
    std::cout << "autotuner winner: " << spark::kernelName(tuned.best)
              << " (T_f = "
              << common::formatFixed(tuned.bestTiming.tf * 1e9, 3)
              << " ns)\n\n";

    // --- The distributed engine: pool + boundary/interior overlap. ---
    const partition::GeometricBisection partitioner;
    const parallel::DistributedProblem problem =
        parallel::distribute(m, model, partitioner.partition(m, pes));
    parallel::ParallelSmvp engine(problem, threads,
                                  parallel::ExchangeMode::kOverlapped);
    const parallel::ParallelSmvp barrier(problem, threads,
                                         parallel::ExchangeMode::kBarrier);

    // Telemetry on the overlap engine only: the timed loops below then
    // feed phase histograms and (sampled) spans into the collector.
    const bool want_telemetry =
        !opt.tracePath.empty() || !opt.metricsPath.empty();
    telemetry::CollectorConfig tc;
    tc.enabled = want_telemetry;
    telemetry::Collector collector(tc);
    if (want_telemetry)
        engine.setCollector(&collector);

    std::vector<double> x(static_cast<std::size_t>(suite.dof()));
    common::SplitMix64 rng(1998);
    for (double &v : x)
        v = rng.uniform(-1.0, 1.0);

    std::vector<double> y_engine;
    const double engine_seconds = timeMultiplies(
        [&] { y_engine = engine.multiply(x); }, reps);
    std::vector<double> y_barrier;
    const double barrier_seconds = timeMultiplies(
        [&] { y_barrier = barrier.multiply(x); }, reps);

    const bool bitwise_equal = (y_engine == y_barrier);
    const double flops = static_cast<double>(2 * suite.nnz());

    common::Table et({"configuration", "s/SMVP", "GFLOP/s",
                      "speedup vs best serial"});
    auto add_engine_row = [&](const std::string &name, double seconds) {
        et.addRow({name,
                   common::formatFixed(seconds * 1e3, 3) + " ms",
                   common::formatFixed(flops / seconds / 1e9, 3),
                   common::formatFixed(serial_seconds / seconds, 2) +
                       "x"});
        bench::BenchJsonRecord rec;
        rec.kernel = name;
        rec.rows = suite.dof();
        rec.nnz = suite.nnz();
        rec.secondsPerSmvp = seconds;
        rec.gflops = flops / seconds / 1e9;
        rec.tfNs = seconds / flops * 1e9;
        rec.extra.emplace_back("speedup_vs_best_serial",
                               serial_seconds / seconds);
        rec.extra.emplace_back("threads",
                               static_cast<double>(engine.numThreads()));
        rec.extra.emplace_back("pes", static_cast<double>(pes));
        records.push_back(std::move(rec));
    };
    add_engine_row("engine-overlap", engine_seconds);
    add_engine_row("engine-barrier", barrier_seconds);
    bench::printTable(et, args);

    std::cout << "\noverlap bitwise-equals barrier: "
              << (bitwise_equal ? "PASS" : "FAIL") << "\n";
    const double speedup = serial_seconds / engine_seconds;
    std::cout << "engine speedup vs best serial kernel ("
              << spark::kernelName(tuned.best)
              << "): " << common::formatFixed(speedup, 2) << "x ("
              << (speedup >= 1.5 ? "meets" : "below")
              << " the 1.5x target"
              << (parallel::WorkerPool::hardwareThreads() < 4
                      ? "; note: < 4 hardware threads on this host"
                      : "")
              << ")\n\n";

    // --- Requirement targets from the tuned (measured) T_f. ---
    const core::SmvpCharacterization ch =
        parallel::characterize(problem, bm.label);
    const core::SmvpShape shape =
        core::SmvpShape::fromSummary(core::summarize(ch));
    const std::vector<core::RequirementRow> rows = core::requirementSweep(
        shape, core::gridFromMeasuredTf(tuned.bestTiming.tf,
                                        {0.5, 0.75, 0.9}));
    common::Table rt({"E target", "MFLOPS (measured)",
                      "required T_c (ns/word)", "required BW (MB/s)"});
    for (const core::RequirementRow &row : rows)
        rt.addRow({common::formatFixed(row.point.efficiency, 2),
                   common::formatFixed(row.point.mflops, 1),
                   common::formatFixed(row.tc * 1e9, 2),
                   common::formatFixed(
                       row.sustainedBandwidthBytes / 1e6, 1)});
    bench::printTable(rt, args);
    std::cout << "(Figure 9-style targets driven by the autotuned "
                 "single-thread kernel's measured T_f, not a datasheet "
                 "rate.)\n";

    bench::writeBenchJson(
        "smvp", records,
        {{"mesh", bm.label},
         {"pes", std::to_string(pes)},
         {"engine_threads", std::to_string(engine.numThreads())},
         {"autotune_winner", spark::kernelName(tuned.best)},
         {"overlap_bitwise_equal", bitwise_equal ? "true" : "false"},
         {"speedup_vs_best_serial", common::formatFixed(speedup, 3)}});

    if (!opt.tracePath.empty() &&
        telemetry::writeChromeTrace(collector, opt.tracePath))
        std::cout << "[bench] wrote trace " << opt.tracePath << "\n";
    if (!opt.metricsPath.empty())
        telemetry::writeMetricsBenchJson(
            collector, "smvp_telemetry",
            {{"mesh", bm.label}, {"pes", std::to_string(pes)}},
            opt.metricsPath);

    return bitwise_equal ? 0 : 1;
}

/**
 * @file
 * Section 3.1 — measuring T_f, the sustained per-flop time of the local
 * SMVP, with google-benchmark.  The paper measures 30 ns on the Cray
 * T3D and 14 ns on the T3E and stresses that sustained rates sit far
 * below peak (12% on the T3E); this harness produces the same
 * measurement for this host across the four storage formats (one
 * single-threaded kernel each, as T_f is one PE's rate) and the mesh
 * classes.
 *
 * Besides the usual google-benchmark console output, the run writes
 * BENCH_tf_kernels.json (see bench_util.h) so the measured T_f values
 * can be diffed across commits alongside BENCH_smvp.json.  Each record
 * carries a roofline annotation — bytes/flop from a per-format byte
 * traffic model, the sustained GB/s that follows from the measured
 * time, and the padding-overhead ratio (stored/structural blocks) —
 * and the run ends with a Figure 9-style requirement grid derived from
 * the best measured T_f via core::gridFromMeasuredTf.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/requirements.h"
#include "mesh/generator.h"
#include "spark/kernels.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"

namespace
{

using namespace quake;

/** Lazily built suite per mesh class (shared across benchmarks). */
const spark::KernelSuite &
suiteFor(mesh::SfClass cls)
{
    static std::map<mesh::SfClass, std::unique_ptr<spark::KernelSuite>>
        suites;
    auto it = suites.find(cls);
    if (it == suites.end()) {
        static const mesh::LayeredBasinModel model;
        const mesh::GeneratedMesh generated = mesh::generateSfMesh(cls);
        it = suites
                 .emplace(cls, std::make_unique<spark::KernelSuite>(
                                   generated.mesh, model))
                 .first;
    }
    return *it->second;
}

/** Records accumulated across all benchmarks for the JSON report. */
std::vector<bench::BenchJsonRecord> &
jsonRecords()
{
    static std::vector<bench::BenchJsonRecord> records;
    return records;
}

/**
 * Streamed bytes of one SMVP in each format — the roofline numerator.
 * The model counts each array once per multiply (the streaming-access
 * pattern §3.1 attributes the low sustained rates to): matrix values +
 * indices + row offsets, one read of x, and one write of y — plus one
 * *read* of y for the symmetric scatter formats, whose y[col] updates
 * are read-modify-write.  Gather locality in x is deliberately ignored
 * (pessimistic for x, like every first-order roofline).
 */
double
bytesPerSmvp(const spark::KernelSuite &suite, spark::Kernel kernel)
{
    const double dof = static_cast<double>(suite.dof());
    const double xy_stream = 16.0 * dof;  // read x + write y
    const double y_rmw = 8.0 * dof;       // extra y read for scatters
    switch (kernel) {
      case spark::Kernel::kCsr: {
        const sparse::CsrMatrix &m = suite.csr();
        return 12.0 * static_cast<double>(m.nnz()) + // 8B value + 4B col
               8.0 * (dof + 1) + xy_stream;          // xadj
      }
      case spark::Kernel::kBcsr3: {
        const sparse::Bcsr3Matrix &m = suite.bcsr();
        // 72B of values + 4B block column per 3x3 block.
        return 76.0 * static_cast<double>(m.numBlocks()) +
               8.0 * static_cast<double>(m.numBlockRows() + 1) +
               xy_stream;
      }
      case spark::Kernel::kSymBcsr3: {
        const sparse::SymBcsr3Matrix &m = suite.symBcsr();
        return 76.0 * static_cast<double>(m.storedBlocks()) +
               8.0 * static_cast<double>(m.numBlockRows() + 1) +
               xy_stream + y_rmw;
      }
      case spark::Kernel::kSlicedEll3: {
        const sparse::SlicedEll3Matrix &m = suite.slicedEll();
        // Every stored slot (structural + padding) is streamed: 72B of
        // element planes + 4B column.  Lane row map and slice bases
        // stream once per multiply.
        return 76.0 * static_cast<double>(m.storedBlocks()) +
               8.0 * static_cast<double>(m.numSlices() *
                                         m.sliceHeight()) +
               8.0 * static_cast<double>(m.numSlices() + 1) + xy_stream;
      }
    }
    return 0.0;
}

/** Padding overhead of the format (1.0 for the unpadded formats). */
double
paddingRatioOf(const spark::KernelSuite &suite, spark::Kernel kernel)
{
    return kernel == spark::Kernel::kSlicedEll3
               ? suite.slicedEll().paddingRatio()
               : 1.0;
}

void
runKernelBench(benchmark::State &state, const std::string &label,
               mesh::SfClass cls, spark::Kernel kernel)
{
    const spark::KernelSuite &suite = suiteFor(cls);
    std::vector<double> x(static_cast<std::size_t>(suite.dof()));
    common::SplitMix64 rng(1998);
    for (double &v : x)
        v = rng.uniform(-1, 1);
    std::vector<double> y(x.size());

    std::int64_t iters = 0;
    double seconds = 0.0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        suite.runInto(kernel, x.data(), y.data());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
        seconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        ++iters;
    }

    // The paper's F = 2m flops per SMVP, regardless of storage format.
    // FLOPS prints as a rate (e.g. "1.9G/s"); T_f is its inverse — the
    // paper's 30 ns (T3D) / 14 ns (T3E) comparison points.
    const double flops = static_cast<double>(2 * suite.nnz());
    state.counters["flops_per_smvp"] = flops;
    state.counters["FLOPS"] = benchmark::Counter(
        flops, benchmark::Counter::kIsIterationInvariantRate);

    if (iters > 0) {
        const double per_smvp = seconds / static_cast<double>(iters);
        bench::BenchJsonRecord rec;
        rec.kernel = label;
        rec.rows = suite.dof();
        rec.nnz = suite.nnz();
        rec.secondsPerSmvp = per_smvp;
        rec.gflops = flops / per_smvp / 1e9;
        rec.tfNs = per_smvp / flops * 1e9;

        // Roofline annotation: model bytes per flop, the sustained
        // bandwidth the measured time implies, and padding overhead.
        const double bytes = bytesPerSmvp(suite, kernel);
        rec.extra.emplace_back("bytes_per_flop", bytes / flops);
        rec.extra.emplace_back("gbps", bytes / per_smvp / 1e9);
        rec.extra.emplace_back("padding_ratio",
                               paddingRatioOf(suite, kernel));

        // google-benchmark invokes the function several times while
        // calibrating the iteration count; keep only the final (longest,
        // most reliable) run for each benchmark label.
        auto &records = jsonRecords();
        for (bench::BenchJsonRecord &existing : records) {
            if (existing.kernel == label) {
                existing = std::move(rec);
                return;
            }
        }
        records.push_back(std::move(rec));
    }
}

} // namespace

#define QUAKE_TF_BENCH(tag, cls, kernel)                                  \
    BENCHMARK_CAPTURE(runKernelBench, tag, #tag, mesh::SfClass::cls,      \
                      spark::Kernel::kernel)

QUAKE_TF_BENCH(sf20_csr, kSf20, kCsr);
QUAKE_TF_BENCH(sf20_bcsr3, kSf20, kBcsr3);
QUAKE_TF_BENCH(sf20_bcsr3sym, kSf20, kSymBcsr3);
QUAKE_TF_BENCH(sf20_ell3, kSf20, kSlicedEll3);
QUAKE_TF_BENCH(sf10_csr, kSf10, kCsr);
QUAKE_TF_BENCH(sf10_bcsr3, kSf10, kBcsr3);
QUAKE_TF_BENCH(sf10_bcsr3sym, kSf10, kSymBcsr3);
QUAKE_TF_BENCH(sf10_ell3, kSf10, kSlicedEll3);
QUAKE_TF_BENCH(sf5_csr, kSf5, kCsr);
QUAKE_TF_BENCH(sf5_bcsr3, kSf5, kBcsr3);
QUAKE_TF_BENCH(sf5_bcsr3sym, kSf5, kSymBcsr3);
QUAKE_TF_BENCH(sf5_ell3, kSf5, kSlicedEll3);

namespace
{

/**
 * §4-style closing summary: take the best measured T_f across all
 * records and derive the requirement operating points the way the
 * paper's Figure 9 grid does — from the kernel that actually runs.
 */
void
printRooflineSummary()
{
    const auto &records = jsonRecords();
    if (records.empty())
        return;
    const bench::BenchJsonRecord *best = &records.front();
    for (const bench::BenchJsonRecord &r : records)
        if (r.tfNs < best->tfNs)
            best = &r;

    std::printf("\nRoofline summary (per-format byte-traffic model)\n");
    std::printf("%-24s %10s %12s %10s %10s\n", "kernel", "tf_ns",
                "bytes/flop", "GB/s", "pad_ratio");
    for (const bench::BenchJsonRecord &r : records) {
        double bpf = 0.0, gbps = 0.0, pad = 1.0;
        for (const auto &kv : r.extra) {
            if (kv.first == "bytes_per_flop")
                bpf = kv.second;
            else if (kv.first == "gbps")
                gbps = kv.second;
            else if (kv.first == "padding_ratio")
                pad = kv.second;
        }
        std::printf("%-24s %10.3f %12.2f %10.2f %10.3f\n",
                    r.kernel.c_str(), r.tfNs, bpf, gbps, pad);
    }

    std::printf("\nSIMD dispatch (sliced-ELL and symmetric BCSR3): %s\n",
                sparse::SlicedEll3Matrix::activeKernelName());
    std::printf("Requirement grid from best measured T_f (%s, %.3f "
                "ns/flop):\n",
                best->kernel.c_str(), best->tfNs);
    const std::vector<core::OperatingPoint> grid =
        core::gridFromMeasuredTf(best->tfNs * 1e-9,
                                 {0.25, 0.5, 0.75});
    for (const core::OperatingPoint &p : grid)
        std::printf("  E = %.2f -> sustained %.1f MFLOPS per PE\n",
                    p.efficiency, p.mflops);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    printRooflineSummary();
    bench::writeBenchJson("tf_kernels", jsonRecords());
    return 0;
}

#include "spark/kernels.h"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/error.h"
#include "common/rng.h"
#include "sparse/assembly.h"

namespace quake::spark
{

namespace
{

/**
 * nnz-balanced block-row cuts for `chunks` workers: chunk c covers the
 * block rows whose xadj crosses c/chunks of the total block count.
 */
std::vector<std::int64_t>
balancedRowCuts(const std::vector<std::int64_t> &xadj,
                std::int64_t num_rows, int chunks)
{
    const std::int64_t total = num_rows > 0 ? xadj[num_rows] : 0;
    std::vector<std::int64_t> cut(static_cast<std::size_t>(chunks) + 1);
    cut[0] = 0;
    for (int c = 1; c < chunks; ++c) {
        const std::int64_t target = total * c / chunks;
        cut[c] = std::lower_bound(xadj.begin(),
                                  xadj.begin() + num_rows + 1, target) -
                 xadj.begin();
        cut[c] = std::min<std::int64_t>(cut[c], num_rows);
        cut[c] = std::max(cut[c], cut[c - 1]);
    }
    cut[chunks] = num_rows;
    return cut;
}

} // namespace

std::string
kernelName(Kernel kernel)
{
    switch (kernel) {
      case Kernel::kCsr: return "smv-csr";
      case Kernel::kBcsr3: return "smv-bcsr3";
      case Kernel::kSymBcsr3: return "smv-bcsr3sym";
      case Kernel::kSlicedEll3: return "smv-ell3";
    }
    QUAKE_PANIC("unknown kernel");
}

FusedStepKernel::FusedStepKernel(const sparse::Bcsr3Matrix &a,
                                 parallel::WorkerPool &pool)
    : a_(a), pool_(pool),
      cut_(balancedRowCuts(a.xadj(), a.numBlockRows(), kChunks)),
      partials_(static_cast<std::size_t>(kChunks) * kPartialsStride)
{
}

sparse::StepPartials
FusedStepKernel::step(const sparse::StepUpdate &su) const
{
    QUAKE_EXPECT(su.u != nullptr && su.up != nullptr &&
                     su.f != nullptr && su.invMass != nullptr,
                 "fused step update has unbound field pointers");

    su_arg_ = &su;
    pool_.run([this](int tid) {
        const int workers = pool_.size();
        for (int c = tid; c < kChunks; c += workers) {
            sparse::StepPartials &slot =
                partials_[static_cast<std::size_t>(c) * kPartialsStride];
            slot = sparse::StepPartials{};
            a_.multiplyRowsFusedStep(*su_arg_, cut_[c], cut_[c + 1],
                                     slot);
        }
    });
    su_arg_ = nullptr;

    // Ascending-chunk combine over the fixed grid: identical for every
    // pool size, including 1.
    sparse::StepPartials out;
    for (int c = 0; c < kChunks; ++c)
        out.combine(
            partials_[static_cast<std::size_t>(c) * kPartialsStride]);
    return out;
}

KernelSuite::KernelSuite(const mesh::TetMesh &mesh,
                         const mesh::SoilModel &model, double poisson)
    : bcsr_(sparse::assembleStiffness(mesh, model, poisson)),
      csr_(bcsr_.toCsr()),
      sym_bcsr_(sparse::SymBcsr3Matrix::fromBcsr3(bcsr_, 1e-9)),
      ell_(sparse::SlicedEll3Matrix::fromBcsr3(bcsr_))
{
}

void
KernelSuite::runInto(Kernel kernel, const double *x, double *y) const
{
    switch (kernel) {
      case Kernel::kCsr: csr_.multiply(x, y); return;
      case Kernel::kBcsr3: bcsr_.multiply(x, y); return;
      case Kernel::kSymBcsr3: sym_bcsr_.multiply(x, y); return;
      case Kernel::kSlicedEll3: ell_.multiply(x, y); return;
    }
    QUAKE_PANIC("unknown kernel");
}

std::vector<double>
KernelSuite::run(Kernel kernel, const std::vector<double> &x) const
{
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == dof(),
                 "x has " << x.size() << " entries, expected " << dof());
    std::vector<double> y(x.size());
    runInto(kernel, x.data(), y.data());
    return y;
}

KernelTiming
KernelSuite::measure(Kernel kernel, int repetitions) const
{
    QUAKE_EXPECT(repetitions >= 1, "need at least one repetition");

    std::vector<double> x(static_cast<std::size_t>(dof()));
    quake::common::SplitMix64 rng(0x5fa9c98ULL);
    for (double &v : x)
        v = rng.uniform(-1.0, 1.0);
    std::vector<double> y(x.size());

    runInto(kernel, x.data(), y.data()); // warm the caches once

    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repetitions; ++r)
        runInto(kernel, x.data(), y.data());
    const auto t1 = std::chrono::steady_clock::now();

    KernelTiming timing;
    timing.secondsPerSmvp =
        std::chrono::duration<double>(t1 - t0).count() / repetitions;
    // The paper counts F = 2m for every format: the arithmetic is
    // identical; only the memory traffic differs.
    timing.flops = 2 * nnz();
    timing.tf = timing.secondsPerSmvp / static_cast<double>(timing.flops);
    timing.mflops = 1.0 / (timing.tf * 1e6);
    return timing;
}

AutotuneResult
KernelSuite::selectBest(const std::vector<Kernel> &kernels,
                        int repetitions, const MeasureFn &measure)
{
    QUAKE_EXPECT(!kernels.empty(), "no kernels to autotune");
    AutotuneResult result;
    bool first = true;
    for (Kernel kernel : kernels) {
        AutotuneEntry entry;
        entry.kernel = kernel;
        entry.timing = measure(kernel, repetitions);
        // Strictly faster wins; exact ties break by enum order — never
        // by measurement order, so permuting `kernels` cannot change
        // the verdict (given a deterministic measure).
        const bool better =
            first ||
            entry.timing.secondsPerSmvp <
                result.bestTiming.secondsPerSmvp ||
            (entry.timing.secondsPerSmvp ==
                 result.bestTiming.secondsPerSmvp &&
             static_cast<int>(kernel) < static_cast<int>(result.best));
        if (better) {
            result.best = kernel;
            result.bestTiming = entry.timing;
            first = false;
        }
        result.entries.push_back(std::move(entry));
    }
    return result;
}

AutotuneResult
KernelSuite::autotune(int repetitions) const
{
    const std::vector<Kernel> kernels(std::begin(kAllKernels),
                                      std::end(kAllKernels));
    // Discarded warm-up pass over every contender BEFORE any timed
    // measurement: without it, the first-measured kernel paid the
    // cold-cache cost alone and could lose unfairly.
    for (Kernel kernel : kernels)
        (void)measure(kernel, 1);
    return selectBest(kernels, repetitions,
                      [this](Kernel kernel, int reps) {
                          return measure(kernel, reps);
                      });
}

} // namespace quake::spark

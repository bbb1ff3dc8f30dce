/**
 * @file
 * A Spark98-style SMVP kernel suite (paper postscript, ref [14]): the
 * same stiffness matrix in four storage formats, one single-threaded
 * kernel each, with a measurement harness for the sustained per-flop
 * time T_f.  The paper's §3.1 point is that T_f is a *measured*,
 * application-specific property of one PE's local SMVP (30 ns on the
 * T3D, 14 ns on the T3E — ~12% of peak), and Eq. (1) consumes it per
 * PE; this suite is how such numbers are obtained on any host.  An
 * autotuner measures every format on the actual assembled matrix and
 * reports the fastest, so the §4 requirement projections are driven by
 * the best serial kernel rather than a scalar baseline.  The threaded
 * SMVP that actually runs is parallel::ParallelSmvp.
 */

#ifndef QUAKE98_SPARK_KERNELS_H_
#define QUAKE98_SPARK_KERNELS_H_

#include <functional>
#include <string>
#include <vector>

#include "mesh/soil_model.h"
#include "mesh/tet_mesh.h"
#include "parallel/worker_pool.h"
#include "sparse/bcsr3.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/csr.h"
#include "sparse/sliced_ell3.h"

namespace quake::spark
{

/** The kernels in the suite: one single-threaded kernel per format. */
enum class Kernel
{
    kCsr,        ///< scalar CSR ("smv") — the reference oracle
    kBcsr3,      ///< 3x3 block CSR ("smvb") — the natural Quake layout
    kSymBcsr3,   ///< symmetric 3x3 BCSR, AVX2 or scalar scatter
    kSlicedEll3, ///< sliced-ELLPACK 3x3, AVX2 or scalar (DESIGN §12)
};

/** Short name of a kernel. */
std::string kernelName(Kernel kernel);

/** All kernels, for iteration in tests and benches. */
inline constexpr Kernel kAllKernels[] = {Kernel::kCsr, Kernel::kBcsr3,
                                         Kernel::kSymBcsr3,
                                         Kernel::kSlicedEll3};

/** Measured sustained performance of one kernel. */
struct KernelTiming
{
    double secondsPerSmvp = 0.0;
    std::int64_t flops = 0;   ///< 2 per logical nonzero (paper's F)
    double tf = 0.0;          ///< seconds per flop
    double mflops = 0.0;      ///< sustained rate
};

/** One autotuner measurement. */
struct AutotuneEntry
{
    Kernel kernel = Kernel::kCsr;
    KernelTiming timing;
};

/** Autotuner verdict: the fastest kernel on this matrix, this host. */
struct AutotuneResult
{
    Kernel best = Kernel::kCsr;
    KernelTiming bestTiming;              ///< measured T_f of the winner
    std::vector<AutotuneEntry> entries;   ///< every kernel, in suite order
};

/** The suite: one matrix, all formats, plus a timing harness. */
class KernelSuite
{
  public:
    /** Assemble the stiffness of (mesh, model) in every format. */
    KernelSuite(const mesh::TetMesh &mesh, const mesh::SoilModel &model,
                double poisson = 0.25);

    /** Scalar DOF count (3 per node). */
    std::int64_t dof() const { return bcsr_.numRows(); }

    /** Logical nonzeros (scalar entries of the full matrix). */
    std::int64_t nnz() const { return bcsr_.nnz(); }

    /**
     * y = K x with the chosen kernel on raw arrays of dof() scalars; y
     * is overwritten.  The one place that maps a Kernel to its format's
     * multiply — run(), measure() and the benches all go through it.
     */
    void runInto(Kernel kernel, const double *x, double *y) const;

    /** y = K x with the chosen kernel; the size of x is checked. */
    std::vector<double> run(Kernel kernel,
                            const std::vector<double> &x) const;

    /**
     * Measure T_f for a kernel: `repetitions` back-to-back SMVPs over a
     * deterministic random vector, timed with the steady clock.  The
     * flop count is the paper's F = 2m regardless of format, so formats
     * with less memory traffic show a smaller T_f for identical
     * arithmetic.
     */
    KernelTiming measure(Kernel kernel, int repetitions) const;

    /**
     * Measure every kernel on the assembled matrix and return the
     * fastest.  Before any timed measurement, every kernel gets one
     * discarded warm-up run, so the first-measured kernel does not pay
     * the cold-cache cost the later ones skip.  Ties break by enum
     * order, never by measurement order, so the verdict is independent
     * of the order kernels are measured in.  This is how a host's
     * honest per-PE T_f is obtained for the §4 requirement sweeps.
     */
    AutotuneResult autotune(int repetitions = 3) const;

    /** Injectable measurement, for testing the selection logic. */
    using MeasureFn = std::function<KernelTiming(Kernel, int)>;

    /**
     * The autotuner's selection logic, measurement injected: measure
     * each kernel of `kernels` in order with `measure`, pick the
     * smallest secondsPerSmvp, break exact ties by enum order.  With a
     * deterministic `measure`, the verdict is a pure function of the
     * kernel SET — permuting `kernels` cannot change it (regression
     * test for the cold-start ordering bug; entries stay in call order).
     */
    static AutotuneResult selectBest(const std::vector<Kernel> &kernels,
                                     int repetitions,
                                     const MeasureFn &measure);

    const sparse::Bcsr3Matrix &bcsr() const { return bcsr_; }
    const sparse::CsrMatrix &csr() const { return csr_; }
    const sparse::SymBcsr3Matrix &symBcsr() const { return sym_bcsr_; }
    const sparse::SlicedEll3Matrix &slicedEll() const { return ell_; }

  private:
    sparse::Bcsr3Matrix bcsr_;
    sparse::CsrMatrix csr_;
    sparse::SymBcsr3Matrix sym_bcsr_;
    sparse::SlicedEll3Matrix ell_;
};

/**
 * Pooled fused central-difference step over a full BCSR3 matrix (the
 * shared-memory analogue of ParallelSmvp::stepFused, without any
 * subdomain machinery): block rows are cut into a FIXED grid of
 * nnz-balanced chunks, each worker walks its chunks computing K u and
 * applying the step update row by row — no ku vector is ever
 * materialized.  Peak/energy partials accumulate per chunk (fixed row
 * order inside a chunk) into cache-line-padded slots and are combined
 * in ascending chunk order; because the chunk grid never depends on
 * the pool size, the reductions and the updated u are bitwise
 * identical for every thread count.
 *
 * Chunk cuts and partial slots are allocated once in the constructor;
 * step() performs no heap allocation (the pool dispatch captures only
 * `this`).  Matrix and pool must outlive the kernel.
 */
class FusedStepKernel
{
  public:
    FusedStepKernel(const sparse::Bcsr3Matrix &a,
                    parallel::WorkerPool &pool);

    /**
     * One fused step: updates su.up in place and returns the
     * deterministic peak/energy reductions over all DOFs.
     */
    sparse::StepPartials step(const sparse::StepUpdate &su) const;

    /** Size of the fixed chunk grid. */
    int chunks() const { return kChunks; }

  private:
    /** Fixed grid size — deliberately NOT a function of pool size. */
    static constexpr int kChunks = 64;

    /** StepPartials per 64-byte cache line: padding stride per chunk. */
    static constexpr std::size_t kPartialsStride = 4;

    const sparse::Bcsr3Matrix &a_;
    parallel::WorkerPool &pool_;
    std::vector<std::int64_t> cut_; ///< kChunks + 1 block-row cuts

    // Reused across steps; mutable so step() stays const (the kernel is
    // non-reentrant, like the rest of the engine layer).
    mutable std::vector<sparse::StepPartials> partials_;
    mutable const sparse::StepUpdate *su_arg_ = nullptr;
};

} // namespace quake::spark

#endif // QUAKE98_SPARK_KERNELS_H_

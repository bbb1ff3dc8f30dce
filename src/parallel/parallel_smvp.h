/**
 * @file
 * Executable parallel SMVP engine (paper §2.3): the two-phase BSP kernel
 * that the whole analysis models.  Each logical PE runs a local SMVP
 * over its subdomain, writes its partial y values for each pairwise
 * exchange into a message buffer, and sums the mirrored buffers from its
 * peers — exactly the "exchange and sum" the paper describes.
 *
 * This is an *engine*, built for the thousands-of-timesteps inner loop:
 *
 *  - Logical PEs are multiplexed onto one persistent WorkerPool
 *    created once per engine lifetime; no threads are spawned per
 *    multiply, and the calling thread serves worker 0's PEs.
 *  - Message buffers and local vectors are allocated once and reused.
 *  - In ExchangeMode::kOverlapped (the default), each PE computes its
 *    boundary rows first and publishes its message buffers early, then
 *    computes its interior rows while peers' contributions are in
 *    flight — the paper's footnote-1 overlap, realized in execution
 *    rather than only in the analytic model.
 *
 * Worker w of T serves PEs w, w + T, w + 2T, ... (DESIGN.md §13).
 * Under pinning each worker but the caller's pins itself to one CPU;
 * every worker first-touches its PEs' slabs, scratch, exchange
 * buffers, and a copy of their stiffness, so the pages it streams
 * every step stay where it runs.
 *
 * The result is bitwise deterministic and independent of thread count,
 * pinning, and overlap mode: every row is computed by the same
 * unrolled kernel, and each PE sums peer contributions in ascending
 * peer order (verify property `engine_invariance`).
 */

#ifndef QUAKE98_PARALLEL_PARALLEL_SMVP_H_
#define QUAKE98_PARALLEL_PARALLEL_SMVP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "parallel/distributor.h"
#include "parallel/worker_pool.h"
#include "sparse/sliced_ell3.h"

namespace quake::parallel
{

/** How the engine schedules the exchange against the local compute. */
enum class ExchangeMode
{
    kBarrier,    ///< compute everything, barrier, then receive + sum
    kOverlapped, ///< publish boundary results early, overlap interior
};

/**
 * Which kernel computes the per-PE local SMVP rows (DESIGN.md §12).
 * The choice is an execution knob with a caveat: results are bitwise
 * deterministic across thread counts and exchange modes WITHIN a
 * backend, but the two backends agree only within ULP tolerance (the
 * sliced-ELL kernel may run the AVX2/FMA path), so trajectories are
 * comparable across backends only through the verify/ oracles.
 */
enum class SmvpKernelBackend
{
    kBcsr3,      ///< row-at-a-time blocked CSR (the PR 2 kernel)
    kSlicedEll3, ///< per-PE sliced-ELLPACK slabs, SIMD-dispatched
};

/** Executes global SMVPs y = Kx over a distributed problem. */
class ParallelSmvp
{
  public:
    /**
     * @param problem     Distributed problem; must have assembled
     *                    stiffness matrices.  Must outlive the engine.
     * @param num_threads Worker threads; 0 means hardwareThreads().
     *                    Capped at the PE count (extra workers would
     *                    idle).
     * @param mode        Exchange scheduling (result is identical).
     * @param backend     Local-row kernel.  kSlicedEll3 converts each
     *                    PE's boundary and interior rows into
     *                    cache-line-padded sliced-ELL slabs at
     *                    construction; the steady-state step performs
     *                    no further allocation.
     * @param pin_cpus    Empty = unpinned.  Otherwise worker w >= 1
     *                    pins itself to CPU pin_cpus[w % pin_cpus.size()]
     *                    before its first task (advisory — see
     *                    pinFailures()); worker 0 is the calling thread
     *                    and is never pinned.  The BCSR3 backend then
     *                    gives each PE a copy of its subdomain
     *                    stiffness, first-touched by the worker that
     *                    serves it.
     *
     * Each worker first-touch-initializes the kernel slabs, scratch
     * vectors, and exchange buffers of the PEs it serves during
     * construction; worker 0's are touched by the constructing thread.
     */
    explicit ParallelSmvp(
        const DistributedProblem &problem, int num_threads = 0,
        ExchangeMode mode = ExchangeMode::kOverlapped,
        SmvpKernelBackend backend = SmvpKernelBackend::kBcsr3,
        std::vector<int> pin_cpus = {});

    /**
     * Compute y = K x on global vectors of length 3 * numGlobalNodes.
     * x must be consistent (a single value per global node); y is the
     * exact global product, each entry written by its owning PE.
     *
     * Reuses the engine's persistent pool and scratch buffers, so a
     * given engine must not run two multiplies concurrently.
     */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /**
     * Zero-copy y = K x into a caller-owned buffer of length
     * 3 * numGlobalNodes: no allocation, no result copy — the
     * steady-state path of the time-stepping loop.  Every entry is
     * written by its owning PE (ownership covers all global nodes), so
     * y needs no zeroing.  Bitwise identical to multiply().
     */
    void multiplyInto(const double *x, double *y) const;

    /** Convenience overload on vectors; sizes are checked. */
    void multiplyInto(const std::vector<double> &x,
                      std::vector<double> &y) const;

    /**
     * One fused central-difference time step (DESIGN.md §8): runs the
     * two-phase SMVP with su.u as x and applies `su` to each owned
     * row's DOFs the moment that row's K u value is finalized — the
     * same two points where multiplyInto() stores rows into y: interior
     * rows right after each kernel batch, owned boundary rows right
     * after the ascending-peer exchange sum — instead of materializing
     * a global ku vector and updating it in a separate serial O(n)
     * pass.  Peak/energy reductions accumulate into per-PE partials
     * (fixed per-PE row order: interior ascending, then owned boundary
     * ascending) combined in ascending PE order, so the returned
     * values are bitwise deterministic across thread counts, pinning,
     * and exchange modes.  The updated u_{n+1} written to su.up is
     * bitwise identical to multiply() + the unfused reference triad.
     *
     * Performs no heap allocation: scratch is persistent and the pool
     * dispatches capture only `this`.
     */
    sparse::StepPartials stepFused(const sparse::StepUpdate &su) const;

    /** Kernel worker threads. */
    int numThreads() const { return num_threads_; }

    /** Exchange scheduling mode. */
    ExchangeMode mode() const { return mode_; }

    /** Local-row kernel backend. */
    SmvpKernelBackend kernelBackend() const { return backend_; }

    /**
     * Advisory pin attempts that failed, at most one per pool thread
     * (numThreads() − 1; 0 when the engine is unpinned or every pin
     * stuck).
     * Complete once construction returns: the first-touch setup
     * dispatch joins all workers past their self-pin.
     */
    std::int64_t pinFailures() const { return pool_->pinFailures(); }

    /**
     * Exchange bytes received per multiply, summed over every PE:
     * localExchangeBytes() holds them all and remoteExchangeBytes() is
     * 0, since every PE's buffers live in the one process.  Callers
     * read their sum.
     */
    std::int64_t remoteExchangeBytes() const { return 0; }
    std::int64_t localExchangeBytes() const { return exchange_bytes_; }

    /**
     * The engine's worker pool (numThreads() workers): its size and
     * pin counts.  Must not be run while a multiply is in flight.
     */
    WorkerPool &workerPool() const { return *pool_; }

    /**
     * Attach a telemetry collector (DESIGN.md §9).  Each worker then
     * times its local and exchange phases into per-thread histograms on
     * every multiply, counts actual publish waits (acquire-spin nanos),
     * and records per-PE boundary/exchange/spin spans on steps where
     * collector->sampledStep() holds.  Pin failures are recorded once,
     * on attach.  Slot layout: 0 = the
     * engine and pool control, 1 + w = worker w — a single writer per
     * slot, so recording never contends.  Recording writes only to the
     * collector's preallocated per-thread slots, so the 0-allocs/step
     * and bitwise-determinism contracts of DESIGN.md §8 are preserved
     * (tested in test_telemetry.cc).  Setup-time only; pass nullptr to
     * detach.  Once setCollector(nullptr) returns, no engine or pool
     * thread touches the old collector again, so it may be destroyed
     * before the engine; otherwise the collector must outlive the
     * engine.
     */
    void setCollector(telemetry::Collector *collector);

  private:
    telemetry::Collector *tele_ = nullptr;
    const DistributedProblem &problem_;
    int num_threads_ = 1;
    ExchangeMode mode_;
    SmvpKernelBackend backend_;

    /**
     * Per-PE sliced-ELL slabs (kSlicedEll3 backend only): boundary rows
     * and interior rows converted separately so the two-phase schedule
     * (boundary → publish → interior) is preserved.  Lane order is the
     * subdomain's ascending row-list order, so the fused triad visits
     * interior rows in exactly the order of the BCSR3 path.  The
     * conversion runs on the worker that serves the PE (first touch).
     */
    std::vector<sparse::SlicedEll3Matrix> boundary_ell_;
    std::vector<sparse::SlicedEll3Matrix> interior_ell_;

    /**
     * Pinned kBcsr3 engines: per-PE copies of the subdomain stiffness,
     * first-touched by the serving worker so the dominant kernel
     * stream reads pages it placed.  Values are identical to the
     * originals, so results are bitwise unchanged.  Empty when
     * unpinned, whose kernels read the subdomain matrix: a copy would
     * add the whole matrix to the resident set (DESIGN.md §13).
     */
    std::vector<sparse::Bcsr3Matrix> local_stiffness_;

    /**
     * For subdomain p, exchange k: index of the mirrored exchange in the
     * peer's exchange list (so receivers can find the sender's buffer).
     */
    std::vector<std::vector<std::int64_t>> mirror_index_;

    /** Flat id of exchange k of subdomain p: exchange_base_[p] + k. */
    std::vector<std::int64_t> exchange_base_;

    /** Local ids (per subdomain) of each exchange's shared nodes. */
    std::vector<std::vector<std::int64_t>> exchange_local_nodes_;

    /** Exchange bytes all PEs receive per multiply. */
    std::int64_t exchange_bytes_ = 0;

    // Persistent engine state, reused across multiplies.  Mutable so
    // multiply() stays const for callers; the engine is documented as
    // non-reentrant.
    mutable std::unique_ptr<WorkerPool> pool_;
    mutable std::vector<std::vector<double>> x_local_;
    mutable std::vector<std::vector<double>> y_local_;
    mutable std::vector<std::vector<double>> buffers_;

    /** Per-exchange publish flag: holds the epoch whose data is ready. */
    mutable std::unique_ptr<std::atomic<std::uint64_t>[]> published_;
    mutable std::uint64_t epoch_ = 0;

    /**
     * Arguments of the multiply/step in flight, stashed as members so
     * the pool dispatch lambdas capture only `this` (small enough for
     * std::function's inline buffer — no per-step heap allocation).
     * su_arg_ selects the row finalizer:
     * null = store rows into y_arg_, else advance them through it.
     */
    mutable const double *x_arg_ = nullptr;
    mutable double *y_arg_ = nullptr;
    mutable const sparse::StepUpdate *su_arg_ = nullptr;

    /** Phases the current fork/join runs (kLocalPhase | kExchangePhase). */
    static constexpr int kLocalPhase = 1;
    static constexpr int kExchangePhase = 2;
    mutable int phases_arg_ = 0;

    /** Per-PE step partials, padded to a cache line (stride 4). */
    mutable std::vector<sparse::StepPartials> step_partials_;

    /** The stiffness PE i's kernels read (first-touched copy if any). */
    const sparse::Bcsr3Matrix &localK(int i) const
    {
        return local_stiffness_.empty()
                   ? problem_.subdomains[static_cast<std::size_t>(i)]
                         .stiffness
                   : local_stiffness_[static_cast<std::size_t>(i)];
    }

    /**
     * Allocate and fill PE i's persistent slabs: local vectors,
     * exchange buffers, and the backend's kernel structures.  Called
     * once per PE at construction, on the worker that serves it (the
     * first-touch discipline of DESIGN.md §13).
     */
    void initPeSlabs(int i);

    /**
     * Run the stashed multiply or step: the one place that chooses
     * barrier vs overlapped scheduling.
     */
    void dispatch() const;

    /** Worker w: phases_arg_ with the stashed finalizer. */
    void runWorker(int w) const;

    /**
     * The phase pair, templated on the row finalizer: the local phase
     * hands each finished interior batch to `fin`, the exchange phase
     * the owned boundary rows once their peer sums are final.
     */
    template <class Finalize>
    void runLocalPhase(int w, const Finalize &fin) const;
    template <class Finalize>
    void runExchangePhase(int w, const Finalize &fin) const;

    /**
     * Spin until exchange `peer_flat` publishes the current epoch,
     * attributing the wait to telemetry slot `slot` (PE `pe`) when a
     * collector is attached.  The fast path — buffer already published
     * — costs one acquire load and no clock read.
     */
    void waitForPublish(std::int64_t peer_flat, int slot,
                        std::int32_t pe, telemetry::Collector *tele,
                        bool sampled) const;
};

} // namespace quake::parallel

#endif // QUAKE98_PARALLEL_PARALLEL_SMVP_H_

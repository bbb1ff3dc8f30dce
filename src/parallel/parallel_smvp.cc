#include "parallel/parallel_smvp.h"

#include <algorithm>
#include <thread>

#include "common/error.h"

namespace quake::parallel
{

namespace
{

/** StepPartials per 64-byte cache line: padding stride for PE slots. */
constexpr std::size_t kPartialsStride = 4;

/**
 * Interior rows per BCSR3 kernel batch.  Batching only amortizes the
 * kernel-call overhead: each row's arithmetic and the finalizer's row
 * order are those of a row-at-a-time sweep, so results are bitwise
 * independent of the batch size.
 */
constexpr std::int64_t kRowBatch = 64;

/**
 * Hand PE `pe`'s owned rows among rows[0, n) (ascending local ids) to
 * the row finalizer as maximal runs whose local and global ids are
 * both consecutive: fin(pe, v0, g0, len) finalizes local nodes
 * [v0, v0 + len), which are global nodes [g0, g0 + len).
 */
template <class Finalize>
void
finalizeRows(const Subdomain &sub, int pe, const std::int64_t *rows,
             std::int64_t n, const Finalize &fin)
{
    for (std::int64_t r = 0; r < n;) {
        const std::int64_t v0 = rows[r];
        if (!sub.ownsNode[v0]) {
            ++r;
            continue;
        }
        const std::int64_t g0 = sub.globalNodes[v0];
        std::int64_t len = 1;
        while (r + len < n && rows[r + len] == v0 + len &&
               sub.ownsNode[v0 + len] &&
               sub.globalNodes[v0 + len] == g0 + len)
            ++len;
        fin(pe, v0, g0, len);
        r += len;
    }
}

} // namespace

ParallelSmvp::ParallelSmvp(const DistributedProblem &problem,
                           int num_threads, ExchangeMode mode,
                           SmvpKernelBackend backend)
    : problem_(problem), mode_(mode), backend_(backend)
{
    QUAKE_EXPECT(!problem.subdomains.empty(),
                 "problem has no subdomains");
    QUAKE_EXPECT(num_threads >= 0,
                 "thread count must be nonnegative, got " << num_threads);
    for (const Subdomain &sub : problem.subdomains)
        QUAKE_EXPECT(sub.stiffness.numBlockRows() > 0,
                     "subdomain " << sub.part
                                  << " has no assembled stiffness");

    // PEs are the paper's unit of decomposition: workers beyond the PE
    // count would idle.  Worker w serves PEs w, w + T, ...
    const int p = problem.numPes();
    num_threads_ = std::min(
        num_threads > 0 ? num_threads : WorkerPool::hardwareThreads(), p);
    pool_ = std::make_unique<WorkerPool>(num_threads_);

    // Precompute exchange bookkeeping.
    exchange_base_.resize(static_cast<std::size_t>(p) + 1, 0);
    for (int i = 0; i < p; ++i)
        exchange_base_[i + 1] =
            exchange_base_[i] +
            static_cast<std::int64_t>(
                problem.schedule.pe(i).exchanges.size());

    mirror_index_.resize(static_cast<std::size_t>(p));
    exchange_local_nodes_.resize(
        static_cast<std::size_t>(exchange_base_[p]));
    for (int i = 0; i < p; ++i) {
        const PeSchedule &pe = problem.schedule.pe(i);
        mirror_index_[i].resize(pe.exchanges.size());
        for (std::size_t k = 0; k < pe.exchanges.size(); ++k) {
            const Exchange &ex = pe.exchanges[k];

            // Locate the mirrored exchange in the peer's sorted list.
            const auto &peer_list =
                problem.schedule.pe(ex.peer).exchanges;
            const auto it = std::lower_bound(
                peer_list.begin(), peer_list.end(), i,
                [](const Exchange &e, int part) { return e.peer < part; });
            QUAKE_REQUIRE(it != peer_list.end() && it->peer == i,
                          "unmirrored exchange");
            QUAKE_REQUIRE(it->nodes.size() == ex.nodes.size(),
                          "message size mismatch");
            mirror_index_[i][k] = it - peer_list.begin();

            // Local node ids of the shared nodes on this PE.
            std::vector<std::int64_t> &locals =
                exchange_local_nodes_[exchange_base_[i] +
                                      static_cast<std::int64_t>(k)];
            locals.reserve(ex.nodes.size());
            const Subdomain &sub = problem.subdomains[i];
            for (mesh::NodeId g : ex.nodes)
                locals.push_back(sub.localNodeOf(g));
            exchange_bytes_ += static_cast<std::int64_t>(
                3 * ex.nodes.size() * sizeof(double));
        }
    }

    // Persistent slabs: outer containers sized here, inner storage
    // filled by initPeSlabs on the worker that serves each PE, so
    // pages are first-touched by the thread that will stream them
    // every step.
    x_local_.resize(static_cast<std::size_t>(p));
    y_local_.resize(static_cast<std::size_t>(p));
    buffers_.resize(static_cast<std::size_t>(exchange_base_[p]));
    if (backend_ == SmvpKernelBackend::kSlicedEll3) {
        boundary_ell_.resize(static_cast<std::size_t>(p));
        interior_ell_.resize(static_cast<std::size_t>(p));
    }
    pool_->run([this, p](int w) {
        for (int i = w; i < p; i += num_threads_)
            initPeSlabs(i);
    });

    published_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        static_cast<std::size_t>(exchange_base_[p]));
    for (std::int64_t e = 0; e < exchange_base_[p]; ++e)
        published_[e].store(0, std::memory_order_relaxed);

    // One cache line (stride 4 x 16 bytes) per PE so fused-step
    // partial accumulation never false-shares between workers.
    step_partials_.assign(static_cast<std::size_t>(p) * kPartialsStride,
                          sparse::StepPartials{});
}

void
ParallelSmvp::initPeSlabs(int i)
{
    const Subdomain &sub =
        problem_.subdomains[static_cast<std::size_t>(i)];
    const std::size_t n =
        static_cast<std::size_t>(3 * sub.numLocalNodes());
    x_local_[static_cast<std::size_t>(i)].assign(n, 0.0);
    y_local_[static_cast<std::size_t>(i)].assign(n, 0.0);
    for (std::int64_t e = exchange_base_[i]; e < exchange_base_[i + 1];
         ++e)
        buffers_[static_cast<std::size_t>(e)].assign(
            3 * exchange_local_nodes_[static_cast<std::size_t>(e)]
                    .size(),
            0.0);

    // kSlicedEll3: convert the PE's boundary and interior row lists
    // into sliced-ELL slabs once, here — the steady-state step then
    // touches only these preallocated slabs.  The row lists are sorted
    // ascending, so slab lane order preserves the ascending-row
    // accumulation order the fused path's determinism relies on.
    if (backend_ == SmvpKernelBackend::kSlicedEll3) {
        boundary_ell_[static_cast<std::size_t>(i)] =
            sparse::SlicedEll3Matrix::fromBcsr3Rows(
                sub.stiffness, sub.boundaryRows.data(),
                static_cast<std::int64_t>(sub.boundaryRows.size()));
        interior_ell_[static_cast<std::size_t>(i)] =
            sparse::SlicedEll3Matrix::fromBcsr3Rows(
                sub.stiffness, sub.interiorRows.data(),
                static_cast<std::int64_t>(sub.interiorRows.size()));
    }
}

void
ParallelSmvp::setCollector(telemetry::Collector *collector)
{
    // The pool sizes the collector for its layout, which is the
    // engine's: slot 0 and 1 + w.
    pool_->setCollector(collector);
    tele_ = collector;
}

void
ParallelSmvp::waitForPublish(std::int64_t peer_flat, int slot,
                             std::int32_t pe,
                             telemetry::Collector *tele,
                             bool sampled) const
{
    if (published_[peer_flat].load(std::memory_order_acquire) == epoch_)
        return;
    const std::uint64_t s0 = tele != nullptr ? tele->now() : 0;
    while (published_[peer_flat].load(std::memory_order_acquire) !=
           epoch_)
        std::this_thread::yield();
    if (tele != nullptr) {
        const std::uint64_t s1 = tele->now();
        tele->add(slot, telemetry::Counter::kAcquireSpinNanos, s1 - s0);
        tele->add(slot, telemetry::Counter::kAcquireSpins, 1);
        tele->observe(slot, telemetry::Hist::kAcquireSpinNanos, s1 - s0);
        if (sampled)
            tele->recordSpan(slot, telemetry::Span::kAcquireSpin, pe,
                             s0, s1);
    }
}

template <class Finalize>
void
ParallelSmvp::runLocalPhase(int w, const Finalize &fin) const
{
    const int p = problem_.numPes();
    const bool publish_early = mode_ == ExchangeMode::kOverlapped;
    telemetry::Collector *tele =
        tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
    const bool sampled = tele != nullptr && tele->sampledStep();
    const int slot = 1 + w;
    const std::uint64_t t0 = tele != nullptr ? tele->now() : 0;

    // Boundary rows first, message buffers published, then interior.
    // When publish_early is set, peers may start consuming a buffer the
    // moment its release-store lands — while this thread is still in
    // the interior sweep below.
    for (int i = w; i < p; i += num_threads_) {
        const Subdomain &sub = problem_.subdomains[i];
        const std::int64_t nl = sub.numLocalNodes();
        const std::uint64_t b0 = sampled ? tele->now() : 0;

        std::vector<double> &xl = x_local_[i];
        for (std::int64_t v = 0; v < nl; ++v) {
            const std::int64_t g = sub.globalNodes[v];
            xl[3 * v + 0] = x_arg_[3 * g + 0];
            xl[3 * v + 1] = x_arg_[3 * g + 1];
            xl[3 * v + 2] = x_arg_[3 * g + 2];
        }

        std::vector<double> &yl = y_local_[i];
        if (backend_ == SmvpKernelBackend::kSlicedEll3)
            boundary_ell_[i].multiply(xl.data(), yl.data());
        else
            sub.stiffness.multiplyRowList(
                xl.data(), yl.data(), sub.boundaryRows.data(),
                static_cast<std::int64_t>(sub.boundaryRows.size()));

        const PeSchedule &pe = problem_.schedule.pe(i);
        for (std::size_t k = 0; k < pe.exchanges.size(); ++k) {
            const std::int64_t flat =
                exchange_base_[i] + static_cast<std::int64_t>(k);
            const std::vector<std::int64_t> &locals =
                exchange_local_nodes_[flat];
            std::vector<double> &buf = buffers_[flat];
            for (std::size_t v = 0; v < locals.size(); ++v) {
                buf[3 * v + 0] = yl[3 * locals[v] + 0];
                buf[3 * v + 1] = yl[3 * locals[v] + 1];
                buf[3 * v + 2] = yl[3 * locals[v] + 2];
            }
            if (publish_early)
                published_[flat].store(epoch_,
                                       std::memory_order_release);
        }
        if (sampled)
            tele->recordSpan(slot, telemetry::Span::kBoundaryPhase, i,
                             b0, tele->now());
    }

    // Interior rows in batches: one kernel call computes a batch's K u
    // values and the finalizer consumes them while they are still in
    // cache.  An interior node lives on exactly one PE, which owns it,
    // so its row is final here and the finalizer's writes are disjoint
    // across PEs.  A sliced-ELL batch is one slice, whose lanes are the
    // next interiorRows in list order (pad lanes trail the last slice).
    for (int i = w; i < p; i += num_threads_) {
        const Subdomain &sub = problem_.subdomains[i];
        const double *xl = x_local_[i].data();
        double *yl = y_local_[i].data();
        const std::int64_t *rows = sub.interiorRows.data();
        const std::int64_t nr =
            static_cast<std::int64_t>(sub.interiorRows.size());
        if (backend_ == SmvpKernelBackend::kSlicedEll3) {
            const sparse::SlicedEll3Matrix &ell = interior_ell_[i];
            const std::int64_t h = ell.sliceHeight();
            for (std::int64_t sl = 0; sl < ell.numSlices(); ++sl) {
                ell.multiplySlices(xl, yl, sl, sl + 1);
                finalizeRows(sub, i, rows + sl * h,
                             std::min(h, nr - sl * h), fin);
            }
            if (tele != nullptr) {
                const sparse::SlicedEll3Matrix &b = boundary_ell_[i];
                tele->add(slot, telemetry::Counter::kEllSliceMultiplies,
                          static_cast<std::uint64_t>(b.numSlices() +
                                                     ell.numSlices()));
                tele->add(slot, telemetry::Counter::kEllPaddedBlocks,
                          static_cast<std::uint64_t>(
                              (b.storedBlocks() - b.structuralBlocks()) +
                              (ell.storedBlocks() -
                               ell.structuralBlocks())));
            }
        } else {
            for (std::int64_t r0 = 0; r0 < nr; r0 += kRowBatch) {
                const std::int64_t count = std::min(kRowBatch, nr - r0);
                sub.stiffness.multiplyRowList(xl, yl, rows + r0, count);
                finalizeRows(sub, i, rows + r0, count, fin);
            }
        }
    }

    if (tele != nullptr) {
        const std::uint64_t t1 = tele->now();
        tele->observe(slot, telemetry::Hist::kLocalPhaseNanos, t1 - t0);
        if (sampled)
            tele->recordSpan(slot, telemetry::Span::kLocalPhase, -1,
                             t0, t1);
    }
}

template <class Finalize>
void
ParallelSmvp::runExchangePhase(int w, const Finalize &fin) const
{
    const int p = problem_.numPes();
    const bool wait_for_publish = mode_ == ExchangeMode::kOverlapped;
    telemetry::Collector *tele =
        tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
    const bool sampled = tele != nullptr && tele->sampledStep();
    const int slot = 1 + w;
    const std::uint64_t t0 = tele != nullptr ? tele->now() : 0;

    for (int i = w; i < p; i += num_threads_) {
        const Subdomain &sub = problem_.subdomains[i];
        std::vector<double> &yl = y_local_[i];
        const PeSchedule &pe = problem_.schedule.pe(i);
        const std::uint64_t e0 = sampled ? tele->now() : 0;

        // Ascending peer order — the determinism guarantee.  Arrival
        // timing never changes the sum order, only how long we wait.
        for (std::size_t k = 0; k < pe.exchanges.size(); ++k) {
            const Exchange &ex = pe.exchanges[k];
            const std::int64_t peer_flat =
                exchange_base_[ex.peer] + mirror_index_[i][k];
            if (wait_for_publish)
                waitForPublish(peer_flat, slot, i, tele, sampled);
            const std::vector<double> &buf = buffers_[peer_flat];
            const std::vector<std::int64_t> &locals =
                exchange_local_nodes_[exchange_base_[i] +
                                      static_cast<std::int64_t>(k)];
            for (std::size_t v = 0; v < locals.size(); ++v) {
                yl[3 * locals[v] + 0] += buf[3 * v + 0];
                yl[3 * locals[v] + 1] += buf[3 * v + 1];
                yl[3 * locals[v] + 2] += buf[3 * v + 2];
            }
        }

        // Every owned boundary row's peer sum is final here.
        finalizeRows(sub, i, sub.boundaryRows.data(),
                     static_cast<std::int64_t>(sub.boundaryRows.size()),
                     fin);
        if (sampled)
            tele->recordSpan(slot, telemetry::Span::kExchange, i, e0,
                             tele->now());
    }

    if (tele != nullptr)
        tele->observe(slot, telemetry::Hist::kExchangeNanos,
                      tele->now() - t0);
}

void
ParallelSmvp::runWorker(int w) const
{
    const auto run = [&](const auto &fin) {
        if ((phases_arg_ & kLocalPhase) != 0)
            runLocalPhase(w, fin);
        if ((phases_arg_ & kExchangePhase) != 0)
            runExchangePhase(w, fin);
    };
    if (su_arg_ == nullptr) {
        // Store: copy finished rows into the global y.
        double *y = y_arg_;
        run([this, y](int i, std::int64_t v0, std::int64_t g0,
                      std::int64_t len) {
            const double *yl =
                y_local_[static_cast<std::size_t>(i)].data() + 3 * v0;
            std::copy(yl, yl + 3 * len, y + 3 * g0);
        });
    } else {
        // Step: advance finished rows' DOFs and fold them into the PE's
        // partials, in the PE's fixed row order (interior ascending,
        // then owned boundary ascending).  x_local_ holds bitwise copies
        // of su.u.
        const sparse::StepUpdate &su = *su_arg_;
        run([this, &su](int i, std::int64_t v0, std::int64_t g0,
                        std::int64_t len) {
            const std::size_t pe = static_cast<std::size_t>(i);
            sparse::advanceAndFold(su, 3 * g0,
                                   x_local_[pe].data() + 3 * v0,
                                   y_local_[pe].data() + 3 * v0, 3 * len,
                                   step_partials_[pe * kPartialsStride]);
        });
    }
}

void
ParallelSmvp::dispatch() const
{
    telemetry::Collector *tele =
        tele_ != nullptr && tele_->enabled() ? tele_ : nullptr;
    const std::uint64_t t0 = tele != nullptr ? tele->now() : 0;

    const auto fork_join = [this](int phases) {
        phases_arg_ = phases;
        pool_->run([this](int w) { runWorker(w); });
    };

    ++epoch_;
    if (mode_ == ExchangeMode::kOverlapped) {
        // One fork/join: each worker publishes its boundary buffers,
        // overlaps its interior rows with the peers' publishes, then
        // spin-waits (with yield) only for buffers not yet ready.
        fork_join(kLocalPhase | kExchangePhase);
    } else {
        // Two joins of the one pool: the join between them is the BSP
        // barrier.
        fork_join(kLocalPhase);
        fork_join(kExchangePhase);
    }

    if (tele != nullptr) {
        const std::uint64_t t1 = tele->now();
        tele->add(0, telemetry::Counter::kSmvpCalls, 1);
        tele->observe(0, telemetry::Hist::kSmvpNanos, t1 - t0);
        tele->recordSpan(0, telemetry::Span::kSmvp, -1, t0, t1);
    }
}

void
ParallelSmvp::multiplyInto(const double *x, double *y) const
{
    x_arg_ = x;
    y_arg_ = y;
    dispatch();
    x_arg_ = nullptr;
    y_arg_ = nullptr;
}

void
ParallelSmvp::multiplyInto(const std::vector<double> &x,
                           std::vector<double> &y) const
{
    const std::int64_t dof = 3 * problem_.numGlobalNodes;
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == dof,
                 "x has " << x.size() << " entries, expected " << dof);
    QUAKE_EXPECT(static_cast<std::int64_t>(y.size()) == dof,
                 "y has " << y.size() << " entries, expected " << dof);
    multiplyInto(x.data(), y.data());
}

std::vector<double>
ParallelSmvp::multiply(const std::vector<double> &x) const
{
    const std::int64_t dof = 3 * problem_.numGlobalNodes;
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == dof,
                 "x has " << x.size() << " entries, expected " << dof);
    std::vector<double> y(static_cast<std::size_t>(dof));
    multiplyInto(x.data(), y.data());
    return y;
}

sparse::StepPartials
ParallelSmvp::stepFused(const sparse::StepUpdate &su) const
{
    QUAKE_EXPECT(su.u != nullptr && su.up != nullptr &&
                     su.f != nullptr && su.invMass != nullptr,
                 "fused step update has unbound field pointers");

    const int p = problem_.numPes();
    for (int i = 0; i < p; ++i)
        step_partials_[static_cast<std::size_t>(i) * kPartialsStride] =
            sparse::StepPartials{};

    x_arg_ = su.u;
    su_arg_ = &su;
    dispatch();
    x_arg_ = nullptr;
    su_arg_ = nullptr;

    // Ascending-PE combine: the per-PE accumulation order is fixed by
    // the partition, so the reduced values are independent of thread
    // count and exchange mode.
    sparse::StepPartials out;
    for (int i = 0; i < p; ++i)
        out.combine(
            step_partials_[static_cast<std::size_t>(i) * kPartialsStride]);
    return out;
}

} // namespace quake::parallel

/**
 * @file
 * Per-format SMVP address-stream emitters (DESIGN.md §15).
 *
 * The paper's architectural argument (§3.1/§4) is that the local SMVP
 * rate is set by the memory system, not the FPU — so the address
 * stream a storage format emits IS its performance model.  Each
 * emitter here walks the exact reference sequence of one format's
 * kernel — the same loads and stores, in the same order, as the code
 * in bcsr3.cc / bcsr3_sym.cc / sliced_ell3.cc — into a format-neutral
 * `AccessTrace` that arch/ replays through the multi-level MESI
 * hierarchy (arch/mesi_hierarchy.h, driven by arch/cosim.h).
 *
 * Three streams, three stories:
 *  - BCSR3: the irregular x gather against streamed values/indices —
 *    the paper's baseline kernel.
 *  - SymBcsr3: the transposed-scatter WRITE stream (y[col] += B^T
 *    x[row] for col > row) — read-modify-writes landing far from the
 *    current row, the interesting case for multi-PE coherence.
 *  - SlicedEll3: lane-contiguous element-plane streaming — the
 *    regularized layout that trades padding bytes for sequential
 *    access.
 *
 * Addresses are synthetic: a `TraceLayout` places each array at an
 * explicit base, so callers can replicate matrix arrays per PE or
 * share x/y between PEs (arch/cosim.h does both).
 */

#ifndef QUAKE98_SPARSE_ACCESS_TRACE_H_
#define QUAKE98_SPARSE_ACCESS_TRACE_H_

#include <cstdint>
#include <vector>

#include "sparse/bcsr3.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"

namespace quake::sparse
{

/** One memory reference of a kernel's address stream. */
struct MemRef
{
    std::uint64_t address = 0;
    std::uint16_t bytes = 8;
    bool write = false;
};

/** The address stream of one kernel invocation (one PE's program order). */
struct AccessTrace
{
    std::vector<MemRef> refs;

    /** Useful flops of the traced work (padding arithmetic excluded). */
    std::int64_t flops = 0;

    void
    read(std::uint64_t address, std::uint16_t bytes)
    {
        refs.push_back(MemRef{address, bytes, false});
    }

    void
    write(std::uint64_t address, std::uint16_t bytes)
    {
        refs.push_back(MemRef{address, bytes, true});
    }
};

/**
 * Base addresses of the arrays a traced kernel touches.  Matrix-side
 * arrays (xadj/cols/values, plus sliceBase/laneRows for sliced-ELL)
 * are placed by the layout helpers; x and y are caller-chosen so
 * several PEs can share one vector address space.  `end` is one past
 * the matrix region, for packing per-PE replicas back to back.
 */
struct TraceLayout
{
    std::uint64_t xadj = 0;
    std::uint64_t cols = 0;
    std::uint64_t values = 0;
    std::uint64_t sliceBase = 0; ///< sliced-ELL only
    std::uint64_t laneRows = 0;  ///< sliced-ELL only
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::uint64_t end = 0; ///< end of the matrix-array region
};

/** Lay out a BCSR3 matrix's arrays at `matrix_base` (64B-aligned each). */
TraceLayout layoutBcsr3(const Bcsr3Matrix &m, std::uint64_t matrix_base,
                        std::uint64_t x_base, std::uint64_t y_base);

/** Lay out a symmetric matrix's (half) arrays. */
TraceLayout layoutSymBcsr3(const SymBcsr3Matrix &m,
                           std::uint64_t matrix_base, std::uint64_t x_base,
                           std::uint64_t y_base);

/** Lay out a sliced-ELL matrix's slice/lane/col/value arrays. */
TraceLayout layoutSlicedEll3(const SlicedEll3Matrix &m,
                             std::uint64_t matrix_base,
                             std::uint64_t x_base, std::uint64_t y_base);

/**
 * Append the reference stream of Bcsr3Matrix::multiplyRows(x, y,
 * row_begin, row_end): row bounds, streamed cols/values, gathered x,
 * overwritten y.  Flop accounting: 18 per stored block.
 */
void traceBcsr3Rows(const Bcsr3Matrix &m, const TraceLayout &layout,
                    std::int64_t row_begin, std::int64_t row_end,
                    AccessTrace &out);

/**
 * Append the reference stream of the portable scalar scatter behind
 * SymBcsr3Matrix::multiply, restricted to block rows [row_begin,
 * row_end): each off-diagonal block additionally read-modify-writes
 * y[col] — the transposed-scatter stream whose targets lie in OTHER
 * rows' (and, partitioned, other PEs') output.  Flops: 18 per stored
 * block plus 18 per off-diagonal block (each does double duty).
 */
void traceSymBcsr3Rows(const SymBcsr3Matrix &m, const TraceLayout &layout,
                       std::int64_t row_begin, std::int64_t row_end,
                       AccessTrace &out);

/**
 * Append the reference stream of SlicedEll3Matrix::multiply(): per
 * slice, the slot bases and lane map, then per slice column the S
 * contiguous cols, the per-lane x gathers, and the nine S-wide value
 * planes — padding slots included, exactly as the vertical kernel
 * streams them.  Flops: 18 per STRUCTURAL block only (the padding
 * arithmetic is modeled as bandwidth, not useful work).
 */
void traceSlicedEll3(const SlicedEll3Matrix &m, const TraceLayout &layout,
                     AccessTrace &out);

} // namespace quake::sparse

#endif // QUAKE98_SPARSE_ACCESS_TRACE_H_

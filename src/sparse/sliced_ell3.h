/**
 * @file
 * Sliced-ELLPACK storage over 3x3 blocks (SELL-S, DESIGN.md §12): block
 * rows are grouped into slices of S lanes, each slice padded to the
 * width of its longest row, with blocks laid out column-major within
 * the slice so S consecutive lanes read S consecutive blocks at every
 * column position.  This is the regularized layout the GPU-FEM SMVP
 * literature (Wong/Kuhl/Darve, arXiv:1501.00324) gets its wins from:
 * the irregular per-row loop of BCSR becomes a dense strip of
 * lane-parallel multiply-accumulates that vectorizes cleanly, at the
 * cost of streaming the zero padding.
 *
 * Within each lane the accumulation order is the ascending block-column
 * order of the source BCSR3 row followed by the slice's zero padding,
 * independent of the slice height and of which kernel slices run in —
 * so a given matrix + x always produces the same bits for a row no
 * matter how slices are partitioned across threads (the determinism
 * argument of DESIGN.md §12).  No bitwise equivalence is claimed
 * *across* storage formats or across the scalar/AVX2 dispatch: those
 * are guarded by the mixed ULP/norm oracle in verify/.
 */

#ifndef QUAKE98_SPARSE_SLICED_ELL3_H_
#define QUAKE98_SPARSE_SLICED_ELL3_H_

#include <cstdint>
#include <vector>

#include "sparse/bcsr3.h"

namespace quake::sparse
{

/** Sparse matrix of 3x3 blocks in sliced-ELLPACK form. */
class SlicedEll3Matrix
{
  public:
    /** Default slice height: two AVX2 lanes of 4 doubles. */
    static constexpr std::int64_t kDefaultSliceHeight = 8;

    /** Hard cap on S (kernel stack buffers are sized by it). */
    static constexpr std::int64_t kMaxSliceHeight = 64;

    SlicedEll3Matrix() = default;

    /**
     * Convert a full BCSR3 matrix: lane i computes block row i (the
     * identity row map), every block row covered.
     */
    static SlicedEll3Matrix fromBcsr3(
        const Bcsr3Matrix &a,
        std::int64_t slice_height = kDefaultSliceHeight);

    /**
     * Convert an explicit list of block rows of `a` — the per-PE slab
     * form used by the distributed engine, which converts boundary and
     * interior rows into separate slabs.  Lane i computes block row
     * rows[i] and writes y[3 rows[i] ..]; the lane order is the list
     * order, so a sorted list keeps ascending-row semantics.
     */
    static SlicedEll3Matrix fromBcsr3Rows(
        const Bcsr3Matrix &a, const std::int64_t *rows,
        std::int64_t num_rows,
        std::int64_t slice_height = kDefaultSliceHeight);

    /** Block rows covered by lanes (the row-list length). */
    std::int64_t numCoveredRows() const { return covered_rows_; }

    /** Scalar dimension of x and y (3 per block row of the source). */
    std::int64_t numRows() const { return 3 * x_block_rows_; }

    std::int64_t sliceHeight() const { return slice_height_; }
    std::int64_t numSlices() const { return num_slices_; }

    /** Blocks actually present in the source rows. */
    std::int64_t structuralBlocks() const { return structural_blocks_; }

    /** Blocks streamed by a multiply: structural + padding slots. */
    std::int64_t
    storedBlocks() const
    {
        return num_slices_ > 0 ? slice_base_[num_slices_] : 0;
    }

    /** Padding overhead: stored / structural blocks (1.0 when empty). */
    double paddingRatio() const;

    /** True when lane i computes block row i for every covered row. */
    bool identityRowMap() const { return identity_rows_; }

    /** Block row computed by `lane`, or -1 for an inactive pad lane. */
    std::int64_t
    laneRow(std::int64_t lane) const
    {
        return lane_rows_[static_cast<std::size_t>(lane)];
    }

    /**
     * Slot base of each slice (size numSlices() + 1, in block slots):
     * slice s holds slots [slice_base_[s], slice_base_[s+1]), width
     * (slice_base_[s+1] - slice_base_[s]) / sliceHeight().  Exposed for
     * the address-stream emitter (access_trace.h).
     */
    const std::vector<std::int64_t> &sliceBases() const
    {
        return slice_base_;
    }

    /** Width (padded row length) of slice s. */
    std::int64_t
    sliceWidth(std::int64_t s) const
    {
        return (slice_base_[s + 1] - slice_base_[s]) / slice_height_;
    }

    /** Block column of the slot at (slice, column j, lane). */
    std::int32_t colAt(std::int64_t s, std::int64_t j,
                       std::int64_t lane) const;

    /** Element e (row-major 0..8) of the block at (slice, j, lane). */
    double valueAt(std::int64_t s, std::int64_t j, std::int64_t lane,
                   int e) const;

    /**
     * y = A x over the covered rows: y[3 r .. 3 r + 2] is overwritten
     * for every covered block row r; all other entries of y are left
     * untouched.  x and y have numRows() scalars.
     */
    void multiply(const double *x, double *y) const;

    /** Convenience overload on vectors; sizes are checked. */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /**
     * y = A x restricted to slices [slice_begin, slice_end) — the
     * building block of the distributed engine's per-slice batches and
     * the fused step.  Slices own disjoint lanes, so concurrent calls on
     * disjoint slice ranges write disjoint rows.
     */
    void multiplySlices(const double *x, double *y,
                        std::int64_t slice_begin,
                        std::int64_t slice_end) const;

    /**
     * Fused time step (requires the identity row map): for each slice,
     * compute its K u values into the caller's scratch y through the
     * same dispatched kernel as multiply() — bit for bit — then apply
     * `su` to the slice's DOFs in ascending lane order while they are
     * hot.  The triad order over all DOFs is ascending, matching the
     * unfused applyStepUpdateRange reference, so fused and unfused runs
     * on this backend produce bitwise-identical u.  `y` has numRows()
     * scalars; no allocation is performed.
     */
    StepPartials multiplyFusedStep(const StepUpdate &su, double *y) const;

    /** Name of the dispatched slice kernel: "avx2" or "scalar". */
    static const char *activeKernelName();

    /** Check structural invariants; panics on violation. */
    void validate() const;

  private:
    std::int64_t x_block_rows_ = 0;   ///< block columns of the source
    std::int64_t covered_rows_ = 0;   ///< lanes bound to real rows
    std::int64_t slice_height_ = kDefaultSliceHeight;
    std::int64_t num_slices_ = 0;
    std::int64_t structural_blocks_ = 0;
    bool identity_rows_ = true;

    std::vector<std::int64_t> slice_base_; ///< numSlices + 1 slot bases
    std::vector<std::int64_t> lane_rows_;  ///< numSlices * S, -1 = pad

    /**
     * Block columns, one per slot; slot = slice_base_[s] + j * S + lane.
     * Padding slots carry column 0 (always in range) and a zero block,
     * so every lane runs the full slice width with exact +0.0
     * contributions from the padding.
     */
    std::vector<std::int32_t> cols_;

    /**
     * Block values in element-plane order: the S blocks of one slice
     * column j occupy values_[9 (slice_base_[s] + j S) ..) as nine
     * planes of S doubles — value(e, lane) at plane offset e * S +
     * lane.  Lane-adjacent elements are contiguous, which is what the
     * vertical (lane-parallel) SIMD kernel streams.  Padded to a whole
     * number of cache lines.
     */
    std::vector<double> values_;
};

} // namespace quake::sparse

#endif // QUAKE98_SPARSE_SLICED_ELL3_H_

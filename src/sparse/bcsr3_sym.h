/**
 * @file
 * Symmetric 3x3-block CSR storage.  The stiffness matrix K is symmetric
 * (paper §2.2), so only the upper block triangle (diagonal blocks
 * included) is stored — about half the blocks of the full BCSR3 form;
 * the SMVP visits each stored off-diagonal block once and applies both
 * the block (to y[row]) and its transpose (to y[col]).  One column
 * index per nine values and unrolled 3x3 dense arithmetic make it the
 * register-blocked half-traffic layout the paper's T_f measurements
 * reward.
 */

#ifndef QUAKE98_SPARSE_BCSR3_SYM_H_
#define QUAKE98_SPARSE_BCSR3_SYM_H_

#include <cstdint>
#include <vector>

#include "sparse/bcsr3.h"

namespace quake::sparse
{

/** Symmetric sparse matrix of 3x3 blocks, upper block triangle stored. */
class SymBcsr3Matrix
{
  public:
    SymBcsr3Matrix() = default;

    /**
     * Build from a full BCSR3 matrix; block symmetry (block(j,i) ==
     * block(i,j)^T entrywise within `tolerance`) is checked.
     */
    static SymBcsr3Matrix fromBcsr3(const Bcsr3Matrix &full,
                                    double tolerance = 0.0);

    std::int64_t numBlockRows() const { return block_rows_; }

    /** Scalar dimension (3 per block row). */
    std::int64_t numRows() const { return 3 * block_rows_; }

    /** Stored 3x3 blocks (upper triangle including the diagonal). */
    std::int64_t
    storedBlocks() const
    {
        return static_cast<std::int64_t>(block_cols_.size());
    }

    /** Scalar entries of the stored half: 9 per block. */
    std::int64_t storedEntries() const { return 9 * storedBlocks(); }

    const std::vector<std::int64_t> &xadj() const { return xadj_; }
    const std::vector<std::int32_t> &blockCols() const { return block_cols_; }

    /** The 3x3 block at storage slot k (row-major 9 doubles). */
    const double *blockAt(std::int64_t k) const { return &values_[9 * k]; }

    /**
     * y = A x on scalar vectors of length numRows(); y is overwritten.
     * One ascending sweep over the block rows scatters each stored
     * block into y[row] and its transpose into y[col].  The sweep runs
     * the AVX2 scatter (vector FMAs, row accumulators folded by a
     * horizontal sum) when the build and host support it, and the
     * portable scalar scatter otherwise; the choice is made once per
     * process, like SlicedEll3Matrix's.  The two differ in summation
     * order, so they agree within ULP tolerance, not bitwise; within
     * one process the result is bitwise deterministic.
     */
    void multiply(const double *x, double *y) const;

    /** Convenience overload on vectors; sizes are checked. */
    std::vector<double> multiply(const std::vector<double> &x) const;

  private:
    std::int64_t block_rows_ = 0;
    std::vector<std::int64_t> xadj_;
    std::vector<std::int32_t> block_cols_;
    std::vector<double> values_; ///< 9 doubles per block, row-major
};

} // namespace quake::sparse

#endif // QUAKE98_SPARSE_BCSR3_SYM_H_

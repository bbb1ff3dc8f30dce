/**
 * @file
 * Block CSR matrix with 3x3 blocks — the natural shape of the Quake
 * stiffness matrix K (paper §2.2): one 3x3 submatrix per pair of mesh
 * nodes joined by an edge (self-edges included), three degrees of freedom
 * (x/y/z displacement) per node.
 */

#ifndef QUAKE98_SPARSE_BCSR3_H_
#define QUAKE98_SPARSE_BCSR3_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sparse/csr.h"

namespace quake::sparse
{

/** A dense 3x3 block stored row-major. */
using Block3 = std::array<double, 9>;

/**
 * Coefficients and field pointers of one fused central-difference step
 * (the Quake update, paper §2.2):
 *
 *   u_{n+1} = (2 u_n - (1 - a0 dt/2) u_{n-1}
 *              + dt^2 M^{-1} (f_n - K u_n)) / (1 + a0 dt/2).
 *
 * The SMVP kernels apply this update to a row's scalar DOFs the moment
 * that row's (K u)_i value is finalized — while it is still in cache —
 * instead of a separate serial O(n) pass over all vectors.  All paths
 * (the fused kernels, the engine's step finalizer, and the unfused
 * reference triad) funnel through advanceAndFold(), so fused and
 * unfused runs produce bitwise-identical u.
 */
struct StepUpdate
{
    const double *u = nullptr;       ///< u_n (the SMVP input x)
    double *up = nullptr;            ///< u_{n-1} in, u_{n+1} out
    const double *f = nullptr;       ///< force at t_n
    const double *invMass = nullptr; ///< reciprocal lumped-mass diagonal
    double dt = 0.0;                 ///< time step (for the energy velocity)
    double dt2 = 0.0;                ///< dt^2
    double prevCoeff = 1.0;          ///< 1 - a0 dt / 2
    double denom = 1.0;              ///< 1 + a0 dt / 2

    /**
     * Update scalar DOF i given u_i — a bitwise copy of u[i] — and its
     * freshly finalized (K u)_i value; writes and returns u_{n+1}[i].
     */
    double
    apply(std::int64_t i, double u_i, double ku_i) const
    {
        const double next = (2.0 * u_i - prevCoeff * up[i] +
                             dt2 * invMass[i] * (f[i] - ku_i)) /
                            denom;
        up[i] = next;
        return next;
    }
};

/**
 * Running reductions folded into a fused step sweep: the step's peak
 * |u_{n+1}| and its kinetic energy (1/2) v^T M v with v = (u_{n+1} -
 * u_n) / dt.  Each worker/range accumulates a private StepPartials in
 * ascending DOF order; partials are combined in a fixed (ascending
 * range) order, so the reduced values are deterministic and
 * independent of thread count.
 */
struct StepPartials
{
    double peak = 0.0;   ///< max |u_{n+1}| over the range
    double energy = 0.0; ///< kinetic-energy partial sum over the range

    /** Fold in DOF i (u_i as passed to apply) after apply returned next. */
    void
    accumulate(const StepUpdate &su, std::int64_t i, double u_i,
               double next)
    {
        peak = std::max(peak, std::fabs(next));
        const double v = (next - u_i) / su.dt;
        energy += 0.5 * v * v / su.invMass[i];
    }

    /** Fixed-order combine (callers combine in ascending range order). */
    void
    combine(const StepPartials &other)
    {
        peak = std::max(peak, other.peak);
        energy += other.energy;
    }
};

/**
 * The step triad, written once: advance the n scalar DOFs
 * [i0, i0 + n) through `su` in ascending order, given a bitwise copy
 * u[0, n) of su.u[i0, i0 + n) and their finalized (K u) values
 * ku[0, n), and fold each into `out`.  Every fused kernel, the
 * distributed engine's step finalizer and the unfused reference
 * (applyStepUpdateRange) advance DOFs only through here.
 */
inline void
advanceAndFold(const StepUpdate &su, std::int64_t i0, const double *u,
               const double *ku, std::int64_t n, StepPartials &out)
{
    for (std::int64_t k = 0; k < n; ++k) {
        const double u_i = u[k];
        out.accumulate(su, i0 + k, u_i, su.apply(i0 + k, u_i, ku[k]));
    }
}

/**
 * The unfused reference triad: apply the update to scalar DOFs
 * [begin, end) from a fully materialized ku vector, accumulating the
 * same partials as the fused kernels.  Lives in the sparse library so
 * it is compiled with the same flags (QUAKE98_NATIVE included) as the
 * fused kernels — the bitwise fused-vs-unfused guarantee must not
 * depend on per-target compile options.
 */
void applyStepUpdateRange(const StepUpdate &su, const double *ku,
                          std::int64_t begin, std::int64_t end,
                          StepPartials &out);

/** Sparse matrix of 3x3 blocks in block-CSR form. */
class Bcsr3Matrix
{
  public:
    Bcsr3Matrix() = default;

    /**
     * Construct an all-zero matrix with the given block sparsity.
     *
     * @param num_block_rows Block rows (mesh nodes); the scalar dimension
     *                       is 3x this.
     * @param xadj           Block-row offsets, size num_block_rows + 1.
     * @param block_cols     Block column indices, strictly increasing per
     *                       row.
     */
    Bcsr3Matrix(std::int64_t num_block_rows, std::vector<std::int64_t> xadj,
                std::vector<std::int32_t> block_cols);

    std::int64_t numBlockRows() const { return block_rows_; }

    /** Scalar dimension (3 per block row). */
    std::int64_t numRows() const { return 3 * block_rows_; }

    /** Number of stored 3x3 blocks. */
    std::int64_t
    numBlocks() const
    {
        return static_cast<std::int64_t>(block_cols_.size());
    }

    /** Scalar nonzero count: 9 per block. */
    std::int64_t nnz() const { return 9 * numBlocks(); }

    /** Exact flop count of multiply(): 2 per stored scalar. */
    std::int64_t flopsPerMultiply() const { return 2 * nnz(); }

    const std::vector<std::int64_t> &xadj() const { return xadj_; }
    const std::vector<std::int32_t> &blockCols() const { return block_cols_; }

    /**
     * Pointer to the 3x3 block at storage slot k (row-major 9 doubles);
     * use findBlock() to map (block row, block col) to a slot.
     */
    double *blockAt(std::int64_t k) { return &values_[9 * k]; }
    const double *blockAt(std::int64_t k) const { return &values_[9 * k]; }

    /**
     * Storage slot of block (br, bc), or -1 when the block is not stored.
     * O(log row length).
     */
    std::int64_t findBlock(std::int64_t br, std::int32_t bc) const;

    /** Accumulate a 3x3 contribution into block (br, bc); must exist. */
    void addToBlock(std::int64_t br, std::int32_t bc, const Block3 &b);

    /** y = A x on scalar vectors of length numRows(); y is overwritten. */
    void multiply(const double *x, double *y) const;

    /** Convenience overload on vectors; sizes are checked. */
    std::vector<double> multiply(const std::vector<double> &x) const;

    /**
     * y = A x restricted to block rows [row_begin, row_end) — the building
     * block of the per-PE local SMVP.  Writes y[3*row_begin ..
     * 3*row_end).
     */
    void multiplyRows(const double *x, double *y, std::int64_t row_begin,
                      std::int64_t row_end) const;

    /**
     * y = A x restricted to an explicit list of block rows (each row's
     * product is identical to what multiply() writes there, bit for
     * bit).  Lets the SMVP engine compute boundary rows before interior
     * rows without permuting the matrix.
     */
    void multiplyRowList(const double *x, double *y,
                         const std::int64_t *rows,
                         std::int64_t num_rows) const;

    /**
     * Fused time step over block rows [row_begin, row_end): for each
     * block row, compute its three (K u) values into registers (the
     * same arithmetic as multiply(), bit for bit), immediately apply
     * `su` to those DOFs while they are hot, and fold the row into
     * `out`.  No ku vector is ever materialized — the O(n) update pass
     * and its memory traffic disappear into the SMVP sweep.  su.u must
     * be the x vector (length numRows()).
     */
    void multiplyRowsFusedStep(const StepUpdate &su,
                               std::int64_t row_begin,
                               std::int64_t row_end,
                               StepPartials &out) const;

    /** Fused time step over the whole matrix; returns the reductions. */
    StepPartials multiplyFusedStep(const StepUpdate &su) const;

    /** Expand to scalar CSR (for cross-checking kernels). */
    CsrMatrix toCsr() const;

    /** Check structural invariants; panics on violation. */
    void validate() const;

  private:
    std::int64_t block_rows_ = 0;
    std::vector<std::int64_t> xadj_;
    std::vector<std::int32_t> block_cols_;
    std::vector<double> values_; ///< 9 doubles per block, row-major
};

} // namespace quake::sparse

#endif // QUAKE98_SPARSE_BCSR3_H_

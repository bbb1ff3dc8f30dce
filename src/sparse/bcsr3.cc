#include "sparse/bcsr3.h"

#include <algorithm>

#include "common/error.h"

namespace quake::sparse
{

Bcsr3Matrix::Bcsr3Matrix(std::int64_t num_block_rows,
                         std::vector<std::int64_t> xadj,
                         std::vector<std::int32_t> block_cols)
    : block_rows_(num_block_rows), xadj_(std::move(xadj)),
      block_cols_(std::move(block_cols))
{
    values_.assign(block_cols_.size() * 9, 0.0);
    validate();
}

void
Bcsr3Matrix::validate() const
{
    QUAKE_REQUIRE(block_rows_ >= 0, "negative block row count");
    QUAKE_REQUIRE(static_cast<std::int64_t>(xadj_.size()) ==
                      block_rows_ + 1,
                  "xadj size mismatch");
    QUAKE_REQUIRE(xadj_.empty() || xadj_.front() == 0,
                  "xadj must start at 0");
    QUAKE_REQUIRE(xadj_.empty() ||
                      xadj_.back() ==
                          static_cast<std::int64_t>(block_cols_.size()),
                  "xadj must end at block count");
    QUAKE_REQUIRE(values_.size() == block_cols_.size() * 9,
                  "values size mismatch");
    for (std::int64_t r = 0; r < block_rows_; ++r) {
        QUAKE_REQUIRE(xadj_[r] <= xadj_[r + 1], "xadj not nondecreasing");
        for (std::int64_t k = xadj_[r]; k < xadj_[r + 1]; ++k) {
            QUAKE_REQUIRE(block_cols_[k] >= 0 &&
                              block_cols_[k] < block_rows_,
                          "block column out of range");
            if (k > xadj_[r])
                QUAKE_REQUIRE(block_cols_[k - 1] < block_cols_[k],
                              "block columns not strictly increasing");
        }
    }
}

std::int64_t
Bcsr3Matrix::findBlock(std::int64_t br, std::int32_t bc) const
{
    QUAKE_EXPECT(br >= 0 && br < block_rows_, "block row out of range");
    const auto first = block_cols_.begin() + xadj_[br];
    const auto last = block_cols_.begin() + xadj_[br + 1];
    const auto it = std::lower_bound(first, last, bc);
    if (it == last || *it != bc)
        return -1;
    return it - block_cols_.begin();
}

void
Bcsr3Matrix::addToBlock(std::int64_t br, std::int32_t bc, const Block3 &b)
{
    const std::int64_t k = findBlock(br, bc);
    QUAKE_REQUIRE(k >= 0, "block (" << br << ", " << bc
                                    << ") is not in the sparsity pattern");
    double *dst = blockAt(k);
    for (int i = 0; i < 9; ++i)
        dst[i] += b[i];
}

namespace
{

/** The three accumulators of one block row of A x. */
struct RowAccum
{
    double a0, a1, a2;
};

/**
 * Accumulators of block row br of A x — the one block-row routine every
 * entry point (full multiply, row subsets, fused step) shares, so all
 * of them produce bitwise-identical values for a given row.
 */
inline RowAccum
blockRowProduct(const std::int64_t *__restrict__ xadj,
                const std::int32_t *__restrict__ cols,
                const double *__restrict__ vals,
                const double *__restrict__ x, std::int64_t br)
{
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0;
    for (std::int64_t k = xadj[br]; k < xadj[br + 1]; ++k) {
        const double *__restrict__ b = &vals[9 * k];
        const double *__restrict__ xv = &x[3 * cols[k]];
        acc0 += b[0] * xv[0] + b[1] * xv[1] + b[2] * xv[2];
        acc1 += b[3] * xv[0] + b[4] * xv[1] + b[5] * xv[2];
        acc2 += b[6] * xv[0] + b[7] * xv[1] + b[8] * xv[2];
    }
    return RowAccum{acc0, acc1, acc2};
}

/** One block row of y = A x; shared by every row-subset entry point. */
inline void
multiplyOneBlockRow(const std::int64_t *__restrict__ xadj,
                    const std::int32_t *__restrict__ cols,
                    const double *__restrict__ vals,
                    const double *__restrict__ x, double *__restrict__ y,
                    std::int64_t br)
{
    const RowAccum acc = blockRowProduct(xadj, cols, vals, x, br);
    y[3 * br + 0] = acc.a0;
    y[3 * br + 1] = acc.a1;
    y[3 * br + 2] = acc.a2;
}

} // namespace

void
applyStepUpdateRange(const StepUpdate &su, const double *ku,
                     std::int64_t begin, std::int64_t end,
                     StepPartials &out)
{
    advanceAndFold(su, begin, su.u + begin, ku + begin, end - begin, out);
}

void
Bcsr3Matrix::multiplyRows(const double *x, double *y, std::int64_t row_begin,
                          std::int64_t row_end) const
{
    for (std::int64_t br = row_begin; br < row_end; ++br)
        multiplyOneBlockRow(xadj_.data(), block_cols_.data(),
                            values_.data(), x, y, br);
}

void
Bcsr3Matrix::multiplyRowList(const double *x, double *y,
                             const std::int64_t *rows,
                             std::int64_t num_rows) const
{
    for (std::int64_t i = 0; i < num_rows; ++i)
        multiplyOneBlockRow(xadj_.data(), block_cols_.data(),
                            values_.data(), x, y, rows[i]);
}

void
Bcsr3Matrix::multiplyRowsFusedStep(const StepUpdate &su,
                                   std::int64_t row_begin,
                                   std::int64_t row_end,
                                   StepPartials &out) const
{
    for (std::int64_t br = row_begin; br < row_end; ++br) {
        const RowAccum acc = blockRowProduct(
            xadj_.data(), block_cols_.data(), values_.data(), su.u, br);
        const double ku[3] = {acc.a0, acc.a1, acc.a2};
        advanceAndFold(su, 3 * br, su.u + 3 * br, ku, 3, out);
    }
}

StepPartials
Bcsr3Matrix::multiplyFusedStep(const StepUpdate &su) const
{
    StepPartials out;
    multiplyRowsFusedStep(su, 0, block_rows_, out);
    return out;
}

void
Bcsr3Matrix::multiply(const double *x, double *y) const
{
    multiplyRows(x, y, 0, block_rows_);
}

std::vector<double>
Bcsr3Matrix::multiply(const std::vector<double> &x) const
{
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == numRows(),
                 "x has " << x.size() << " entries, expected " << numRows());
    std::vector<double> y(static_cast<std::size_t>(numRows()));
    multiply(x.data(), y.data());
    return y;
}

CsrMatrix
Bcsr3Matrix::toCsr() const
{
    std::vector<std::int64_t> xadj(static_cast<std::size_t>(numRows()) + 1,
                                   0);
    std::vector<std::int32_t> cols;
    std::vector<double> values;
    cols.reserve(static_cast<std::size_t>(nnz()));
    values.reserve(static_cast<std::size_t>(nnz()));

    for (std::int64_t br = 0; br < block_rows_; ++br) {
        for (int sub = 0; sub < 3; ++sub) {
            const std::int64_t row = 3 * br + sub;
            for (std::int64_t k = xadj_[br]; k < xadj_[br + 1]; ++k) {
                const double *b = &values_[9 * k];
                for (int c = 0; c < 3; ++c) {
                    cols.push_back(
                        static_cast<std::int32_t>(3 * block_cols_[k] + c));
                    values.push_back(b[3 * sub + c]);
                }
            }
            xadj[row + 1] = static_cast<std::int64_t>(cols.size());
        }
    }
    return CsrMatrix(numRows(), numRows(), std::move(xadj), std::move(cols),
                     std::move(values));
}

} // namespace quake::sparse

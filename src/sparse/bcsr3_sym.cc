#include "sparse/bcsr3_sym.h"

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "sparse/sliced_ell3_kernels.h"

namespace quake::sparse
{

SymBcsr3Matrix
SymBcsr3Matrix::fromBcsr3(const Bcsr3Matrix &full, double tolerance)
{
    SymBcsr3Matrix sym;
    sym.block_rows_ = full.numBlockRows();
    sym.xadj_.assign(static_cast<std::size_t>(sym.block_rows_) + 1, 0);

    for (std::int64_t br = 0; br < full.numBlockRows(); ++br) {
        for (std::int64_t k = full.xadj()[br]; k < full.xadj()[br + 1];
             ++k) {
            const std::int32_t bc = full.blockCols()[k];
            if (bc < br)
                continue;
            const double *b = full.blockAt(k);

            // Symmetry check: the mirrored block must exist and equal
            // this block's transpose (the diagonal block checks itself).
            const std::int64_t mk =
                full.findBlock(bc, static_cast<std::int32_t>(br));
            QUAKE_EXPECT(mk >= 0, "block (" << bc << ", " << br
                                            << ") missing: matrix is not "
                                               "structurally symmetric");
            const double *m = full.blockAt(mk);
            for (int i = 0; i < 3; ++i)
                for (int j = 0; j < 3; ++j)
                    QUAKE_EXPECT(std::fabs(b[3 * i + j] - m[3 * j + i]) <=
                                     tolerance,
                                 "matrix is not symmetric within "
                                 "tolerance at block ("
                                     << br << ", " << bc << ")");

            sym.block_cols_.push_back(bc);
            sym.values_.insert(sym.values_.end(), b, b + 9);
        }
        sym.xadj_[br + 1] =
            static_cast<std::int64_t>(sym.block_cols_.size());
    }
    return sym;
}

namespace
{

/**
 * One block row of the portable scalar sweep: accumulate the row's own
 * products into y[row] and scatter the transposed contributions into
 * y[col].
 */
inline void
scatterOneBlockRow(const std::int64_t *__restrict__ xadj,
                   const std::int32_t *__restrict__ cols,
                   const double *__restrict__ vals,
                   const double *__restrict__ xv, double *__restrict__ yv,
                   std::int64_t br)
{
    const double xr0 = xv[3 * br + 0];
    const double xr1 = xv[3 * br + 1];
    const double xr2 = xv[3 * br + 2];
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0;
    for (std::int64_t k = xadj[br]; k < xadj[br + 1]; ++k) {
        const std::int64_t bc = cols[k];
        const double *__restrict__ b = &vals[9 * k];
        const double xc0 = xv[3 * bc + 0];
        const double xc1 = xv[3 * bc + 1];
        const double xc2 = xv[3 * bc + 2];

        acc0 += b[0] * xc0 + b[1] * xc1 + b[2] * xc2;
        acc1 += b[3] * xc0 + b[4] * xc1 + b[5] * xc2;
        acc2 += b[6] * xc0 + b[7] * xc1 + b[8] * xc2;

        if (bc != br) {
            // Transposed scatter: y[col] += B^T x[row].
            yv[3 * bc + 0] += b[0] * xr0 + b[3] * xr1 + b[6] * xr2;
            yv[3 * bc + 1] += b[1] * xr0 + b[4] * xr1 + b[7] * xr2;
            yv[3 * bc + 2] += b[2] * xr0 + b[5] * xr1 + b[8] * xr2;
        }
    }
    yv[3 * br + 0] += acc0;
    yv[3 * br + 1] += acc1;
    yv[3 * br + 2] += acc2;
}

} // namespace

void
SymBcsr3Matrix::multiply(const double *x, double *y) const
{
    std::memset(y, 0,
                static_cast<std::size_t>(numRows()) * sizeof(double));
#if defined(QUAKE98_HAVE_AVX2)
    if (detail::avx2KernelsAvailable()) {
        detail::symScatterRowsAvx2(
            detail::SymScatterView{xadj_.data(), block_cols_.data(),
                                   values_.data()},
            x, y, 0, block_rows_);
        return;
    }
#endif
    for (std::int64_t br = 0; br < block_rows_; ++br)
        scatterOneBlockRow(xadj_.data(), block_cols_.data(),
                           values_.data(), x, y, br);
}

std::vector<double>
SymBcsr3Matrix::multiply(const std::vector<double> &x) const
{
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == numRows(),
                 "x has " << x.size() << " entries, expected "
                          << numRows());
    std::vector<double> y(static_cast<std::size_t>(numRows()));
    multiply(x.data(), y.data());
    return y;
}

} // namespace quake::sparse

#include "sparse/sliced_ell3.h"

#include <algorithm>

#include "common/error.h"
#include "sparse/sliced_ell3_kernels.h"

namespace quake::sparse
{

namespace detail
{

bool
avx2KernelsAvailable()
{
#if defined(QUAKE98_HAVE_AVX2) && defined(__GNUC__)
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
#else
    return false;
#endif
}

void
ellMultiplySlicesScalar(const EllSliceView &v, const double *x, double *y,
                        std::int64_t s0, std::int64_t s1)
{
    const std::int64_t S = v.slice_height;
    double acc0[SlicedEll3Matrix::kMaxSliceHeight];
    double acc1[SlicedEll3Matrix::kMaxSliceHeight];
    double acc2[SlicedEll3Matrix::kMaxSliceHeight];

    for (std::int64_t s = s0; s < s1; ++s) {
        const std::int64_t base = v.slice_base[s];
        const std::int64_t width = (v.slice_base[s + 1] - base) / S;
        for (std::int64_t l = 0; l < S; ++l)
            acc0[l] = acc1[l] = acc2[l] = 0.0;

        // Dense strip: every lane runs the full slice width; padding
        // slots hold zero blocks and column 0, contributing exact +0.0
        // in the same slot order for every caller — the padded-lane
        // determinism argument of DESIGN.md §12.
        for (std::int64_t j = 0; j < width; ++j) {
            const std::int32_t *__restrict__ c = v.cols + base + j * S;
            const double *__restrict__ p = v.values + 9 * (base + j * S);
#pragma omp simd
            for (std::int64_t l = 0; l < S; ++l) {
                const double *__restrict__ xv = &x[3 * c[l]];
                acc0[l] += p[0 * S + l] * xv[0] + p[1 * S + l] * xv[1] +
                           p[2 * S + l] * xv[2];
                acc1[l] += p[3 * S + l] * xv[0] + p[4 * S + l] * xv[1] +
                           p[5 * S + l] * xv[2];
                acc2[l] += p[6 * S + l] * xv[0] + p[7 * S + l] * xv[1] +
                           p[8 * S + l] * xv[2];
            }
        }

        const std::int64_t *rows = v.lane_rows + s * S;
        for (std::int64_t l = 0; l < S; ++l) {
            const std::int64_t r = rows[l];
            if (r < 0)
                continue;
            y[3 * r + 0] = acc0[l];
            y[3 * r + 1] = acc1[l];
            y[3 * r + 2] = acc2[l];
        }
    }
}

} // namespace detail

namespace
{

using SliceKernel = void (*)(const detail::EllSliceView &, const double *,
                             double *, std::int64_t, std::int64_t);

/** Resolve the slice kernel once; fixed for the process lifetime. */
SliceKernel
sliceKernel()
{
#if defined(QUAKE98_HAVE_AVX2)
    static const SliceKernel kernel = detail::avx2KernelsAvailable()
                                          ? detail::ellMultiplySlicesAvx2
                                          : detail::ellMultiplySlicesScalar;
#else
    static const SliceKernel kernel = detail::ellMultiplySlicesScalar;
#endif
    return kernel;
}

/** Doubles per 64-byte cache line, for padding the value slab. */
constexpr std::int64_t kDoublesPerCacheLine = 8;

std::int64_t
padToCacheLine(std::int64_t n)
{
    return (n + kDoublesPerCacheLine - 1) / kDoublesPerCacheLine *
           kDoublesPerCacheLine;
}

} // namespace

const char *
SlicedEll3Matrix::activeKernelName()
{
    return detail::avx2KernelsAvailable() ? "avx2" : "scalar";
}

SlicedEll3Matrix
SlicedEll3Matrix::fromBcsr3Rows(const Bcsr3Matrix &a,
                                const std::int64_t *rows,
                                std::int64_t num_rows,
                                std::int64_t slice_height)
{
    QUAKE_EXPECT(slice_height >= 1 && slice_height <= kMaxSliceHeight,
                 "slice height must be in [1, " << kMaxSliceHeight
                                                << "], got "
                                                << slice_height);
    QUAKE_EXPECT(num_rows >= 0, "negative row count");

    SlicedEll3Matrix m;
    m.x_block_rows_ = a.numBlockRows();
    m.covered_rows_ = num_rows;
    m.slice_height_ = slice_height;
    m.num_slices_ = (num_rows + slice_height - 1) / slice_height;

    const std::int64_t S = slice_height;
    m.lane_rows_.assign(static_cast<std::size_t>(m.num_slices_ * S), -1);
    m.identity_rows_ = num_rows == a.numBlockRows();
    for (std::int64_t i = 0; i < num_rows; ++i) {
        QUAKE_EXPECT(rows[i] >= 0 && rows[i] < a.numBlockRows(),
                     "row " << rows[i] << " out of range");
        m.lane_rows_[static_cast<std::size_t>(i)] = rows[i];
        if (rows[i] != i)
            m.identity_rows_ = false;
    }

    // Per-slice width = the longest row in the slice; slot bases follow.
    const std::int64_t *xadj = a.xadj().data();
    m.slice_base_.assign(static_cast<std::size_t>(m.num_slices_) + 1, 0);
    for (std::int64_t s = 0; s < m.num_slices_; ++s) {
        std::int64_t width = 0;
        for (std::int64_t l = 0; l < S; ++l) {
            const std::int64_t r = m.lane_rows_[s * S + l];
            if (r >= 0)
                width = std::max(width, xadj[r + 1] - xadj[r]);
        }
        m.slice_base_[s + 1] = m.slice_base_[s] + S * width;
    }

    const std::int64_t total = m.slice_base_[m.num_slices_];
    m.cols_.assign(static_cast<std::size_t>(total), 0);
    m.values_.assign(static_cast<std::size_t>(padToCacheLine(9 * total)),
                     0.0);

    const std::int32_t *bcols = a.blockCols().data();
    for (std::int64_t s = 0; s < m.num_slices_; ++s) {
        const std::int64_t base = m.slice_base_[s];
        for (std::int64_t l = 0; l < S; ++l) {
            const std::int64_t r = m.lane_rows_[s * S + l];
            if (r < 0)
                continue;
            const std::int64_t len = xadj[r + 1] - xadj[r];
            m.structural_blocks_ += len;
            for (std::int64_t j = 0; j < len; ++j) {
                const std::int64_t k = xadj[r] + j;
                const std::int64_t group = base + j * S;
                m.cols_[static_cast<std::size_t>(group + l)] = bcols[k];
                const double *b = a.blockAt(k);
                double *planes =
                    m.values_.data() + 9 * group;
                for (int e = 0; e < 9; ++e)
                    planes[e * S + l] = b[e];
            }
        }
    }
    m.validate();
    return m;
}

SlicedEll3Matrix
SlicedEll3Matrix::fromBcsr3(const Bcsr3Matrix &a, std::int64_t slice_height)
{
    std::vector<std::int64_t> rows(
        static_cast<std::size_t>(a.numBlockRows()));
    for (std::int64_t i = 0; i < a.numBlockRows(); ++i)
        rows[static_cast<std::size_t>(i)] = i;
    return fromBcsr3Rows(a, rows.data(), a.numBlockRows(), slice_height);
}

double
SlicedEll3Matrix::paddingRatio() const
{
    if (structural_blocks_ == 0)
        return 1.0;
    return static_cast<double>(storedBlocks()) /
           static_cast<double>(structural_blocks_);
}

std::int32_t
SlicedEll3Matrix::colAt(std::int64_t s, std::int64_t j,
                        std::int64_t lane) const
{
    return cols_[static_cast<std::size_t>(slice_base_[s] +
                                          j * slice_height_ + lane)];
}

double
SlicedEll3Matrix::valueAt(std::int64_t s, std::int64_t j,
                          std::int64_t lane, int e) const
{
    const std::int64_t group = slice_base_[s] + j * slice_height_;
    return values_[static_cast<std::size_t>(9 * group + e * slice_height_ +
                                            lane)];
}

void
SlicedEll3Matrix::multiplySlices(const double *x, double *y,
                                 std::int64_t slice_begin,
                                 std::int64_t slice_end) const
{
    const detail::EllSliceView v{slice_base_.data(), cols_.data(),
                                 values_.data(), lane_rows_.data(),
                                 slice_height_};
    sliceKernel()(v, x, y, slice_begin, slice_end);
}

void
SlicedEll3Matrix::multiply(const double *x, double *y) const
{
    multiplySlices(x, y, 0, num_slices_);
}

std::vector<double>
SlicedEll3Matrix::multiply(const std::vector<double> &x) const
{
    QUAKE_EXPECT(static_cast<std::int64_t>(x.size()) == numRows(),
                 "x has " << x.size() << " entries, expected "
                          << numRows());
    std::vector<double> y(static_cast<std::size_t>(numRows()), 0.0);
    multiply(x.data(), y.data());
    return y;
}

StepPartials
SlicedEll3Matrix::multiplyFusedStep(const StepUpdate &su, double *y) const
{
    QUAKE_EXPECT(identity_rows_,
                 "fused ELL step requires the identity row map");
    StepPartials out;
    for (std::int64_t s = 0; s < num_slices_; ++s) {
        multiplySlices(su.u, y, s, s + 1);
        // Identity map: the slice's live lanes are block rows
        // [s*S, s*S + lanes), so the triad runs in ascending DOF order —
        // the same order as the unfused applyStepUpdateRange reference.
        const std::int64_t i = 3 * s * slice_height_;
        const std::int64_t lanes =
            std::min(slice_height_, covered_rows_ - s * slice_height_);
        advanceAndFold(su, i, su.u + i, y + i, 3 * lanes, out);
    }
    return out;
}

void
SlicedEll3Matrix::validate() const
{
    QUAKE_REQUIRE(slice_height_ >= 1 && slice_height_ <= kMaxSliceHeight,
                  "slice height out of range");
    QUAKE_REQUIRE(static_cast<std::int64_t>(slice_base_.size()) ==
                      num_slices_ + 1,
                  "slice base size mismatch");
    QUAKE_REQUIRE(num_slices_ == 0 || slice_base_.front() == 0,
                  "slice bases must start at 0");
    QUAKE_REQUIRE(static_cast<std::int64_t>(lane_rows_.size()) ==
                      num_slices_ * slice_height_,
                  "lane row map size mismatch");
    std::int64_t covered = 0;
    for (std::int64_t s = 0; s < num_slices_; ++s) {
        const std::int64_t span = slice_base_[s + 1] - slice_base_[s];
        QUAKE_REQUIRE(span >= 0 && span % slice_height_ == 0,
                      "slice span not a lane multiple");
    }
    for (const std::int64_t r : lane_rows_) {
        QUAKE_REQUIRE(r >= -1 && r < x_block_rows_,
                      "lane row out of range");
        if (r >= 0)
            ++covered;
    }
    QUAKE_REQUIRE(covered == covered_rows_, "covered row count mismatch");
    QUAKE_REQUIRE(static_cast<std::int64_t>(cols_.size()) ==
                      storedBlocks(),
                  "cols size mismatch");
    QUAKE_REQUIRE(static_cast<std::int64_t>(values_.size()) >=
                      9 * storedBlocks(),
                  "values size mismatch");
    for (const std::int32_t c : cols_)
        QUAKE_REQUIRE(c >= 0 && c < x_block_rows_,
                      "block column out of range");
}

} // namespace quake::sparse

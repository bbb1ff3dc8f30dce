/**
 * @file
 * Internal raw-pointer views and kernel entry points shared between the
 * portable sliced-ELL / symmetric-scatter kernels (sliced_ell3.cc,
 * bcsr3_sym.cc — compiled with the library's default flags) and the
 * AVX2 translation unit (simd_avx2.cc — compiled with -mavx2 -mfma only
 * when the CMake probe passes).  Runtime dispatch picks the AVX2 entry
 * points once, at first use, iff the build had them AND the host CPU
 * reports AVX2+FMA — so the library never executes an illegal
 * instruction on an older host.
 */

#ifndef QUAKE98_SPARSE_SLICED_ELL3_KERNELS_H_
#define QUAKE98_SPARSE_SLICED_ELL3_KERNELS_H_

#include <cstdint>

namespace quake::sparse::detail
{

/** Raw view of a SlicedEll3Matrix for the slice kernels. */
struct EllSliceView
{
    const std::int64_t *slice_base = nullptr; ///< numSlices + 1
    const std::int32_t *cols = nullptr;       ///< per slot
    const double *values = nullptr;           ///< element-plane layout
    const std::int64_t *lane_rows = nullptr;  ///< per lane, -1 = pad
    std::int64_t slice_height = 0;
};

/**
 * Portable slice kernel: y rows of slices [s0, s1) overwritten.  Lane
 * accumulation order: ascending slice column j, elements fused per
 * block — identical for every slice partitioning.
 */
void ellMultiplySlicesScalar(const EllSliceView &v, const double *x,
                             double *y, std::int64_t s0, std::int64_t s1);

/** Raw view of a SymBcsr3Matrix for the scatter kernels. */
struct SymScatterView
{
    const std::int64_t *xadj = nullptr;
    const std::int32_t *cols = nullptr;
    const double *values = nullptr; ///< 9 per block, row-major
};

#if defined(QUAKE98_HAVE_AVX2)
/** AVX2 slice kernel: 4 lanes per step, FMA accumulation. */
void ellMultiplySlicesAvx2(const EllSliceView &v, const double *x,
                           double *y, std::int64_t s0, std::int64_t s1);

/**
 * AVX2 symmetric scatter over block rows [row_begin, row_end):
 * accumulates into y without zeroing (the caller zeroes it, as
 * SymBcsr3Matrix::multiply does before either scatter), with vector
 * FMAs for both the row accumulators and the transposed y[col]
 * scatter.  Summation order differs from the portable scalar scatter
 * (vector partials + horizontal sum), so results match it only within
 * ULP tolerance.
 */
void symScatterRowsAvx2(const SymScatterView &v, const double *x,
                        double *y, std::int64_t row_begin,
                        std::int64_t row_end);
#endif

/** True iff the build carries AVX2 kernels and the CPU supports them. */
bool avx2KernelsAvailable();

} // namespace quake::sparse::detail

#endif // QUAKE98_SPARSE_SLICED_ELL3_KERNELS_H_

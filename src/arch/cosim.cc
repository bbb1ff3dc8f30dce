#include "arch/cosim.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"

namespace quake::arch
{

namespace
{

constexpr std::uint64_t kMatrixBase = 0x100000;

std::uint64_t
alignUp64(std::uint64_t v)
{
    return (v + 63) & ~std::uint64_t{63};
}

void
validateOptions(const CosimOptions &options)
{
    QUAKE_EXPECT(options.numPes >= 1, "cosim PE count must be positive");
    QUAKE_EXPECT(options.iterations >= 1,
                 "cosim iteration count must be positive");
    QUAKE_EXPECT(options.chunkRefs >= 1,
                 "cosim replay chunk must be positive");
    QUAKE_EXPECT(options.sliceHeight >= 1 &&
                     options.sliceHeight <=
                         sparse::SlicedEll3Matrix::kMaxSliceHeight,
                 "cosim slice height out of range");
    QUAKE_EXPECT(options.peakFlopsPerSecond > 0,
                 "peak flop rate must be positive");
}

} // namespace

const char *
traceFormatName(TraceFormat format)
{
    switch (format) {
    case TraceFormat::kBcsr3:
        return "bcsr3";
    case TraceFormat::kSymBcsr3:
        return "sym";
    case TraceFormat::kSlicedEll3:
        return "ell";
    }
    return "unknown";
}

std::vector<std::int64_t>
partitionBlockRows(const sparse::Bcsr3Matrix &matrix, int num_pes)
{
    QUAKE_EXPECT(num_pes >= 1, "cosim PE count must be positive");
    const std::int64_t rows = matrix.numBlockRows();
    const std::int64_t total = matrix.numBlocks();
    const auto &xadj = matrix.xadj();

    std::vector<std::int64_t> cuts(static_cast<std::size_t>(num_pes) + 1,
                                   rows);
    cuts[0] = 0;
    std::int64_t row = 0;
    for (int p = 1; p < num_pes; ++p) {
        const std::int64_t target = (total * p) / num_pes;
        while (row < rows && xadj[row] < target)
            ++row;
        cuts[static_cast<std::size_t>(p)] = row;
    }
    return cuts;
}

std::vector<PeTrace>
buildCosimTraces(const sparse::Bcsr3Matrix &matrix,
                 const CosimOptions &options)
{
    validateOptions(options);
    const int pes = options.numPes;
    const std::vector<std::int64_t> cuts =
        partitionBlockRows(matrix, pes);

    std::vector<PeTrace> traces(static_cast<std::size_t>(pes));
    for (int p = 0; p < pes; ++p)
        traces[static_cast<std::size_t>(p)].pe = p;

    // Matrix-side layouts first (vector bases patched per iteration).
    // BCSR3 / SymBcsr3: ONE shared copy of xadj/cols/values.
    // SlicedEll3: a private slab per PE, packed back to back.
    sparse::SymBcsr3Matrix sym;
    std::vector<sparse::SlicedEll3Matrix> slabs;
    std::vector<sparse::TraceLayout> layouts;
    std::uint64_t matrix_end = 0;

    switch (options.format) {
    case TraceFormat::kBcsr3: {
        layouts.assign(static_cast<std::size_t>(pes),
                       sparse::layoutBcsr3(matrix, kMatrixBase, 0, 0));
        matrix_end = layouts[0].end;
        break;
    }
    case TraceFormat::kSymBcsr3: {
        // 1e-9 relative tolerance, as the kernel suite uses for
        // assembled (floating-point-symmetric) stiffness matrices.
        sym = sparse::SymBcsr3Matrix::fromBcsr3(matrix, 1e-9);
        layouts.assign(static_cast<std::size_t>(pes),
                       sparse::layoutSymBcsr3(sym, kMatrixBase, 0, 0));
        matrix_end = layouts[0].end;
        break;
    }
    case TraceFormat::kSlicedEll3: {
        slabs.reserve(static_cast<std::size_t>(pes));
        std::uint64_t base = kMatrixBase;
        for (int p = 0; p < pes; ++p) {
            const std::int64_t begin = cuts[static_cast<std::size_t>(p)];
            const std::int64_t end =
                cuts[static_cast<std::size_t>(p) + 1];
            std::vector<std::int64_t> rows(
                static_cast<std::size_t>(end - begin));
            std::iota(rows.begin(), rows.end(), begin);
            slabs.push_back(sparse::SlicedEll3Matrix::fromBcsr3Rows(
                matrix, rows.data(),
                static_cast<std::int64_t>(rows.size()),
                options.sliceHeight));
            layouts.push_back(
                sparse::layoutSlicedEll3(slabs.back(), base, 0, 0));
            base = layouts.back().end;
        }
        matrix_end = base;
        break;
    }
    }

    // Two shared vector buffers, ping-ponged: iteration k reads
    // vec[k % 2] as x and writes vec[(k + 1) % 2] as y.
    const std::uint64_t vec_bytes =
        alignUp64(24 * static_cast<std::uint64_t>(matrix.numBlockRows()));
    const std::uint64_t vec[2] = {alignUp64(matrix_end),
                                  alignUp64(matrix_end) + vec_bytes};

    for (int it = 0; it < options.iterations; ++it) {
        const std::uint64_t x_base = vec[it % 2];
        const std::uint64_t y_base = vec[(it + 1) % 2];
        for (int p = 0; p < pes; ++p) {
            sparse::TraceLayout l = layouts[static_cast<std::size_t>(p)];
            l.x = x_base;
            l.y = y_base;
            sparse::AccessTrace &out =
                traces[static_cast<std::size_t>(p)].trace;
            const std::int64_t begin = cuts[static_cast<std::size_t>(p)];
            const std::int64_t end =
                cuts[static_cast<std::size_t>(p) + 1];
            switch (options.format) {
            case TraceFormat::kBcsr3:
                sparse::traceBcsr3Rows(matrix, l, begin, end, out);
                break;
            case TraceFormat::kSymBcsr3:
                sparse::traceSymBcsr3Rows(sym, l, begin, end, out);
                break;
            case TraceFormat::kSlicedEll3:
                sparse::traceSlicedEll3(
                    slabs[static_cast<std::size_t>(p)], l, out);
                break;
            }
        }
    }
    return traces;
}

MesiStats
replayTraces(const std::vector<PeTrace> &traces,
             const MesiHierarchyConfig &config, int chunk_refs)
{
    QUAKE_EXPECT(chunk_refs >= 1, "cosim replay chunk must be positive");

    // Canonical schedule: PE-id order, round-robin chunks.  The
    // container order of `traces` must not matter.
    std::vector<const PeTrace *> order;
    order.reserve(traces.size());
    for (const PeTrace &t : traces) {
        QUAKE_EXPECT(t.pe >= 0 && t.pe < config.numPes,
                     "trace PE id out of range for this hierarchy");
        order.push_back(&t);
    }
    std::sort(order.begin(), order.end(),
              [](const PeTrace *a, const PeTrace *b) {
                  return a->pe < b->pe;
              });
    for (std::size_t i = 1; i < order.size(); ++i)
        QUAKE_EXPECT(order[i]->pe != order[i - 1]->pe,
                     "duplicate PE id in trace set");

    MesiHierarchySim sim(config);
    std::vector<std::size_t> cursor(order.size(), 0);
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (std::size_t t = 0; t < order.size(); ++t) {
            const std::vector<sparse::MemRef> &refs =
                order[t]->trace.refs;
            std::size_t c = cursor[t];
            const std::size_t stop =
                std::min(refs.size(),
                         c + static_cast<std::size_t>(chunk_refs));
            for (; c < stop; ++c) {
                const sparse::MemRef &r = refs[c];
                if (r.write)
                    sim.write(order[t]->pe, r.address, r.bytes);
                else
                    sim.read(order[t]->pe, r.address, r.bytes);
            }
            if (c != cursor[t]) {
                cursor[t] = c;
                progressed = true;
            }
        }
    }
    return sim.stats();
}

CosimResult
runCosim(const sparse::Bcsr3Matrix &matrix,
         const MesiHierarchyConfig &config, const CosimOptions &options)
{
    validateOptions(options);
    QUAKE_EXPECT(options.numPes == config.numPes,
                 "cosim PE count must match hierarchy PE count");
    QUAKE_EXPECT(matrix.numBlocks() > 0,
                 "cosim needs a nonempty matrix: an empty matrix has no "
                 "flops and no T_f");

    CosimResult r;
    r.options = options;

    const std::vector<PeTrace> traces =
        buildCosimTraces(matrix, options);
    r.stats = replayTraces(traces, config, options.chunkRefs);

    r.peFlops.assign(traces.size(), 0);
    for (const PeTrace &t : traces) {
        r.peFlops[static_cast<std::size_t>(t.pe)] = t.trace.flops;
        r.totalFlops += t.trace.flops;
        r.totalRefs += static_cast<std::int64_t>(t.trace.refs.size());
    }

    for (int p = 0; p < options.numPes; ++p) {
        const double flop_seconds =
            static_cast<double>(r.peFlops[static_cast<std::size_t>(p)]) /
            options.peakFlopsPerSecond;
        const double pe_seconds = std::max(
            r.stats.pe[static_cast<std::size_t>(p)].seconds, flop_seconds);
        r.effectiveSeconds = std::max(r.effectiveSeconds, pe_seconds);
    }

    if (r.totalFlops > 0 && r.effectiveSeconds > 0) {
        const double flops_per_pe =
            static_cast<double>(r.totalFlops) / options.numPes;
        r.tfSeconds = r.effectiveSeconds / flops_per_pe;
        r.mflops = static_cast<double>(r.totalFlops) /
                   r.effectiveSeconds / 1e6;
        r.fractionOfPeak =
            (static_cast<double>(r.totalFlops) / r.effectiveSeconds) /
            (options.numPes * options.peakFlopsPerSecond);
    }
    return r;
}

} // namespace quake::arch

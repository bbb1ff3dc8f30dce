/**
 * @file
 * Multi-PE trace replay over the MESI hierarchy (DESIGN.md §15).
 *
 * This is the glue between the per-format address-stream emitters
 * (sparse/access_trace.h) and the multi-level MESI simulator
 * (arch/mesi_hierarchy.h): partition a matrix's block rows across
 * simulated PEs, emit each PE's program-order reference stream for the
 * chosen storage format, and replay the streams interleaved through
 * one shared hierarchy.
 *
 * Sharing is surfaced the way the paper's kernels surface it:
 *
 *  - x and y are SHARED vectors, ping-ponged across iterations
 *    (iteration k's output vector is iteration k+1's input), so a
 *    boundary-row x gather in iteration k+1 reads lines a NEIGHBORING
 *    PE wrote in iteration k — true sharing, plus false sharing where
 *    3-scalar (24 B) row records straddle a partition cut inside one
 *    cache line;
 *  - the symmetric format's transposed scatter read-modify-writes
 *    y[col] in OTHER PEs' partitions within a single iteration;
 *  - BCSR3 / SymBcsr3 matrix arrays are shared read-only (one copy in
 *    the CMP address space); SlicedEll3 builds a private per-PE slab
 *    (fromBcsr3Rows) with per-PE array bases, as the slabbed engine
 *    does.
 *
 * Replay order is CANONICAL: traces are sorted by PE id and
 * interleaved round-robin in fixed-size chunks.  Per-PE program order
 * is always preserved, and the schedule is a pure function of the
 * trace set + options — NOT of the order traces are handed in, and
 * not of wall-clock anything.  That is the determinism contract the
 * `arch_replay_deterministic` property and the bench gate check.
 */

#ifndef QUAKE98_ARCH_COSIM_H_
#define QUAKE98_ARCH_COSIM_H_

#include <cstdint>
#include <vector>

#include "arch/mesi_hierarchy.h"
#include "sparse/access_trace.h"
#include "sparse/bcsr3.h"

namespace quake::arch
{

/** Storage format whose kernel address stream is replayed. */
enum class TraceFormat
{
    kBcsr3,
    kSymBcsr3,
    kSlicedEll3,
};

/** Stable lowercase name ("bcsr3", "sym", "ell") for reports/CLIs. */
const char *traceFormatName(TraceFormat format);

/** How to build and schedule the per-PE streams. */
struct CosimOptions
{
    TraceFormat format = TraceFormat::kBcsr3;
    int numPes = 1;

    /**
     * SMVP iterations, ping-ponging x and y.  Two or more make
     * iteration k's remote writes visible to iteration k+1's gathers.
     */
    int iterations = 2;

    /** Slice height for kSlicedEll3 (ignored otherwise). */
    std::int64_t sliceHeight = 8;

    /** References per PE per round-robin turn of the canonical replay. */
    int chunkRefs = 64;

    /** Per-PE peak, for the flop-bound side of the effective time. */
    double peakFlopsPerSecond = 600e6;
};

/** One PE's program-order stream. */
struct PeTrace
{
    int pe = 0;
    sparse::AccessTrace trace;
};

/** Replay outcome: raw MESI stats plus the derived T_f story. */
struct CosimResult
{
    CosimOptions options;
    MesiStats stats;

    std::vector<std::int64_t> peFlops; ///< useful flops per PE
    std::int64_t totalFlops = 0;
    std::int64_t totalRefs = 0;

    /**
     * Modeled wall time of the bulk-synchronous multiply set: max over
     * PEs of max(memory seconds, flops / peak).
     */
    double effectiveSeconds = 0.0;

    /** Effective per-PE time per flop — feeds core::gridFromMeasuredTf. */
    double tfSeconds = 0.0;

    /** Aggregate sustained MFLOPS across all PEs. */
    double mflops = 0.0;

    /** mflops / (numPes * peak) — the paper's ~12% sustained fraction. */
    double fractionOfPeak = 0.0;
};

/**
 * Contiguous block-row partition boundaries (numPes + 1 entries,
 * first 0, last numBlockRows), balanced by stored-block count.
 */
std::vector<std::int64_t> partitionBlockRows(
    const sparse::Bcsr3Matrix &matrix, int num_pes);

/**
 * Emit the per-PE streams for `options.format` over `matrix`
 * (options.iterations ping-ponged SMVPs).  Traces are returned in PE
 * order; each holds that PE's full program order.
 */
std::vector<PeTrace> buildCosimTraces(const sparse::Bcsr3Matrix &matrix,
                                      const CosimOptions &options);

/**
 * Replay `traces` through one MESI hierarchy on the canonical
 * schedule (sorted by PE id, round-robin chunks of `chunk_refs`).
 * The result is invariant to the order of `traces`.
 */
MesiStats replayTraces(const std::vector<PeTrace> &traces,
                       const MesiHierarchyConfig &config, int chunk_refs);

/**
 * buildCosimTraces + replayTraces + the derived T_f numbers.  Throws
 * FatalError on a matrix with no stored blocks: it has no flops, so
 * there is no T_f to derive.
 */
CosimResult runCosim(const sparse::Bcsr3Matrix &matrix,
                     const MesiHierarchyConfig &config,
                     const CosimOptions &options);

} // namespace quake::arch

#endif // QUAKE98_ARCH_COSIM_H_

/**
 * @file
 * Ablation: node ordering and the "irregular memory reference" penalty
 * (§4).  Three numberings of the same sf-class matrix — generator
 * order, randomly scrambled, and reverse Cuthill-McKee — through (a)
 * the co-simulated T3E node (arch::runCosim on t3e1998, one PE, one
 * BCSR3 multiply) and (b) a real timed SMVP on this host.  Shows how
 * much of the gap between sustained and peak rates is ordering, and
 * how much is intrinsic to the sparse gather.
 */

#include "bench/bench_util.h"

#include "arch/cosim.h"
#include "common/rng.h"
#include "spark/kernels.h"
#include "sparse/assembly.h"
#include "sparse/reorder.h"

namespace
{

using namespace quake;

sparse::Permutation
randomScramble(std::int64_t n, std::uint64_t seed)
{
    common::SplitMix64 rng(seed);
    sparse::Permutation p = sparse::Permutation::identity(n);
    for (std::int64_t i = n - 1; i > 0; --i) {
        const std::int64_t j = static_cast<std::int64_t>(
            rng.nextBounded(static_cast<std::uint64_t>(i) + 1));
        std::swap(p.perm[i], p.perm[j]);
    }
    for (std::int64_t i = 0; i < n; ++i)
        p.inverse[p.perm[i]] = static_cast<mesh::NodeId>(i);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    bench::benchHeader("Node-ordering ablation for the local SMVP",
                       "the Section 4 memory-locality observations");

    const mesh::SfClass cls =
        mesh::sfClassFromName(args.get("mesh", "sf5"));
    const mesh::GeneratedMesh generated = mesh::generateSfMesh(cls);
    const mesh::LayeredBasinModel model;

    // The three orderings.
    const mesh::TetMesh &native = generated.mesh;
    const mesh::TetMesh scrambled = sparse::permuteMesh(
        native, randomScramble(native.numNodes(), 0xbadc0de));
    const mesh::TetMesh rcm = sparse::permuteMesh(
        scrambled,
        sparse::reverseCuthillMcKee(scrambled.buildNodeAdjacency()));

    const arch::MesiHierarchyConfig t3e =
        arch::MesiHierarchyConfig::t3e1998(1);
    arch::CosimOptions one_pe; // one PE shares no lines: one pass
    one_pe.format = arch::TraceFormat::kBcsr3;
    one_pe.numPes = 1;
    one_pe.iterations = 1;
    one_pe.peakFlopsPerSecond = 600e6;
    common::Table t({"ordering", "bandwidth", "L1 miss (model)",
                     "MFLOPS (model)", "MFLOPS (measured)"});
    struct Row
    {
        const char *name;
        const mesh::TetMesh *mesh;
    };
    for (const Row &row : {Row{"generator order", &native},
                           Row{"random scramble", &scrambled},
                           Row{"reverse Cuthill-McKee", &rcm}}) {
        const sparse::Bcsr3Matrix k =
            sparse::assembleStiffness(*row.mesh, model);
        const arch::CosimResult predicted = arch::runCosim(k, t3e, one_pe);
        const spark::KernelSuite suite(*row.mesh, model);
        const spark::KernelTiming measured =
            suite.measure(spark::Kernel::kBcsr3, 10);
        t.addRow({std::string(row.name),
                  common::formatCount(sparse::graphBandwidth(
                      row.mesh->buildNodeAdjacency())),
                  common::formatFixed(
                      100 * predicted.stats.pe[0].l1MissRate(), 1) + "%",
                  common::formatFixed(predicted.mflops, 0),
                  common::formatFixed(measured.mflops, 0)});
    }
    t.print(std::cout);

    std::cout
        << "\nReading: scrambling the numbering blows up the matrix "
           "bandwidth and the x-gather miss rate; RCM restores (or "
           "beats) the generator's locality.  The T3E-like model is "
           "very sensitive to ordering (its caches are 8KB/96KB); a "
           "modern host with MB-scale caches shows the effect only "
           "once the matrix outgrows them (run --mesh sf5 or larger). "
           "Either way the kernel stays far below peak, so T_f must "
           "be measured per application, exactly as Section 3.1 "
           "does.\n";
    return 0;
}

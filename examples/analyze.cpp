/**
 * @file
 * The paper's Section 4 as a command: characterize an SMVP instance —
 * a synthetic mesh + partition, or one of the paper's published
 * instances — and print its complete communication-requirement
 * analysis (sustained bandwidth, bisection bandwidth, half-bandwidth
 * points for maximal and cache-line blocks, latency ceilings).
 *
 * Usage:
 *   analyze --paper sf2 --pes 128              # published Figure 7 row
 *   analyze --mesh sf10 --pes 32 [--scale S]   # synthetic pipeline
 *   analyze ... --mflops 150,300 --eff 0.85
 */

#include <iostream>

#include "common/args.h"
#include "common/error.h"
#include "core/reference.h"
#include "core/report.h"
#include "mesh/generator.h"
#include "parallel/characterize.h"
#include "partition/geometric_bisection.h"

int
main(int argc, char **argv)
{
    using namespace quake;
    namespace ref = core::reference;
    const common::Args args(argc, argv);
    try {
        const int pes = static_cast<int>(args.getInt("pes", 128));
        core::AnalysisRequest request;
        if (args.has("mflops"))
            request.mflopsGrid = args.getDoubleList("mflops");
        if (args.has("eff"))
            request.efficiencyGrid = args.getDoubleList("eff");
        const bool from_paper = args.has("paper");
        const std::string paper = args.get("paper");
        const std::string mesh_name = args.get("mesh", "sf10");
        const double scale = args.getDouble("scale", 1.0);
        args.rejectUnread();

        core::SmvpCharacterization ch;
        if (from_paper) {
            // Build a one-PE-shaped characterization from the
            // published Figure 7 entry (per-PE loads identical; no
            // bisection volume is published).
            const ref::PaperMesh mesh = ref::paperMeshFromName(paper);
            const ref::Figure7Entry &entry = ref::figure7(mesh, pes);
            ch.name = ref::paperMeshName(mesh) + "/" +
                      std::to_string(pes) + " (paper)";
            ch.numPes = pes;
            ch.pes.assign(static_cast<std::size_t>(pes),
                          core::PeLoad{entry.flops, entry.wordsMax,
                                       entry.blocksMax});
            ch.messageSizes.assign(
                static_cast<std::size_t>(pes) * entry.blocksMax / 2,
                entry.messageAvg);
        } else {
            const mesh::SfClass cls = mesh::sfClassFromName(mesh_name);
            const mesh::GeneratedMesh generated =
                mesh::generateSfMesh(cls, scale);
            const partition::GeometricBisection partitioner;
            const parallel::DistributedProblem problem =
                parallel::distributeTopology(
                    generated.mesh,
                    partitioner.partition(generated.mesh, pes));
            ch = parallel::characterize(
                problem,
                mesh::sfClassName(cls) + "/" + std::to_string(pes));
        }

        core::printReport(core::analyze(ch, request), std::cout);
    } catch (const common::FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

/**
 * @file
 * An Archimedes-style tool chain driver (paper §2.2): take a mesh
 * (generated or from .node/.ele files), partition it with a chosen
 * method, optionally polish the boundary, then emit everything a
 * parallel run needs — the partition file, the per-PE statistics, and
 * the communication schedule summary.
 *
 * Usage:
 *   archimedes --mesh sf20 [--scale S] --pes 16
 *              [--method inertial|coordinate|spectral|slab|random]
 *              [--refine] [--in prefix] [--out prefix]
 */

#include <iostream>
#include <memory>

#include "common/args.h"
#include "common/error.h"
#include "common/table.h"
#include "core/characterization.h"
#include "mesh/generator.h"
#include "mesh/mesh_io.h"
#include "parallel/characterize.h"
#include "partition/baselines.h"
#include "partition/geometric_bisection.h"
#include "partition/partition_io.h"
#include "partition/partition_stats.h"
#include "partition/refine_boundary.h"
#include "partition/spectral.h"

namespace
{

std::unique_ptr<quake::partition::Partitioner>
makePartitioner(const std::string &method)
{
    using namespace quake::partition;
    if (method == "inertial")
        return std::make_unique<GeometricBisection>(
            BisectionAxis::kInertial);
    if (method == "coordinate")
        return std::make_unique<GeometricBisection>(
            BisectionAxis::kLongestExtent);
    if (method == "spectral")
        return std::make_unique<SpectralBisection>();
    if (method == "slab")
        return std::make_unique<SlabPartitioner>();
    if (method == "random")
        return std::make_unique<RandomPartitioner>();
    quake::common::fatal("unknown method '" + method + "'");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    try {
        const std::string in = args.get("in");
        const std::string mesh_name = args.get("mesh", "sf20");
        const double scale = args.getDouble("scale", 1.0);
        const int pes = static_cast<int>(args.getInt("pes", 16));
        const std::string method = args.get("method", "inertial");
        const bool polish = args.has("refine");
        const std::string out = args.get("out");
        args.rejectUnread();

        // --- 1. Obtain the mesh. ---
        mesh::TetMesh m;
        if (!in.empty()) {
            m = mesh::readMesh(in);
            m.validate();
            std::cout << "read mesh '" << in << "': "
                      << common::formatCount(m.numNodes()) << " nodes, "
                      << common::formatCount(m.numElements())
                      << " elements\n";
        } else {
            const mesh::SfClass cls = mesh::sfClassFromName(mesh_name);
            m = mesh::generateSfMesh(cls, scale).mesh;
            std::cout << "generated " << mesh::sfClassName(cls) << ": "
                      << common::formatCount(m.numNodes()) << " nodes, "
                      << common::formatCount(m.numElements())
                      << " elements\n";
        }

        // --- 2. Partition (+ optional boundary polish). ---
        const auto partitioner = makePartitioner(method);
        partition::Partition part = partitioner->partition(m, pes);
        std::cout << "partitioned into " << pes << " subdomains with "
                  << partitioner->name() << "\n";
        if (polish) {
            const partition::BoundaryRefineReport report =
                partition::refineBoundary(m, part);
            std::cout << "boundary refinement: " << report.moves
                      << " moves, replicas "
                      << common::formatCount(report.replicasBefore)
                      << " -> "
                      << common::formatCount(report.replicasAfter)
                      << "\n";
        }

        // --- 3. Report what a parallel run will see. ---
        const partition::PartitionStats pstats =
            partition::computePartitionStats(m, part);
        const parallel::DistributedProblem problem =
            parallel::distributeTopology(m, part);
        const core::CharacterizationSummary summary = core::summarize(
            parallel::characterize(problem, "archimedes"));

        common::Table t({"property", "value"});
        t.addRow({"element imbalance",
                  common::formatFixed(pstats.elementImbalance, 3)});
        t.addRow({"shared nodes",
                  common::formatCount(pstats.sharedNodes)});
        t.addRow({"max node multiplicity",
                  std::to_string(pstats.maxNodeMultiplicity)});
        t.addRow({"F (flops/PE, max)",
                  common::formatCount(summary.flopsMax)});
        t.addRow({"C_max (words)",
                  common::formatCount(summary.wordsMax)});
        t.addRow({"B_max (blocks)",
                  common::formatCount(summary.blocksMax)});
        t.addRow({"M_avg (words)",
                  common::formatFixed(summary.messageSizeAvg, 0)});
        t.addRow({"F/C_max",
                  common::formatFixed(summary.flopsPerWord, 1)});
        t.addRow({"beta", common::formatFixed(summary.beta, 3)});
        t.print(std::cout);

        // --- 4. Emit artifacts. ---
        if (!out.empty()) {
            mesh::writeMesh(m, out);
            partition::writePartition(part, out + ".part");
            std::cout << "\nwrote " << out << ".node, " << out << ".ele, "
                      << out << ".part\n";
        }
    } catch (const common::FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

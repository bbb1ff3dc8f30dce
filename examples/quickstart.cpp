/**
 * @file
 * Quickstart: the five-minute tour of the library.
 *
 * Generates a small synthetic San Fernando mesh, partitions it with
 * recursive geometric bisection, characterizes the parallel SMVP
 * (the paper's F, C_max, B_max, ...), and asks the performance models
 * what a communication system must deliver to run it at 90% efficiency
 * on 200-MFLOPS processing elements.
 *
 * Usage: quickstart [--mesh sf20|sf10|sf5] [--pes N]
 */

#include <iostream>

#include "common/args.h"
#include "common/table.h"
#include "core/perf_model.h"
#include "core/requirements.h"
#include "mesh/generator.h"
#include "parallel/characterize.h"
#include "partition/geometric_bisection.h"

int
main(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    const mesh::SfClass cls =
        mesh::sfClassFromName(args.get("mesh", "sf20"));
    const int pes = static_cast<int>(args.getInt("pes", 16));
    args.rejectUnread();

    // 1. Generate a graded unstructured tetrahedral mesh of the basin.
    std::cout << "Generating synthetic " << mesh::sfClassName(cls)
              << " mesh...\n";
    const mesh::GeneratedMesh generated = mesh::generateSfMesh(cls);
    const mesh::MeshStats stats = generated.mesh.computeStats();
    std::cout << "  nodes: " << common::formatCount(stats.numNodes)
              << ", elements: " << common::formatCount(stats.numElements)
              << ", edges: " << common::formatCount(stats.numEdges)
              << ", avg degree: " << common::formatFixed(stats.avgDegree, 1)
              << "\n\n";

    // 2. Partition into one subdomain per PE.
    const partition::GeometricBisection partitioner;
    const partition::Partition part =
        partitioner.partition(generated.mesh, pes);

    // 3. Build the communication schedule and characterize the SMVP.
    const parallel::DistributedProblem problem =
        parallel::distributeTopology(generated.mesh, part);
    const core::SmvpCharacterization ch = parallel::characterize(
        problem, mesh::sfClassName(cls) + "/" + std::to_string(pes));
    const core::CharacterizationSummary summary = core::summarize(ch);

    std::cout << "SMVP characterization (" << ch.name << "):\n";
    common::Table properties({"property", "value"});
    properties.addRow({"F (flops/PE)",
                       common::formatCount(summary.flopsMax)});
    properties.addRow({"C_max (words/PE)",
                       common::formatCount(summary.wordsMax)});
    properties.addRow({"B_max (blocks/PE)",
                       common::formatCount(summary.blocksMax)});
    properties.addRow({"M_avg (words)",
                       common::formatFixed(summary.messageSizeAvg, 0)});
    properties.addRow({"F/C_max",
                       common::formatFixed(summary.flopsPerWord, 1)});
    properties.addRow({"beta bound",
                       common::formatFixed(summary.beta, 2)});
    properties.print(std::cout);

    // 4. Ask Equation (1)/(2) what the network must deliver.
    const core::SmvpShape shape = core::SmvpShape::fromSummary(summary);
    const core::Headline h = core::computeHeadline(shape, 200.0, 0.9);
    std::cout << "\nTo run this SMVP at 90% efficiency on 200-MFLOPS "
                 "PEs, the network needs:\n"
              << "  sustained bandwidth per PE : "
              << common::formatBandwidth(h.sustainedBandwidthBytes) << "\n"
              << "  burst bandwidth (half-bw)  : "
              << common::formatBandwidth(h.halfPoint.burstBandwidthBytes)
              << "\n"
              << "  block latency  (half-bw)   : "
              << common::formatTime(h.halfPoint.latency) << "\n"
              << "  latency bound @ inf burst  : "
              << common::formatTime(h.infiniteBurstLatency) << "\n";
    return 0;
}

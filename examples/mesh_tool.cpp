/**
 * @file
 * Mesh utility: generate a synthetic San Fernando mesh and write it in
 * the Archimedes/TetGen-style .node/.ele format (or inspect an existing
 * mesh on disk).
 *
 * Usage: mesh_tool generate --mesh sf20 [--scale S] --out prefix
 *        mesh_tool inspect <prefix>
 *
 * `generate` first reports the generator's own work: refinement passes
 * and splits, whether either refinement cap stopped it, how many jitter
 * moves were accepted and reverted, the wall seconds of generateMesh,
 * and the process's peak RSS up to that point.
 */

#include <sys/resource.h>

#include <chrono>
#include <iostream>

#include "common/args.h"
#include "common/error.h"
#include "common/table.h"
#include "mesh/generator.h"
#include "mesh/mesh_io.h"
#include "mesh/quality.h"

namespace
{

void
printStats(const quake::mesh::TetMesh &mesh)
{
    using namespace quake;
    const mesh::MeshStats s = mesh.computeStats();
    const mesh::QualityReport q = mesh::computeQualityReport(mesh);
    common::Table t({"metric", "value"});
    t.addRow({"nodes", common::formatCount(s.numNodes)});
    t.addRow({"elements", common::formatCount(s.numElements)});
    t.addRow({"edges", common::formatCount(s.numEdges)});
    t.addRow({"avg node degree", common::formatFixed(s.avgDegree, 2)});
    t.addRow({"min element quality", common::formatFixed(s.minQuality, 4)});
    t.addRow({"mean element quality",
              common::formatFixed(s.meanQuality, 4)});
    t.addRow({"min dihedral (deg)",
              common::formatFixed(q.minDihedralRad * 180.0 / M_PI, 1)});
    t.addRow({"max dihedral (deg)",
              common::formatFixed(q.maxDihedralRad * 180.0 / M_PI, 1)});
    t.addRow({"total volume (km^3)",
              common::formatFixed(s.totalVolume, 1)});
    t.print(std::cout);

    std::cout << "\nquality histogram (mean-ratio, 10 bins 0..1):\n";
    for (std::size_t b = 0; b < q.buckets.size(); ++b) {
        std::cout << "  [" << common::formatFixed(0.1 * b, 1) << ", "
                  << common::formatFixed(0.1 * (b + 1), 1) << ") "
                  << q.buckets[b] << "\n";
    }
}

void
printGeneration(const quake::mesh::GeneratedMesh &g, double seconds)
{
    using namespace quake;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const mesh::RefineReport &r = g.refineReport;
    common::Table t({"generator", "value"});
    t.addRow({"refinement passes", std::to_string(r.passes)});
    t.addRow({"edge splits", common::formatCount(r.splits)});
    t.addRow({"element cap reached", r.reachedElementCap ? "yes" : "no"});
    t.addRow({"pass cap reached", r.reachedPassCap ? "yes" : "no"});
    t.addRow({"jitter accepted", common::formatCount(g.jitterAccepted)});
    t.addRow({"jitter reverted", common::formatCount(g.jitterReverted)});
    t.addRow({"generateMesh wall (s)", common::formatFixed(seconds, 3)});
    t.addRow({"peak RSS (MB)", // ru_maxrss is in KiB on Linux
              common::formatFixed(usage.ru_maxrss / 1024.0, 1)});
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    if (args.positional().empty()) {
        std::cout << "usage: mesh_tool generate --mesh sf20 [--scale S] "
                     "--out prefix\n"
                     "       mesh_tool inspect <prefix>\n";
        return 1;
    }

    try {
        const std::string command = args.positional()[0];
        const std::string mesh_name = args.get("mesh", "sf20");
        const double scale = args.getDouble("scale", 1.0);
        const std::string out = args.get("out", "");
        args.rejectUnread();
        if (command == "generate") {
            const mesh::SfClass cls = mesh::sfClassFromName(mesh_name);
            const auto t0 = std::chrono::steady_clock::now();
            const mesh::GeneratedMesh generated =
                mesh::generateSfMesh(cls, scale);
            printGeneration(generated,
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
            printStats(generated.mesh);
            if (!out.empty()) {
                mesh::writeMesh(generated.mesh, out);
                std::cout << "\nwrote " << out << ".node and " << out
                          << ".ele\n";
            }
        } else if (command == "inspect") {
            QUAKE_EXPECT(args.positional().size() >= 2,
                         "inspect needs a path prefix");
            const mesh::TetMesh mesh =
                mesh::readMesh(args.positional()[1]);
            mesh.validate();
            printStats(mesh);
        } else {
            common::fatal("unknown command '" + command + "'");
        }
    } catch (const common::FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

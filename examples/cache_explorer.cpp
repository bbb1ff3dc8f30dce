/**
 * @file
 * Explore the paper's memory-system story (§3.1, §4.3) interactively:
 * assemble a stiffness matrix from a synthetic mesh, replay its SMVP
 * address stream — in any of the three storage formats — through a
 * configurable multi-level MESI hierarchy, and print the per-PE miss
 * taxonomy, coherence traffic, modeled DRAM bytes, and the predicted
 * effective T_f.  With --grid the T_f is fed straight into Equation (1)
 * to show what the modeled memory system demands of the network.
 *
 * Usage:
 *   cache_explorer --mesh sf20 --format sym --pes 4 --era modern
 *   cache_explorer --mesh sf10 --format bcsr3 --era 1998 --grid
 *   cache_explorer --era 1998 --line-bytes 64 --dram-ns 70   # §4.3 sweep
 *
 * Overrides (--line-bytes, --l1-kb, --l2-kb, --llc-mb, --dram-ns,
 * --coherence-ns, --peak-mflops) patch the chosen era's preset and are
 * validated with a distinct diagnostic per field; bad values, and a
 * malformed --eff list, die with "fatal: ..." before any mesh is
 * generated.
 */

#include <iostream>
#include <string>

#include "arch/cosim.h"
#include "common/args.h"
#include "common/error.h"
#include "common/table.h"
#include "core/requirements.h"
#include "mesh/generator.h"
#include "mesh/soil_model.h"
#include "parallel/characterize.h"
#include "partition/geometric_bisection.h"
#include "sparse/assembly.h"

namespace
{

using namespace quake;

arch::TraceFormat
formatFromName(const std::string &name)
{
    if (name == "bcsr3")
        return arch::TraceFormat::kBcsr3;
    if (name == "sym")
        return arch::TraceFormat::kSymBcsr3;
    if (name == "ell")
        return arch::TraceFormat::kSlicedEll3;
    common::fatal("unknown format '" + name +
                  "' (expected bcsr3, sym, or ell)");
}

std::string
pct(double num, double den)
{
    return common::formatFixed(den > 0 ? 100.0 * num / den : 0.0, 2) +
           "%";
}

} // namespace

int
main(int argc, char **argv)
{
    const common::Args args(argc, argv);
    try {
        // ---- hierarchy: era preset + per-field overrides ------------
        const int pes = static_cast<int>(args.getInt("pes", 4));
        const std::string era = args.get("era", "1998");
        arch::MesiHierarchyConfig config;
        double peak_mflops = 0.0;
        if (era == "1998") {
            config = arch::MesiHierarchyConfig::t3e1998(pes);
            peak_mflops = 600.0;
        } else if (era == "modern") {
            config = arch::MesiHierarchyConfig::nehalemCmp(pes);
            peak_mflops = 11720.0;
        } else {
            common::fatal("unknown era '" + era +
                          "' (expected 1998 or modern)");
        }
        if (args.has("line-bytes")) {
            const int line =
                static_cast<int>(args.getInt("line-bytes", 0));
            config.l1.lineBytes = line;
            config.l2.lineBytes = line;
            config.llc.lineBytes = line;
        }
        if (args.has("l1-kb"))
            config.l1.sizeBytes = args.getInt("l1-kb", 0) * 1024;
        if (args.has("l2-kb"))
            config.l2.sizeBytes = args.getInt("l2-kb", 0) * 1024;
        if (args.has("llc-mb"))
            config.llc.sizeBytes =
                args.getInt("llc-mb", 0) * 1024 * 1024;
        if (args.has("dram-ns"))
            config.dramSeconds = args.getDouble("dram-ns", 0.0) * 1e-9;
        if (args.has("coherence-ns"))
            config.coherenceSeconds =
                args.getDouble("coherence-ns", 0.0) * 1e-9;
        peak_mflops = args.getDouble("peak-mflops", peak_mflops);
        config.validate();

        arch::CosimOptions opt;
        opt.format = formatFromName(args.get("format", "sym"));
        opt.numPes = pes;
        opt.iterations =
            static_cast<int>(args.getInt("iterations", 2));
        opt.sliceHeight = args.getInt("slice", 8);
        opt.peakFlopsPerSecond = peak_mflops * 1e6;
        const std::vector<double> effs =
            args.has("eff") ? args.getDoubleList("eff")
                            : std::vector<double>{0.5, 0.8, 0.9};
        const bool grid = args.has("grid");
        const std::string mesh_name = args.get("mesh", "sf20");
        const double scale = args.getDouble("scale", 1.0);
        args.rejectUnread();

        // ---- the instance -------------------------------------------
        const mesh::SfClass cls = mesh::sfClassFromName(mesh_name);
        const mesh::GeneratedMesh generated =
            mesh::generateSfMesh(cls, scale);
        const mesh::LayeredBasinModel model;
        const sparse::Bcsr3Matrix k =
            sparse::assembleStiffness(generated.mesh, model);

        std::cout << "cache_explorer: " << mesh::sfClassName(cls)
                  << ", " << k.numRows() << " scalar rows, " << k.nnz()
                  << " nnz\n"
                  << "hierarchy: era " << era << ", " << pes
                  << " PE(s), line " << config.l1.lineBytes
                  << " B, L1 " << config.l1.sizeBytes / 1024
                  << " KB, L2 " << config.l2.sizeBytes / 1024 << " KB, "
                  << (config.hasLlc
                          ? "LLC " +
                                std::to_string(config.llc.sizeBytes /
                                               (1024 * 1024)) +
                                " MB"
                          : std::string("no shared LLC"))
                  << ", DRAM "
                  << common::formatTime(config.dramSeconds) << "\n"
                  << "replay: format "
                  << arch::traceFormatName(opt.format) << ", "
                  << opt.iterations
                  << " ping-ponged SMVP iteration(s)\n\n";

        const arch::CosimResult r = arch::runCosim(k, config, opt);
        const arch::MesiStats &s = r.stats;

        common::Table t({"PE", "accesses", "L1 miss", "priv miss",
                         "cold", "coherence", "cap/conf", "true:false",
                         "upgrades", "seconds"});
        for (std::size_t p = 0; p < s.pe.size(); ++p) {
            const arch::PeStats &ps = s.pe[p];
            t.addRow({std::to_string(p),
                      common::formatCount(ps.accesses),
                      pct(static_cast<double>(ps.l1Misses),
                          static_cast<double>(ps.accesses)),
                      pct(static_cast<double>(ps.l2Misses),
                          static_cast<double>(ps.accesses)),
                      common::formatCount(ps.coldMisses),
                      common::formatCount(ps.coherenceMisses),
                      common::formatCount(ps.capacityMisses),
                      std::to_string(ps.trueSharingMisses) + ":" +
                          std::to_string(ps.falseSharingMisses),
                      common::formatCount(ps.upgrades),
                      common::formatTime(ps.seconds)});
        }
        t.print(std::cout);

        std::cout << "\nshared level: "
                  << common::formatCount(s.llcAccesses)
                  << " LLC accesses, " << common::formatCount(s.llcMisses)
                  << " misses, "
                  << common::formatFixed(s.bytesFromDram / 1e6, 1)
                  << " MB from DRAM\n"
                  << "effective T_f "
                  << common::formatTime(r.tfSeconds) << "  ("
                  << common::formatFixed(r.mflops, 0)
                  << " MFLOPS aggregate, "
                  << common::formatFixed(100.0 * r.fractionOfPeak, 1)
                  << "% of " << common::formatFixed(peak_mflops, 0)
                  << " MFLOPS/PE peak)\n";

        // ---- Equation (1) from the co-simulated T_f -----------------
        if (grid) {
            const partition::GeometricBisection partitioner;
            const parallel::DistributedProblem problem =
                parallel::distributeTopology(
                    generated.mesh,
                    partitioner.partition(generated.mesh, pes));
            const core::SmvpShape shape = core::SmvpShape::fromSummary(
                core::summarize(parallel::characterize(
                    problem, mesh::sfClassName(cls) + "/" +
                                 std::to_string(pes))));
            common::Table req(
                {"E", "T_c", "sustained bandwidth/PE"});
            for (const core::RequirementRow &row :
                 core::requirementSweepFromTf(shape, r.tfSeconds,
                                              effs))
                req.addRow({common::formatFixed(row.point.efficiency, 2),
                            common::formatTime(row.tc),
                            common::formatBandwidth(
                                row.sustainedBandwidthBytes)});
            std::cout << "\nEquation (1) network requirements at the "
                         "co-simulated T_f:\n";
            req.print(std::cout);
        }
    } catch (const common::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
    return 0;
}

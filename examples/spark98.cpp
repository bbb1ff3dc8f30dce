/**
 * @file
 * Spark98 revisited: measure the sustained local-SMVP rate T_f^-1 on
 * this host for each storage format's single-threaded kernel (one PE's
 * rate, as Eq. (1) uses it), the way §3.1 measured 30 ns on the Cray
 * T3D and 14 ns on the T3E.
 *
 * Usage: spark98 [--mesh sf20|sf10|sf5] [--reps N]
 */

#include <iostream>

#include "common/args.h"
#include "common/table.h"
#include "core/reference.h"
#include "mesh/generator.h"
#include "spark/kernels.h"

int
main(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    const mesh::SfClass cls =
        mesh::sfClassFromName(args.get("mesh", "sf10"));
    const int reps = static_cast<int>(args.getInt("reps", 20));
    args.rejectUnread();

    std::cout << "Assembling " << mesh::sfClassName(cls)
              << " stiffness in all formats...\n";
    const mesh::LayeredBasinModel model;
    const mesh::GeneratedMesh generated = mesh::generateSfMesh(cls);
    const spark::KernelSuite suite(generated.mesh, model);

    std::cout << "  DOFs: " << common::formatCount(suite.dof())
              << ", scalar nonzeros: " << common::formatCount(suite.nnz())
              << ", flops per SMVP: "
              << common::formatCount(2 * suite.nnz()) << "\n\n";

    common::Table t({"kernel", "s/SMVP", "T_f", "sustained MFLOPS"});
    for (spark::Kernel kernel : spark::kAllKernels) {
        const spark::KernelTiming timing = suite.measure(kernel, reps);
        t.addRow({spark::kernelName(kernel),
                  common::formatTime(timing.secondsPerSmvp),
                  common::formatTime(timing.tf),
                  common::formatFixed(timing.mflops, 1)});
    }
    t.print(std::cout);

    std::cout << "\nPaper reference points (local Quake SMVP):\n"
              << "  Cray T3D (150 MHz 21064): T_f = "
              << common::formatTime(core::reference::kCrayT3dTf)
              << "  (~33 MFLOPS)\n"
              << "  Cray T3E (300 MHz 21164): T_f = "
              << common::formatTime(core::reference::kCrayT3eTf)
              << "  (~70 MFLOPS, 12% of 600 MFLOPS peak)\n";
    return 0;
}

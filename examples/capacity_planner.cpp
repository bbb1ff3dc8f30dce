/**
 * @file
 * Capacity planner: the paper's models turned into an engineering tool.
 *
 * Given a machine description (sustained MFLOPS, block latency, burst
 * bandwidth), predict the efficiency of every Quake SMVP instance from
 * the paper's Figure 7, show whether latency or bandwidth dominates the
 * communication phase, and say what to fix first.
 *
 * Usage: capacity_planner [--mflops F] [--latency-us L] [--burst-mbs B]
 *                         [--mesh sf10|sf5|sf2|sf1] [--block-words W]
 *                         [--faults [--drop-rate R] [--seed S]]
 *                         [--deadline-ms D [--retry-budget N]]
 *
 * Defaults describe the Cray T3E as measured in the paper.  With
 * --faults, a synthetic irregular exchange is executed through the
 * reliable protocol at the given drop rate and the Equation (1)/(2)
 * targets are deflated by the measured phase inflation.  With
 * --deadline-ms, the planner checks a per-step stall deadline SLO
 * against the Eq. (1) model prediction for the worst instance — the
 * same model-informed timeout the resilience supervisor derives — and
 * says whether the budgeted retries can absorb a stall.
 */

#include <iostream>

#include "common/args.h"
#include "common/error.h"
#include "common/table.h"
#include "core/requirements.h"
#include "core/reference.h"
#include "mesh/generator.h"
#include "parallel/event_sim.h"
#include "parallel/machine.h"
#include "parallel/phase_simulator.h"
#include "parallel/reliable_exchange.h"
#include "partition/geometric_bisection.h"
#include "resilience/supervisor.h"

namespace
{

int
run(int argc, char **argv)
{
    using namespace quake;
    namespace ref = core::reference;
    const common::Args args(argc, argv);

    // customMachine validates the hardware description (positive rate,
    // non-negative latency, positive bandwidth); the SLO flags and the
    // fault spec, when requested, are validated before any table is
    // printed.
    const parallel::MachineModel machine = parallel::customMachine(
        "planned", args.getDouble("mflops", 70.0),
        args.getDouble("latency-us", 22.0) * 1e-6,
        args.getDouble("burst-mbs", 145.0) * 1e6);
    const ref::PaperMesh mesh =
        ref::paperMeshFromName(args.get("mesh", "sf2"));
    const long block_words = args.getInt("block-words", 0); // 0 = maximal
    QUAKE_EXPECT(block_words >= 0,
                 "--block-words must be >= 0, got " << block_words);
    const bool has_deadline = args.has("deadline-ms");
    const double deadline_ms = args.getDouble("deadline-ms", 0.0);
    if (has_deadline)
        QUAKE_EXPECT(deadline_ms > 0,
                     "--deadline-ms must be positive, got " << deadline_ms);
    const long retry_budget = args.getInt("retry-budget", 3);
    QUAKE_EXPECT(retry_budget >= 1,
                 "--retry-budget must be >= 1, got " << retry_budget);
    // --seed and --drop-rate are read (and so accepted) without
    // --faults, but only checked when the fault model uses them.
    const bool faults = args.has("faults");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 0x5eed));
    const double drop_rate = args.getDouble("drop-rate", 1e-3);
    args.rejectUnread();
    parallel::FaultSpec fault_spec;
    if (faults) {
        QUAKE_EXPECT(drop_rate >= 0.0 && drop_rate <= 1.0,
                     "--drop-rate must be in [0, 1], got " << drop_rate);
        fault_spec.seed = seed;
        fault_spec.dropProbability = drop_rate;
        fault_spec.ackDropProbability = fault_spec.dropProbability;
        fault_spec.validate();
    }

    std::cout << "Machine: " << common::formatFixed(machine.mflops(), 0)
              << " MFLOPS sustained, T_l = "
              << common::formatTime(machine.tl) << ", burst = "
              << common::formatBandwidth(machine.burstBandwidthBytes())
              << (block_words > 0 ? " (" + std::to_string(block_words) +
                                        "-word blocks)"
                                  : " (maximally aggregated blocks)")
              << "\n\n";

    common::Table t({"instance", "F/C_max", "T_comp", "T_comm",
                     "efficiency", "latency share", "advice"});
    for (int subdomains : ref::kSubdomainCounts) {
        core::SmvpShape shape = ref::shapeFor(mesh, subdomains);
        if (block_words > 0)
            shape = core::withFixedBlockSize(
                shape, static_cast<double>(block_words));

        const double t_comp = shape.flops * machine.tf;
        const double lat_time = shape.blocksMax * machine.tl;
        const double burst_time = shape.wordsMax * machine.tw;
        const double t_comm = lat_time + burst_time;
        const double eff = t_comp / (t_comp + t_comm);
        const double lat_share = lat_time / t_comm;

        const char *advice =
            eff > 0.9 ? "network is adequate"
            : (lat_share > 0.67
                   ? "reduce block latency"
                   : (lat_share < 0.33 ? "raise burst bandwidth"
                                       : "improve both equally"));

        t.addRow({ref::paperMeshName(mesh) + "/" +
                      std::to_string(subdomains),
                  common::formatFixed(shape.flops / shape.wordsMax, 0),
                  common::formatTime(t_comp), common::formatTime(t_comm),
                  common::formatFixed(eff, 3),
                  common::formatFixed(100.0 * lat_share, 0) + "%",
                  advice});
    }
    t.print(std::cout);

    std::cout << "\nTargets from Equation (1) for this machine at 90% "
                 "efficiency (worst instance, "
              << ref::paperMeshName(mesh) << "/128):\n";
    const core::SmvpShape worst = ref::shapeFor(mesh, 128);
    const core::Headline h =
        core::computeHeadline(worst, machine.mflops(), 0.9);
    std::cout << "  sustained bandwidth : "
              << common::formatBandwidth(h.sustainedBandwidthBytes) << "\n"
              << "  half-bw burst       : "
              << common::formatBandwidth(h.halfPoint.burstBandwidthBytes)
              << "\n"
              << "  half-bw latency     : "
              << common::formatTime(h.halfPoint.latency) << "\n";

    if (has_deadline) {
        // The stall deadline the resilience supervisor would derive
        // from Eq. (1) for this machine's worst instance, vs the SLO.
        const double tc =
            core::tcFromBlocks(worst, machine.tl, machine.tw);
        const std::chrono::milliseconds model =
            resilience::modelStepDeadline(worst, machine.tf, tc, 3.0);
        const bool feasible =
            deadline_ms >= static_cast<double>(model.count());
        std::cout << "\nDeadline SLO check ("
                  << ref::paperMeshName(mesh) << "/128, "
                  << retry_budget << " attempt budget):\n"
                  << "  model step deadline : " << model.count()
                  << " ms (3x Eq. (1) prediction)\n"
                  << "  requested deadline  : "
                  << common::formatFixed(deadline_ms, 1) << " ms — "
                  << (feasible
                          ? "feasible; stalls leave headroom for "
                                + std::to_string(retry_budget - 1) +
                                " retr" +
                                (retry_budget == 2 ? std::string("y")
                                                   : std::string("ies"))
                          : "INFEASIBLE: tighter than the model predicts "
                            "a healthy step takes; the stall check would "
                            "abandon healthy runs")
                  << "\n";
    }

    if (faults) {
        // Execute a synthetic irregular exchange (Kuhn lattice, 64
        // subdomains) through the ack/retransmit protocol on the
        // planned machine, then shrink the hardware budget by the
        // measured phase inflation.
        const double rate = fault_spec.dropProbability;
        const mesh::TetMesh lattice = mesh::buildKuhnLattice(
            mesh::Aabb{{0, 0, 0}, {1, 1, 1}}, 10, 10, 10);
        const partition::GeometricBisection partitioner;
        const parallel::CommSchedule schedule =
            parallel::CommSchedule::build(
                lattice, partitioner.partition(lattice, 64));

        const parallel::EventSimResult baseline =
            parallel::simulateExchange(schedule, machine);
        parallel::ReliableExchangeOptions reliable;
        reliable.faults = fault_spec;
        const parallel::ReliableExchangeResult r =
            parallel::simulateReliableExchange(schedule, machine,
                                               reliable);
        const double inflation = baseline.tComm > 0
                                     ? r.tComm / baseline.tComm
                                     : 1.0;

        const double tf = 1.0 / (machine.mflops() * 1e6);
        const double tc_target =
            core::requiredTc(worst, 0.9, tf) / inflation;
        const core::HalfBandwidthPoint faulty =
            core::halfBandwidthPoint(worst, tc_target);
        std::cout
            << "\nWith message drop rate "
            << common::formatFixed(100.0 * rate, 2)
            << "% (measured protocol inflation "
            << common::formatFixed(inflation, 2) << "x, "
            << r.retransmissions << " retransmissions, "
            << r.lostExchanges.size() << " exchanges lost):\n"
            << "  half-bw burst       : "
            << common::formatBandwidth(faulty.burstBandwidthBytes)
            << "\n"
            << "  half-bw latency     : "
            << common::formatTime(faulty.latency) << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const quake::common::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }
}

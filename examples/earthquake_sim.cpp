/**
 * @file
 * The Quake application itself: simulate seismic wave propagation
 * through the synthetic San Fernando basin with the explicit finite
 * element method, sequentially or distributed over logical PEs.
 *
 * Usage: earthquake_sim [--mesh sf20|sf10|sf5] [--pes N]
 *                       [--duration seconds] [--max-steps N]
 *                       [--freq hz] [--scale h-scale]
 *                       [--damping a0] [--seismogram path] [--pin]
 *                       [--trace path] [--metrics path]
 *                       [--sample-every N]
 *                       [--faults [--drop-rate R] [--seed S]]
 *                       [--checkpoint path [--checkpoint-every N]]
 *                       [--resume] [--deadline ms] [--retries N]
 *
 * --pin pins worker w of the distributed engine to CPU w of the
 * process affinity mask (advisory, DESIGN.md §13).  It is an execution
 * knob: the trajectory is bitwise identical with and without it.
 *
 * With --checkpoint, the run snapshots its full state to `path`
 * atomically every N steps (default 100); kill it at any point and
 * rerun with --resume to continue bitwise identically from the last
 * checkpoint (DESIGN.md §11 and the README crash-recovery recipe).
 * --deadline arms the stall check: an attempt whose next per-step
 * heartbeat comes later than the given milliseconds is abandoned,
 * restored from the last checkpoint, and retried (up to --retries
 * attempts) under capped exponential backoff, halving the worker
 * threads after each stall.
 * Note: seismogram traces cover only the steps the final attempt
 * executed; the checkpointed state and report history are complete.
 *
 * With --trace or --metrics, the run records telemetry (DESIGN.md §9):
 * --trace writes a Chrome trace_event JSON loadable in Perfetto /
 * about://tracing, --metrics writes the phase histograms and counters
 * as a BENCH-schema JSON, and a measured-vs-modeled report compares the
 * run's compute/exchange split against the paper's Eq. (1) prediction
 * (distributed runs only).  --sample-every N thins the fine-grained
 * per-PE spans to every Nth step (default 16).
 *
 * With --faults, the per-step boundary exchange of the distributed run
 * is replayed through the reliable (ack/retransmit) protocol on an
 * unreliable network and the projected slowdown and stale-boundary
 * error bound are reported.
 */

#include <algorithm>
#include <iostream>

#include "common/args.h"
#include "common/error.h"
#include "common/table.h"
#include "parallel/characterize.h"
#include "parallel/event_sim.h"
#include "parallel/reliable_exchange.h"
#include "partition/geometric_bisection.h"
#include "quake/simulation.h"
#include "resilience/supervisor.h"
#include "telemetry/collector.h"
#include "telemetry/export.h"
#include "telemetry/report.h"

namespace
{

int
run(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    const mesh::SfClass cls =
        mesh::sfClassFromName(args.get("mesh", "sf20"));

    sim::SimulationConfig config;
    config.numPes = static_cast<int>(args.getInt("pes", 1));
    config.durationSeconds = args.getDouble("duration", 20.0);
    config.maxSteps = args.getInt("max-steps", 2000);
    config.wavelet.peakFrequencyHz = args.getDouble("freq", 0.25);
    config.wavelet.delaySeconds = 2.0 / config.wavelet.peakFrequencyHz;
    config.sampleInterval = 50;
    config.dampingA0 = args.getDouble("damping", 0.0);
    config.pinSmvpThreads = args.has("pin");

    // Fail on bad flags before any mesh is generated: the config, the
    // run options, the telemetry flags, and the fault spec (when
    // requested) are validated here.
    config.validate();
    resilience::ResilientRunOptions resilient;
    resilient.checkpointPath = args.get("checkpoint");
    resilient.checkpointEvery = args.getInt(
        "checkpoint-every", resilient.checkpointPath.empty() ? 0 : 100);
    resilient.resume = args.has("resume");
    resilient.supervisor.maxAttempts =
        static_cast<int>(args.getInt("retries", 3));
    resilient.supervisor.stallTimeout =
        std::chrono::milliseconds{args.getInt("deadline", 0)};
    resilient.supervisor.validate();
    QUAKE_EXPECT(resilient.checkpointEvery >= 0,
                 "--checkpoint-every must be >= 0, got "
                     << resilient.checkpointEvery);
    QUAKE_EXPECT(!resilient.resume || !resilient.checkpointPath.empty(),
                 "--resume requires --checkpoint <path>");
    QUAKE_EXPECT(resilient.supervisor.stallTimeout.count() >= 0,
                 "--deadline must be >= 0 ms, got "
                     << resilient.supervisor.stallTimeout.count());
    const double scale = args.getDouble("scale", 1.0);
    const std::string seismogram_path = args.get("seismogram");
    const std::string trace_path = args.get("trace");
    const std::string metrics_path = args.get("metrics");
    const std::int64_t sample_every = args.getInt("sample-every", 16);
    QUAKE_EXPECT(sample_every >= 1,
                 "--sample-every must be >= 1, got " << sample_every);
    // --seed and --drop-rate are read (and so accepted) without
    // --faults, but only checked when the fault projection uses them.
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

    std::cout << "Simulating " << mesh::sfClassName(cls) << " on "
              << config.numPes << " PE(s), source at ("
              << config.hypocenter.x << ", " << config.hypocenter.y
              << ", " << config.hypocenter.z << ") km depth...\n";
    if (config.pinSmvpThreads)
        std::cout << "  engine workers pinned one per CPU\n";

    // Generate the mesh up front so receiver stations can be placed.
    const mesh::LayeredBasinModel model;
    const mesh::GeneratedMesh generated =
        mesh::generateMesh(model, mesh::MeshSpec::forClass(cls, scale));

    sim::Seismogram record = sim::Seismogram::surfaceLine(
        generated.mesh, 8, model.params().basinCenter.y);
    config.recorder = &record;

    // Telemetry rides along only when an output was requested; a
    // disabled collector records nothing and costs one branch per hook.
    telemetry::CollectorConfig tele_config;
    tele_config.enabled = !trace_path.empty() || !metrics_path.empty();
    tele_config.sampleEvery = sample_every;
    telemetry::Collector collector(tele_config);
    if (collector.enabled())
        config.collector = &collector;

    // Every run goes through the supervisor; with no checkpoint or
    // deadline flags it degenerates to a single plain attempt (no
    // checkpoint writes, no stall check) but still reports the
    // final-state fingerprint the crash-recovery smoke compares.
    const resilience::RunOutcome outcome =
        resilience::runSupervisedSimulation(generated.mesh, model,
                                            config, resilient);
    QUAKE_EXPECT(outcome.succeeded,
                 "run failed after " << outcome.attempts
                                     << " attempt(s): " << outcome.error);
    const sim::SimulationReport &report = outcome.report;
    // Rates from the unrounded wall time, so short runs compare too.
    const double steps_per_s =
        report.totalSeconds > 0.0
            ? static_cast<double>(report.steps) / report.totalSeconds
            : 0.0;
    const double ms_per_step =
        report.steps > 0 ? 1e3 * report.totalSeconds /
                               static_cast<double>(report.steps)
                         : 0.0;

    std::cout << "\nRun summary:\n"
              << "  time step (CFL)      : "
              << common::formatTime(report.dt) << "\n"
              << "  steps taken          : " << report.steps << "\n"
              << "  simulated time       : "
              << common::formatFixed(report.simulatedSeconds, 2)
              << " s\n"
              << "  wall time in step()  : "
              << common::formatFixed(report.totalSeconds, 2) << " s\n"
              << "  steps per second     : "
              << common::formatFixed(steps_per_s, 1) << "\n"
              << "  ms per step          : "
              << common::formatFixed(ms_per_step, 4) << "\n"
              << "  wall time in SMVP    : "
              << common::formatFixed(report.smvpSeconds, 2) << " s  ("
              << common::formatFixed(100.0 * report.smvpFraction, 1)
              << "% — paper reports >80%)\n"
              << "  peak |displacement|  : "
              << common::formatFixed(report.peakDisplacement, 6) << "\n";

    std::cout << "\nResilience:\n"
              << "  attempts             : " << outcome.attempts << "\n"
              << "  restarts             : " << outcome.restarts;
    if (outcome.restarts > 0)
        std::cout << "  (resumed from step " << outcome.resumedFromStep
                  << ")";
    std::cout << "\n"
              << "  stalls / degradations: " << outcome.stalls << " / "
              << outcome.degradations << "\n"
              << "  final state fingerprint: 0x" << std::hex
              << outcome.stateFingerprint << std::dec << "\n";

    if (!report.samples.empty()) {
        std::cout << "\nWavefield history:\n";
        common::Table t({"t (s)", "peak |u|", "kinetic energy"});
        for (const sim::FieldSample &s : report.samples) {
            t.addRow({common::formatFixed(s.time, 2),
                      common::formatFixed(s.peakDisplacement, 6),
                      common::formatFixed(s.kineticEnergy, 6)});
        }
        t.print(std::cout);
    }

    // Seismograms: per-station peak ground motion, plus a file dump.
    std::cout << "\nReceiver stations (surface line through the basin):\n";
    common::Table stations({"station", "x (km)", "peak |u|"});
    for (std::size_t s = 0; s < record.stations().size(); ++s) {
        stations.addRow(
            {record.stations()[s].name,
             common::formatFixed(record.stations()[s].position.x, 1),
             common::formatFixed(record.peakAmplitude(s), 6)});
    }
    stations.print(std::cout);
    if (!seismogram_path.empty()) {
        record.write(seismogram_path);
        std::cout << "wrote traces to " << seismogram_path << "\n";
    }

    if (collector.enabled() && config.numPes > 1) {
        // Measured compute/exchange split vs the paper's Eq. (1)
        // prediction, from the same partition the run used.
        const partition::GeometricBisection partitioner;
        const parallel::DistributedProblem topo =
            parallel::distributeTopology(
                generated.mesh,
                partitioner.partition(generated.mesh, config.numPes));
        const core::SmvpCharacterization ch = parallel::characterize(
            topo, mesh::sfClassName(cls) + "/" +
                      std::to_string(config.numPes));
        telemetry::ModelReportInputs inputs;
        inputs.shape = core::SmvpShape::fromSummary(core::summarize(ch));
        for (const core::PeLoad &pe : ch.pes) {
            inputs.totalFlops += static_cast<double>(pe.flops);
            inputs.totalWords += static_cast<double>(pe.words);
        }
        telemetry::printModelValidation(
            telemetry::validateModel(collector, inputs), std::cout);
    }

    if (faults) {
        // Replay one step's boundary exchange through the reliable
        // protocol: what would this run cost on a lossy network?
        const int pes = std::max(config.numPes, 2);
        const double rate = fault_spec.dropProbability;
        const partition::GeometricBisection partitioner;
        const parallel::CommSchedule schedule =
            parallel::CommSchedule::build(
                generated.mesh,
                partitioner.partition(generated.mesh, pes));
        const parallel::MachineModel machine = parallel::crayT3e();

        const parallel::EventSimResult baseline =
            parallel::simulateExchange(schedule, machine);
        parallel::ReliableExchangeOptions reliable;
        reliable.faults = fault_spec;
        if (collector.enabled())
            reliable.collector = &collector;
        const parallel::ReliableExchangeResult r =
            parallel::simulateReliableExchange(schedule, machine,
                                               reliable);

        std::cout << "\nFault projection (" << pes << " PEs, "
                  << machine.name << ", drop rate "
                  << common::formatFixed(100.0 * rate, 2) << "%):\n"
                  << "  exchange per step    : "
                  << common::formatTime(baseline.tComm)
                  << " fault-free, " << common::formatTime(r.tComm)
                  << " with recovery ("
                  << common::formatFixed(
                         baseline.tComm > 0
                             ? r.tComm / baseline.tComm
                             : 1.0,
                         2)
                  << "x)\n"
                  << "  retransmissions      : " << r.retransmissions
                  << " (" << r.timeoutsFired << " timeouts)\n"
                  << "  exchanges lost       : "
                  << r.lostExchanges.size() << "\n"
                  << "  stale y = Kx bound   : "
                  << common::formatFixed(100.0 * r.staleFraction, 3)
                  << "% of boundary words\n";
    }

    if (collector.enabled()) {
        // Pool waits that outlasted the spin budget and parked.
        const double parks_per_step =
            report.steps > 0
                ? static_cast<double>(collector.counterTotal(
                      telemetry::Counter::kPoolParks)) /
                      static_cast<double>(report.steps)
                : 0.0;
        std::cout << "\nTelemetry (" << collector.spansRecorded()
                  << " spans, "
                  << collector.counterTotal(
                         telemetry::Counter::kStepsSampled)
                  << " sampled steps, " << collector.spansDropped()
                  << " dropped):\n"
                  << "  pool parks per step  : "
                  << common::formatFixed(parks_per_step, 3) << "\n";
        if (!trace_path.empty() &&
            telemetry::writeChromeTrace(collector, trace_path))
            std::cout << "  wrote Chrome trace " << trace_path
                      << " (open at https://ui.perfetto.dev)\n"
                      << "  step-span wall-time coverage: "
                      << common::formatFixed(
                             100.0 * telemetry::traceCoverage(collector),
                             1)
                      << "%\n";
        if (!metrics_path.empty())
            telemetry::writeMetricsBenchJson(
                collector, "earthquake_sim",
                {{"mesh", mesh::sfClassName(cls)},
                 {"pes", std::to_string(config.numPes)}},
                metrics_path);
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

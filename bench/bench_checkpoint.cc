/**
 * @file
 * Checkpoint/restart overhead benchmark (DESIGN.md §11): what does
 * crash-safety cost the fused step loop, and what does it cost to come
 * back from the dead?
 *
 * Three runs of the same distributed fused scenario, each through the
 * production run loop (sim::advanceSimulation):
 *
 *   plain         no step observer — the baseline step rate, with the
 *                 global allocation hook proving the loop without
 *                 checkpoints costs ZERO heap allocations (the
 *                 acceptance gate);
 *   checkpointed  an observer snapshots the run and writes it
 *                 atomically to disk every --every steps, timing each
 *                 checkpoint (snapshot + write);
 *   resumed       a fresh engine restored from the last on-disk
 *                 checkpoint and advanced to the same final step — its
 *                 displacement triad must be bitwise identical to both
 *                 runs above (checkpointing must not perturb, and
 *                 resuming must not diverge).
 *
 * The stepping overhead is the median per-checkpoint cost spread over
 * the --every plain steps it covers: a ratio of two whole-run wall
 * times would measure run-to-run noise, not checkpoints.  Also times
 * readCheckpoint in isolation.  Emits BENCH_checkpoint.json for the
 * perf trajectory.  Exit status reflects correctness only:
 * nonzero iff the zero-allocation contract or any bitwise comparison
 * fails.
 *
 * Flags: --smoke (tiny mesh, few steps — the `perf` ctest label),
 *        --pes N, --threads N, --steps N, --every K, --dir DIR.
 */

#include "bench/bench_util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/allocation_counter.h"
#include "common/error.h"
#include "quake/simulation.h"
#include "quake/time_stepper.h"
#include "resilience/checkpoint.h"

namespace
{

using namespace quake;

/** One timed stepping run. */
struct RunResult
{
    double wallSeconds = 0.0;
    std::int64_t allocations = 0;
    std::vector<double> u;
    std::vector<double> up;
    double peak = 0.0;
};

/**
 * Advance `engine` from its current count to its planned steps through
 * the run loop, with `observer` as the per-step policy, timing the loop
 * and the allocations it makes.  The warm-up step (if any) is the
 * caller's business so every run ends at the same absolute step index;
 * `report` covers the steps advanced here.
 */
RunResult
timeRun(sim::SimulationEngine &engine, const sim::SimulationConfig &config,
        sim::SimulationReport &report,
        const sim::StepObserver &observer = {})
{
    const sim::ExplicitTimeStepper &stepper = *engine.stepper;
    const std::int64_t alloc0 =
        common::allocationCounter().load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    sim::advanceSimulation(engine, config, report, observer);
    const auto t1 = std::chrono::steady_clock::now();

    RunResult r;
    r.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.allocations =
        common::allocationCounter().load(std::memory_order_relaxed) - alloc0;
    r.u = stepper.displacement();
    r.up = stepper.previousDisplacement();
    r.peak = stepper.peakDisplacement();
    return r;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

bool
bitwiseEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(double)) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::Args args(argc, argv);
    bench::benchHeader(
        "Checkpoint/restart overhead (crash-safe step loop)",
        "the Section 2.2 step loop, supervised per DESIGN.md section 11");

    const bench::EngineBenchOptions opt = bench::engineBenchOptions(args);
    const bool smoke = opt.smoke;
    const int steps =
        static_cast<int>(args.getInt("steps", smoke ? 60 : 300));
    const int every =
        static_cast<int>(args.getInt("every", smoke ? 10 : 25));
    const std::string dir = args.get("dir", ".");
    const std::string path = dir + "/bench_checkpoint.ckpt";

    const bench::BenchMesh bm = opt.mesh;
    const mesh::TetMesh &m = bench::cachedMesh(bm);
    const mesh::LayeredBasinModel model;

    // Every run is driven to the same absolute step index: one warm-up
    // step outside the timed window, then `steps` timed steps.  No
    // samples, so the loop itself allocates nothing.
    const std::int64_t target = steps + 1;
    sim::SimulationConfig config;
    config.numPes = opt.pes;
    config.smvpThreads = opt.threads;
    config.durationSeconds = 1e9; // the step cap is the binding limit
    config.maxSteps = target;
    config.sampleInterval = 0;

    // --- Plain run: no observer, allocation gate armed. ---
    sim::SimulationEngine plain_engine =
        sim::makeSimulationEngine(m, model, config);
    std::cout << "mesh: " << bm.label << ", " << m.numNodes()
              << " nodes, " << steps << " timed steps, dt = "
              << plain_engine.dt << " s\n"
              << "logical PEs: " << opt.pes
              << ", checkpoint every " << every << " steps\n\n";
    plain_engine.stepper->step(); // warm caches and pool
    sim::SimulationReport plain_report;
    const RunResult plain = timeRun(plain_engine, config, plain_report);

    // --- Checkpointed run: a real atomic write every `every` steps. ---
    sim::SimulationEngine ckpt_engine =
        sim::makeSimulationEngine(m, model, config);
    std::size_t ckpt_bytes = 0;
    double write_seconds = 0.0;
    std::vector<double> ckpt_seconds; // snapshot + write, per checkpoint
    ckpt_engine.stepper->step(); // warm-up, same absolute step index
    sim::SimulationReport ckpt_report;
    const RunResult ckpt = timeRun(
        ckpt_engine, config, ckpt_report, [&](std::int64_t step) {
            if (step % every != 0)
                return;
            const auto c0 = std::chrono::steady_clock::now();
            const resilience::Checkpoint c =
                resilience::snapshot(ckpt_engine, ckpt_report);
            const auto w0 = std::chrono::steady_clock::now();
            ckpt_bytes = resilience::writeCheckpoint(path, c);
            write_seconds += secondsSince(w0);
            ckpt_seconds.push_back(secondsSince(c0));
        });
    const std::int64_t writes =
        static_cast<std::int64_t>(ckpt_seconds.size());
    QUAKE_EXPECT(writes > 0, "no checkpoint written in " << steps
                                 << " steps at interval " << every);

    // --- Read latency, measured in isolation. ---
    const int read_reps = 5;
    double read_seconds = 0.0;
    for (int i = 0; i < read_reps; ++i) {
        const auto r0 = std::chrono::steady_clock::now();
        const resilience::Checkpoint back =
            resilience::readCheckpoint(path);
        read_seconds += secondsSince(r0);
        QUAKE_EXPECT(back.fingerprint == ckpt_engine.fingerprint,
                     "read-back checkpoint fingerprint mismatch");
    }

    // --- Resume run: restore the last on-disk checkpoint and finish. ---
    sim::SimulationEngine resume_engine =
        sim::makeSimulationEngine(m, model, config);
    const resilience::Checkpoint restored =
        resilience::readCheckpoint(path);
    sim::SimulationReport resume_report;
    resilience::restore(restored, resume_engine, resume_report);
    const std::int64_t resumed_from = restored.state.steps;
    const RunResult resumed =
        timeRun(resume_engine, config, resume_report);

    // --- Correctness gates. ---
    const bool zero_alloc_ok = plain.allocations == 0;
    const bool unperturbed =
        bitwiseEqual(plain.u, ckpt.u) && bitwiseEqual(plain.up, ckpt.up);
    const bool resume_ok =
        bitwiseEqual(resumed.u, plain.u) &&
        bitwiseEqual(resumed.up, plain.up) &&
        resumed.peak == plain.peak &&
        resume_report.peakDisplacement == ckpt_report.peakDisplacement;

    // --- Report. ---
    const double plain_rate = steps / plain.wallSeconds;
    const double ckpt_rate = steps / ckpt.wallSeconds;
    // The median checkpoint's cost, spread over the `every` plain steps
    // one checkpoint covers.
    const auto mid = ckpt_seconds.begin() + writes / 2;
    std::nth_element(ckpt_seconds.begin(), mid, ckpt_seconds.end());
    const double ckpt_ms = *mid * 1e3;
    const double overhead_pct =
        100.0 * *mid / (every * plain.wallSeconds / steps);
    const double write_ms = write_seconds / writes * 1e3;
    const double read_ms = read_seconds / read_reps * 1e3;

    common::Table table(
        {"configuration", "steps/s", "ms/step", "allocs/step"});
    table.addRow({"plain", common::formatFixed(plain_rate, 1),
                  common::formatFixed(1e3 / plain_rate, 3),
                  common::formatFixed(
                      static_cast<double>(plain.allocations) / steps,
                      2)});
    table.addRow({"checkpointed", common::formatFixed(ckpt_rate, 1),
                  common::formatFixed(1e3 / ckpt_rate, 3),
                  common::formatFixed(
                      static_cast<double>(ckpt.allocations) / steps,
                      2)});
    bench::printTable(table, args);

    std::cout << "\ncheckpoints written: " << writes << " ("
              << ckpt_bytes << " bytes each)\n"
              << "checkpoint cost     : "
              << common::formatFixed(ckpt_ms, 3)
              << " ms median (snapshot + write)\n"
              << "write latency       : "
              << common::formatFixed(write_ms, 3) << " ms/checkpoint\n"
              << "read latency        : "
              << common::formatFixed(read_ms, 3) << " ms/checkpoint\n"
              << "stepping overhead   : "
              << common::formatFixed(overhead_pct, 2) << "% at 1/"
              << every << " steps (median cost / " << every
              << " plain steps)\n"
              << "resumed from step " << resumed_from << " of " << target
              << "\n\n"
              << "zero allocations with checkpointing disabled: "
              << (zero_alloc_ok ? "PASS" : "FAIL") << " ("
              << plain.allocations << " in " << steps << " steps)\n"
              << "checkpointing does not perturb the trajectory: "
              << (unperturbed ? "PASS" : "FAIL") << "\n"
              << "resumed run bitwise-equals uninterrupted run: "
              << (resume_ok ? "PASS" : "FAIL") << "\n";

    std::vector<bench::BenchJsonRecord> records;
    auto add_row = [&](const std::string &name, const RunResult &r) {
        bench::BenchJsonRecord rec;
        rec.kernel = name;
        rec.rows = static_cast<std::int64_t>(plain.u.size());
        rec.secondsPerSmvp = r.wallSeconds / steps;
        rec.extra.emplace_back("steps_per_sec",
                               steps / r.wallSeconds);
        rec.extra.emplace_back(
            "allocs_per_step",
            static_cast<double>(r.allocations) / steps);
        rec.extra.emplace_back("pes",
                               static_cast<double>(opt.pes));
        records.push_back(std::move(rec));
    };
    add_row("plain", plain);
    add_row("checkpointed", ckpt);
    records.back().extra.emplace_back("ckpt_ms_p50", ckpt_ms);
    records.back().extra.emplace_back("ckpt_write_ms", write_ms);
    records.back().extra.emplace_back("ckpt_read_ms", read_ms);
    records.back().extra.emplace_back(
        "ckpt_bytes", static_cast<double>(ckpt_bytes));
    records.back().extra.emplace_back("overhead_pct", overhead_pct);

    bench::writeBenchJson(
        "checkpoint", records,
        {{"mesh", bm.label},
         {"pes", std::to_string(opt.pes)},
         {"steps", std::to_string(steps)},
         {"checkpoint_every", std::to_string(every)},
         {"zero_alloc_ok", zero_alloc_ok ? "true" : "false"},
         {"resume_bitwise_equal", resume_ok ? "true" : "false"}});

    std::remove(path.c_str());
    return (zero_alloc_ok && unperturbed && resume_ok) ? 0 : 1;
}

/**
 * @file
 * Flat vs hierarchical (shard x thread) engine benchmark (DESIGN.md
 * §13): measures what the two-level topology buys — per-shard
 * first-touched slabs, workers pinned per shard, inter-shard-only
 * exchange — against the flat engine on the same distributed problem.
 *
 * For each topology the harness times the zero-copy SMVP and the fused
 * step loop, reporting steps/sec, effective T_f (seconds per executed
 * flop, from the characterized per-PE flop counts), the shard-remote
 * fraction of the exchange traffic, pin failures, and the shard load
 * imbalance.  Every configuration's product and fused step are checked
 * bitwise against the flat reference — the exit status reflects that
 * determinism check only, so a single-socket CI host that shows perf
 * parity still gates on correctness.  Emits BENCH_numa.json.
 *
 * Flags: --smoke (tiny mesh, few reps — the `perf` ctest label),
 *        --pes N, --threads N, --reps N, --steps N, --csv.
 */

#include "bench/bench_util.h"

#include <chrono>
#include <cstring>
#include <functional>

#include "common/rng.h"
#include "parallel/parallel_smvp.h"
#include "parallel/topology.h"

namespace
{

using namespace quake;

double
timeLoop(const std::function<void()> &fn, int reps)
{
    fn(); // warm-up
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / reps;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::Args args(argc, argv);
    bench::benchHeader(
        "NUMA hierarchy (flat vs shard x thread topologies)",
        "the memory-system locality analysis of Sections 3-4");

    const bench::EngineBenchOptions opt = bench::engineBenchOptions(args);
    const bool smoke = opt.smoke;
    const int threads = opt.threads;
    const int pes = opt.pes;
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 3 : 20));
    const int steps =
        static_cast<int>(args.getInt("steps", smoke ? 8 : 50));

    const bench::BenchMesh bm = opt.mesh;
    const mesh::TetMesh &m = bench::cachedMesh(bm);
    const mesh::LayeredBasinModel model;

    const std::vector<std::vector<int>> domains =
        parallel::detectNumaDomains();
    std::cout << "mesh: " << bm.label << ", " << m.numNodes()
              << " nodes, " << m.numElements() << " elements\n"
              << "affinity CPUs: "
              << parallel::WorkerPool::hardwareThreads()
              << ", NUMA domains detected: "
              << (domains.empty() ? 1 : domains.size())
              << ", logical PEs: " << pes << "\n\n";

    const partition::GeometricBisection partitioner;
    const parallel::DistributedProblem problem =
        parallel::distribute(m, model, partitioner.partition(m, pes));

    // Executed flops per SMVP (sum of the characterized per-PE F
    // values) — the denominator of the effective T_f every topology is
    // scored with.
    const core::SmvpCharacterization ch =
        parallel::characterize(problem, bm.label);
    double total_flops = 0.0;
    for (const core::PeLoad &pe : ch.pes)
        total_flops += static_cast<double>(pe.flops);

    const std::size_t dof =
        static_cast<std::size_t>(3 * problem.numGlobalNodes);
    std::vector<double> x(dof);
    common::SplitMix64 rng(1998);
    for (double &v : x)
        v = rng.uniform(-1.0, 1.0);
    std::vector<double> inv_mass(dof, 1.0);
    std::vector<double> force(dof, 0.0);
    const std::vector<double> up0(dof, 0.0);

    // The topology ladder: the flat engine is the reference every
    // hierarchical configuration must reproduce bitwise.
    struct Config
    {
        std::string label;
        parallel::Topology topo;
    };
    std::vector<Config> configs;
    configs.push_back({"flat", parallel::Topology::flat(threads)});
    configs.push_back({"2-shard", parallel::Topology::uniform(2, 0)});
    configs.push_back({"4-shard", parallel::Topology::uniform(4, 0)});
    configs.push_back(
        {"2-shard-pinned", parallel::Topology::uniform(2, 0, true)});
    configs.push_back({"auto", parallel::Topology::detect(true)});
    if (threads > 0)
        for (Config &c : configs)
            if (c.topo.threadBudget == 0 && c.topo.threadsPerShard == 0)
                c.topo.threadBudget = threads;

    std::vector<double> y_ref, up_ref;
    sparse::StepPartials partials_ref;
    bool bitwise_ok = true;

    std::vector<bench::BenchJsonRecord> records;
    common::Table t({"topology", "S x T", "s/SMVP", "steps/s",
                     "T_f (ns)", "remote bytes", "pins failed",
                     "imbalance"});
    double flat_steps_per_sec = 0.0;
    for (const Config &c : configs) {
        const parallel::ParallelSmvp engine(
            problem, c.topo, parallel::ExchangeMode::kOverlapped);

        std::vector<double> y(dof, 0.0);
        const double smvp_seconds =
            timeLoop([&] { engine.multiplyInto(x.data(), y.data()); },
                     reps);

        // Fused-step loop: u is fixed, up ping-pongs in place —
        // identical work every iteration, and after the timing loop up
        // is reset so the bitwise probe below starts from the same
        // state for every topology.
        std::vector<double> up = up0;
        sparse::StepUpdate su;
        su.u = x.data();
        su.up = up.data();
        su.f = force.data();
        su.invMass = inv_mass.data();
        su.dt = 1e-3;
        su.dt2 = su.dt * su.dt;
        const double step_seconds =
            timeLoop([&] { engine.stepFused(su); }, steps);
        const double steps_per_sec =
            step_seconds > 0 ? 1.0 / step_seconds : 0.0;

        up = up0;
        const sparse::StepPartials partials = engine.stepFused(su);

        if (c.label == "flat") {
            y_ref = y;
            up_ref = up;
            partials_ref = partials;
            flat_steps_per_sec = steps_per_sec;
        } else {
            const bool same =
                y == y_ref && up == up_ref &&
                std::memcmp(&partials.peak, &partials_ref.peak,
                            sizeof(double)) == 0 &&
                std::memcmp(&partials.energy, &partials_ref.energy,
                            sizeof(double)) == 0;
            if (!same) {
                std::cout << "BITWISE MISMATCH: " << c.label
                          << " differs from flat\n";
                bitwise_ok = false;
            }
        }

        const std::int64_t remote = engine.remoteExchangeBytes();
        const std::int64_t local = engine.localExchangeBytes();
        const double remote_frac =
            remote + local > 0
                ? static_cast<double>(remote) /
                      static_cast<double>(remote + local)
                : 0.0;

        t.addRow({c.label,
                  std::to_string(engine.numShards()) + " x " +
                      std::to_string(engine.threadsPerShard()),
                  common::formatFixed(smvp_seconds * 1e3, 3) + " ms",
                  common::formatFixed(steps_per_sec, 1),
                  common::formatFixed(smvp_seconds / total_flops * 1e9,
                                      3),
                  common::formatFixed(100.0 * remote_frac, 1) + "%",
                  std::to_string(engine.pinFailures()),
                  common::formatFixed(engine.shardImbalance(), 3)});

        bench::BenchJsonRecord rec;
        rec.kernel = c.label;
        rec.rows = static_cast<std::int64_t>(dof);
        rec.nnz = static_cast<std::int64_t>(total_flops / 2.0);
        rec.secondsPerSmvp = smvp_seconds;
        rec.gflops = total_flops / smvp_seconds / 1e9;
        rec.tfNs = smvp_seconds / total_flops * 1e9;
        rec.extra.emplace_back("steps_per_sec", steps_per_sec);
        rec.extra.emplace_back("shards",
                               static_cast<double>(engine.numShards()));
        rec.extra.emplace_back(
            "threads_per_shard",
            static_cast<double>(engine.threadsPerShard()));
        rec.extra.emplace_back("remote_byte_fraction", remote_frac);
        rec.extra.emplace_back(
            "pin_failures", static_cast<double>(engine.pinFailures()));
        rec.extra.emplace_back("shard_imbalance",
                               engine.shardImbalance());
        records.push_back(std::move(rec));
    }
    bench::printTable(t, args);

    // Honest reporting: on a single-socket (or 1-CPU CI) host the
    // hierarchy cannot beat the flat engine — the headline is the
    // determinism guarantee, not a locality win that hardware cannot
    // show.
    double best_hier = 0.0;
    for (std::size_t i = 1; i < records.size(); ++i)
        for (const auto &kv : records[i].extra)
            if (kv.first == "steps_per_sec")
                best_hier = std::max(best_hier, kv.second);
    const double ratio = flat_steps_per_sec > 0
                             ? best_hier / flat_steps_per_sec
                             : 0.0;
    std::cout << "\nbest hierarchical vs flat steps/sec: "
              << common::formatFixed(ratio, 2) << "x"
              << (domains.size() < 2
                      ? " (single memory domain visible: parity is the "
                        "expected outcome here; the hierarchy pays off "
                        "only across sockets)"
                      : "")
              << "\nall topologies bitwise-equal flat: "
              << (bitwise_ok ? "PASS" : "FAIL") << "\n";

    bench::writeBenchJson(
        "numa", records,
        {{"mesh", bm.label},
         {"pes", std::to_string(pes)},
         {"numa_domains",
          std::to_string(domains.empty() ? 1 : domains.size())},
         {"affinity_cpus",
          std::to_string(parallel::WorkerPool::hardwareThreads())},
         {"hier_bitwise_equal", bitwise_ok ? "true" : "false"},
         {"best_hier_vs_flat", common::formatFixed(ratio, 3)}});

    return bitwise_ok ? 0 : 1;
}

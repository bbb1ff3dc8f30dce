/**
 * @file
 * The serving mode (DESIGN.md §14): run a batch of multi-tenant
 * earthquake scenarios through the ScenarioService — shared engine,
 * content-addressed prefix cache, admission control, per-tenant
 * accounting — and report scenarios/sec next to the cache economics.
 *
 * Usage: scenario_server [--scenarios N] [--tenants T] [--executors E]
 *                        [--mesh sf20|sf10|...] [--scale S] [--pes P]
 *                        [--max-steps N] [--duration s]
 *                        [--threads N] [--span-threshold N]
 *                        [--cache-mb M] [--queue N] [--results DIR]
 *                        [--mflops F [--tc-ns W]] [--deadline-ms D]
 *                        [--faults [--drop-rate R]]
 *                        [--metrics path] [--check]
 *
 * The workload cycles N scenario requests over T tenants; all share
 * the same mesh/partition/assembly prefix (distinct sources and
 * labels), so after the first request the cache serves every prefix
 * stage and the service spends its time stepping, not assembling.
 * --cache-mb 0 turns the cache off (every request rebuilds — the cold
 * regime the service benchmark compares against).  --deadline-ms arms
 * both model-based admission (with --mflops) and the runtime SLO
 * observer.  --check reruns the first scenario standalone and fails
 * (exit 1) unless the service result is bitwise identical — the
 * serving-mode contract.
 */

#include <iostream>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "common/table.h"
#include "mesh/generator.h"
#include "service/service.h"

namespace
{

int
run(int argc, char **argv)
{
    using namespace quake;
    const common::Args args(argc, argv);
    const long scenarios = args.getInt("scenarios", 8);
    const long tenants = args.getInt("tenants", 2);
    QUAKE_EXPECT(scenarios >= 1,
                 "--scenarios must be >= 1, got " << scenarios);
    QUAKE_EXPECT(tenants >= 1,
                 "--tenants must be >= 1, got " << tenants);
    const long cache_mb = args.getInt("cache-mb", 256);
    QUAKE_EXPECT(cache_mb >= 0,
                 "--cache-mb must be >= 0, got " << cache_mb);

    service::ServiceOptions options;
    options.executors = static_cast<int>(args.getInt("executors", 2));
    options.totalThreads = static_cast<int>(args.getInt("threads", 0));
    options.spanThreshold =
        static_cast<int>(args.getInt("span-threshold", 8));
    options.cacheBytes =
        static_cast<std::size_t>(cache_mb) << 20;
    options.queueCapacity =
        static_cast<std::size_t>(args.getInt("queue", 64));
    options.modelMflops = args.getDouble("mflops", 0.0);
    options.modelTcSecondsPerWord = args.getDouble("tc-ns", 0.0) * 1e-9;
    options.resultDir = args.get("results");
    options.validate();

    // The request template: one problem class shared by the whole
    // batch (that sharing is what the prefix cache monetizes).
    service::ScenarioRequest base;
    base.meshSpec = mesh::MeshSpec::forClass(
        mesh::sfClassFromName(args.get("mesh", "sf20")),
        args.getDouble("scale", 1.5));
    base.numPes = static_cast<int>(args.getInt("pes", 1));
    base.durationSeconds = args.getDouble("duration", 10.0);
    base.maxSteps = args.getInt("max-steps", 40);
    // Faults are modeled for admission, never injected, so the service
    // takes no --seed; --drop-rate without --faults is read, not checked.
    base.faults = args.has("faults");
    base.faultDropRate = args.getDouble("drop-rate", 1e-3);
    if (base.faults)
        QUAKE_EXPECT(base.faultDropRate >= 0.0 && base.faultDropRate <= 1.0,
                     "--drop-rate must be in [0, 1], got "
                         << base.faultDropRate);
    if (args.has("deadline-ms")) {
        base.deadlineMs = args.getDouble("deadline-ms", 0.0);
        QUAKE_EXPECT(base.deadlineMs > 0,
                     "--deadline-ms must be positive, got "
                         << base.deadlineMs);
    }
    const std::string metrics_path = args.get("metrics");
    const bool check = args.has("check");
    args.rejectUnread();

    service::ScenarioService svc(options);
    std::cout << "Scenario service: " << options.executors
              << " executor lane(s), " << svc.totalThreads()
              << " thread budget, cache " << cache_mb << " MB, queue "
              << options.queueCapacity << "\n"
              << "Workload: " << scenarios << " scenario(s) over "
              << tenants << " tenant(s), "
              << (base.numPes > 1
                      ? std::to_string(base.numPes) + " PEs"
                      : std::string("sequential"))
              << "\n\n";

    std::vector<std::future<service::ScenarioResult>> futures;
    futures.reserve(static_cast<std::size_t>(scenarios));
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < scenarios; ++i) {
        service::ScenarioRequest req = base;
        req.tenant = "tenant-" + std::to_string(i % tenants);
        req.label = "scenario-" + std::to_string(i);
        // Distinct sources per request: same prefix, different
        // trajectories — the shape of real multi-tenant traffic.
        req.wavelet.peakFrequencyHz = 0.25 + 0.05 * (i % 4);
        futures.push_back(svc.submit(std::move(req)));
    }

    long completed = 0, shed = 0, misses = 0;
    service::ScenarioResult first;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        service::ScenarioResult r = futures[i].get();
        if (i == 0)
            first = r;
        if (r.completed)
            ++completed;
        else if (r.deadlineMiss)
            ++misses;
        else
            ++shed;
        if (!r.error.empty())
            std::cout << "  [" << r.tenant << "/" << r.label << "] "
                      << r.error << "\n";
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    svc.shutdown();

    const service::PrefixCache::Stats cs = svc.cacheStats();
    std::cout << "Batch: " << completed << " completed, " << shed
              << " shed, " << misses << " deadline miss(es) in "
              << common::formatFixed(wall, 2) << " s  ("
              << common::formatFixed(
                     completed > 0 ? static_cast<double>(completed) /
                                         wall
                                   : 0.0,
                     2)
              << " scenarios/sec)\n"
              << "Prefix cache: " << cs.hits << " hit(s), "
              << cs.misses << " miss(es), " << cs.evictions
              << " eviction(s), "
              << common::formatFixed(
                     static_cast<double>(cs.bytes) / (1 << 20), 1)
              << " MB resident\n\n";

    common::Table t({"tenant", "submitted", "completed", "shed",
                     "deadline miss", "cache hit/miss", "step s"});
    for (const auto &[tenant, ts] : svc.allTenantStats())
        t.addRow({tenant, std::to_string(ts.submitted),
                  std::to_string(ts.completed),
                  std::to_string(ts.shed),
                  std::to_string(ts.deadlineMisses),
                  std::to_string(ts.cacheHits) + "/" +
                      std::to_string(ts.cacheMisses),
                  common::formatFixed(ts.stepSeconds, 2)});
    t.print(std::cout);

    if (!metrics_path.empty()) {
        svc.writeTenantMetricsJson("scenario_server", metrics_path);
    }

    if (check) {
        // The serving-mode contract: the service answer for the first
        // scenario must be bitwise the standalone answer.
        service::ScenarioRequest req = base;
        req.tenant = "tenant-0";
        req.label = "scenario-0";
        req.wavelet.peakFrequencyHz = 0.25;
        const service::ScenarioResult solo =
            service::ScenarioService::runStandalone(req);
        const bool equal =
            first.completed &&
            first.stateFingerprint == solo.stateFingerprint &&
            first.engineFingerprint == solo.engineFingerprint;
        std::cout << "\nBitwise check vs standalone: "
                  << (equal ? "IDENTICAL" : "MISMATCH") << " (service 0x"
                  << std::hex << first.stateFingerprint
                  << ", standalone 0x" << solo.stateFingerprint
                  << std::dec << ")\n";
        if (!equal)
            return 1;
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

#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "common/atomic_file.h"
#include "common/bench_json.h"
#include "common/error.h"
#include "parallel/characterize.h"
#include "parallel/parallel_smvp.h"
#include "parallel/worker_pool.h"
#include "partition/geometric_bisection.h"
#include "resilience/checkpoint.h"
#include "resilience/supervisor.h"
#include "service/mpmc_queue.h"
#include "sparse/assembly.h"

namespace quake::service
{

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0)
        .count();
}

/** Thrown by the step observer the moment the SLO deadline passes. */
struct DeadlineMiss
{
    double elapsedSeconds = 0.0;
};

/** One queued request plus its completion channel. */
struct Job
{
    ScenarioRequest request;
    std::promise<ScenarioResult> promise;
    SteadyClock::time_point enqueued{};
};

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

// --- payload byte estimates for the cache budget (heuristics: they
// need to track the real footprint, not equal it) ---

std::size_t
meshBytes(const mesh::GeneratedMesh &g)
{
    return g.mesh.nodes().size() * sizeof(mesh::Vec3) +
           g.mesh.tets().size() * sizeof(mesh::Tet);
}

std::size_t
matrixBytes(const sparse::Bcsr3Matrix &k)
{
    return k.xadj().size() * sizeof(std::int64_t) +
           k.blockCols().size() * sizeof(std::int32_t) +
           static_cast<std::size_t>(k.numBlocks()) * 9 * sizeof(double);
}

std::size_t
problemBytes(const parallel::DistributedProblem &p)
{
    std::size_t bytes =
        p.partition.elementPart.size() * sizeof(partition::PartId);
    for (const parallel::Subdomain &sub : p.subdomains) {
        bytes += matrixBytes(sub.stiffness);
        bytes += sub.globalNodes.size() * sizeof(mesh::NodeId);
        bytes += sub.elements.size() * sizeof(mesh::TetId);
        bytes += sub.localMesh.nodes().size() * sizeof(mesh::Vec3) +
                 sub.localMesh.tets().size() * sizeof(mesh::Tet);
        bytes += (sub.boundaryRows.size() + sub.interiorRows.size()) *
                 sizeof(std::int64_t);
    }
    return bytes;
}

/**
 * Eq. (1) application shape for admission.  Distributed problems go
 * through the real characterization; the sequential engine has no
 * exchange, so its shape is just the flop count of the global matrix
 * (2 flops per stored scalar, 9 scalars per block).
 */
core::SmvpShape
admissionShape(const sim::EnginePrefix &prefix, const std::string &name)
{
    if (prefix.problem != nullptr)
        return core::SmvpShape::fromSummary(core::summarize(
            parallel::characterize(*prefix.problem, name)));
    core::SmvpShape shape;
    shape.flops =
        18.0 * static_cast<double>(prefix.globalK->numBlocks());
    return shape;
}

/**
 * Crude protocol-recovery inflation for an assumed lossy network:
 * every dropped message costs roughly one timeout + retransmission,
 * so the exchange term grows super-linearly in the drop rate.  The
 * admission model only needs monotone and bounded.
 */
double
faultInflation(const ScenarioRequest &req)
{
    if (!req.faults)
        return 1.0;
    const double r = std::min(req.faultDropRate, 0.5);
    return 1.0 / (1.0 - r) + 4.0 * r;
}

} // namespace

void
ServiceOptions::validate() const
{
    QUAKE_EXPECT(executors >= 1,
                 "executors must be >= 1, got " << executors);
    QUAKE_EXPECT(totalThreads >= 0,
                 "totalThreads must be >= 1, or 0 for hardware "
                 "concurrency; got "
                     << totalThreads);
    QUAKE_EXPECT(spanThreshold >= 1,
                 "spanThreshold must be >= 1, got " << spanThreshold);
    QUAKE_EXPECT(queueCapacity >= 1,
                 "queueCapacity must be >= 1, got " << queueCapacity);
    QUAKE_EXPECT(modelMflops >= 0 && std::isfinite(modelMflops),
                 "modelMflops must be >= 0 and finite, got "
                     << modelMflops);
    QUAKE_EXPECT(modelTcSecondsPerWord >= 0 &&
                     std::isfinite(modelTcSecondsPerWord),
                 "modelTcSecondsPerWord must be >= 0 and finite, got "
                     << modelTcSecondsPerWord);
    QUAKE_EXPECT(admitSlack > 0 && std::isfinite(admitSlack),
                 "admitSlack must be positive and finite, got "
                     << admitSlack);
}

struct ScenarioService::Impl
{
    explicit Impl(ServiceOptions o)
        : opt(std::move(o)), cache(opt.cacheBytes),
          queue(opt.queueCapacity)
    {}

    ServiceOptions opt;
    int totalThreads = 0;
    PrefixCache cache;
    BoundedMpmcQueue<Job> queue;

    /**
     * The packing lock: small scenarios take it shared and run side
     * by side on their lane's slice of the thread budget; a spanning
     * scenario takes it exclusive and gets the whole budget with no
     * neighbours competing.
     */
    std::shared_mutex packMu;

    mutable std::mutex tenantsMu;
    std::map<std::string, TenantStats> tenants;

    std::atomic<std::uint64_t> rejections{0};

    std::vector<std::thread> lanes;
    std::mutex shutdownMu;
    bool shutdownDone = false;

    void laneLoop(int lane);
    ScenarioResult execute(const ScenarioRequest &request,
                           SteadyClock::time_point enqueued, int lane);
    void account(const ScenarioResult &result, int lane);
    void streamResult(ScenarioResult &result, int lane) const;
    void collectorAdd(int lane, telemetry::Counter c,
                      std::uint64_t n) const;
};

void
ScenarioService::Impl::collectorAdd(int lane, telemetry::Counter c,
                                    std::uint64_t n) const
{
    if (opt.collector != nullptr && opt.collector->enabled() && n > 0)
        opt.collector->add(lane, c, n);
}

void
ScenarioService::Impl::laneLoop(int lane)
{
    Job job;
    while (queue.pop(job)) {
        ScenarioResult result;
        try {
            result = execute(job.request, job.enqueued, lane);
        } catch (const std::exception &e) {
            // Defensive: execute() converts expected failures into
            // shed/errored results itself; anything escaping is a
            // bug surfaced to the caller, not a wedged future.
            result.tenant = job.request.tenant;
            result.label = job.request.label;
            result.error = e.what();
        }
        account(result, lane);
        try {
            streamResult(result, lane);
        } catch (const std::exception &e) {
            // A failed result write must not wedge the lane; the
            // caller still gets the in-memory result plus the error.
            result.resultPath.clear();
            result.error += result.error.empty() ? "" : "; ";
            result.error += e.what();
        }
        job.promise.set_value(std::move(result));
    }
}

ScenarioResult
ScenarioService::Impl::execute(const ScenarioRequest &request,
                               SteadyClock::time_point enqueued,
                               int lane)
{
    ScenarioResult result;
    result.tenant = request.tenant;
    result.label = request.label;
    result.scenarioKey = request.scenarioKey();
    result.lane = lane;
    result.queueSeconds = secondsSince(enqueued);

    // Queue-wait shedding: a request that aged out in the queue has
    // already spent its deadline budget — refuse it before any prefix
    // work.
    const double deadline_s = request.deadlineMs / 1000.0;
    if (deadline_s > 0 && result.queueSeconds > deadline_s) {
        std::ostringstream os;
        os << "shed: queued " << result.queueSeconds
           << " s, past the " << request.deadlineMs << " ms deadline";
        result.error = os.str();
        return result;
    }

    // --- content-addressed prefix (DESIGN.md §14) ---
    const SteadyClock::time_point prefix_t0 = SteadyClock::now();
    const std::unique_ptr<mesh::SoilModel> model =
        request.makeSoilModel();

    const std::shared_ptr<const mesh::GeneratedMesh> generated =
        cache.getOrCompute<mesh::GeneratedMesh>(
            request.meshKey(),
            [&] {
                auto g = std::make_shared<const mesh::GeneratedMesh>(
                    mesh::generateMesh(*model, request.meshSpec));
                return std::make_pair(g, meshBytes(*g));
            },
            &result.meshCacheHit);

    sim::EnginePrefix prefix;
    if (request.numPes > 1) {
        const std::shared_ptr<const partition::Partition> part =
            cache.getOrCompute<partition::Partition>(
                request.partitionKey(),
                [&] {
                    const partition::GeometricBisection partitioner;
                    auto p =
                        std::make_shared<const partition::Partition>(
                            partitioner.partition(generated->mesh,
                                                  request.numPes));
                    return std::make_pair(
                        p, p->elementPart.size() *
                               sizeof(partition::PartId));
                },
                &result.partitionCacheHit);
        prefix.problem =
            cache.getOrCompute<parallel::DistributedProblem>(
                request.assemblyKey(),
                [&] {
                    auto p = std::make_shared<
                        const parallel::DistributedProblem>(
                        parallel::distribute(generated->mesh, *model,
                                             *part, request.poisson));
                    return std::make_pair(p, problemBytes(*p));
                },
                &result.assemblyCacheHit);
    } else {
        // Sequential scenarios have no partition stage; the assembly
        // stage caches the global stiffness directly.
        result.partitionCacheHit = false;
        prefix.globalK = cache.getOrCompute<sparse::Bcsr3Matrix>(
            request.assemblyKey(),
            [&] {
                auto k = std::make_shared<const sparse::Bcsr3Matrix>(
                    sparse::assembleStiffness(generated->mesh, *model,
                                              request.poisson));
                return std::make_pair(k, matrixBytes(*k));
            },
            &result.assemblyCacheHit);
    }
    result.prefixSeconds = secondsSince(prefix_t0);
    result.cacheStagesTotal = request.numPes > 1 ? 3 : 2;
    result.cacheStagesHit =
        static_cast<int>(result.meshCacheHit) +
        static_cast<int>(result.partitionCacheHit) +
        static_cast<int>(result.assemblyCacheHit);

    // --- packing: size the thread slice, then take the lock ---
    const bool span = request.numPes > 1 &&
                      request.numPes >= opt.spanThreshold;
    const int lane_threads =
        std::max(1, totalThreads / std::max(1, opt.executors));
    sim::SimulationConfig config = request.toSimConfig();
    config.smvpThreads = span ? totalThreads : lane_threads;
    result.spanned = span;

    const SteadyClock::time_point step_t0 = SteadyClock::now();
    std::shared_lock<std::shared_mutex> packed(packMu, std::defer_lock);
    std::unique_lock<std::shared_mutex> exclusive(packMu,
                                                  std::defer_lock);
    if (span)
        exclusive.lock();
    else
        packed.lock();

    sim::SimulationEngine engine = sim::makeSimulationEngineWith(
        generated->mesh, *model, config, prefix);
    result.engineFingerprint = engine.fingerprint;
    result.threadsUsed = engine.psmvp ? engine.psmvp->numThreads() : 1;

    // --- admission: Eq. (1) prediction vs the SLO (DESIGN.md §14) ---
    if (opt.modelMflops > 0) {
        const double tf = 1.0 / (opt.modelMflops * 1e6);
        const double tc = opt.modelTcSecondsPerWord;
        const core::SmvpShape shape =
            admissionShape(prefix, request.tenant);
        // The supervisor's model path: the per-step stall deadline
        // modelStepDeadline derives (floor included) bounds a single
        // healthy step, and the full-run prediction scales the same
        // Eq. (1) step estimate out to plannedSteps.
        const std::chrono::milliseconds step_deadline =
            resilience::modelStepDeadline(shape, tf, tc,
                                          opt.admitSlack);
        const double step_seconds =
            shape.flops * tf + shape.wordsMax * tc;
        result.predictedSeconds =
            opt.admitSlack * step_seconds *
            static_cast<double>(engine.plannedSteps) *
            faultInflation(request);
        if (deadline_s > 0) {
            const bool step_over =
                static_cast<double>(step_deadline.count()) / 1000.0 >
                deadline_s;
            const bool total_over = result.queueSeconds +
                                        result.prefixSeconds +
                                        result.predictedSeconds >
                                    deadline_s;
            if (step_over || total_over) {
                std::ostringstream os;
                os << "shed: model predicts "
                   << (step_over ? "one step alone needs "
                                 : "stepping needs ")
                   << (step_over
                           ? static_cast<double>(
                                 step_deadline.count()) /
                                 1000.0
                           : result.predictedSeconds)
                   << " s, over the " << request.deadlineMs
                   << " ms deadline";
                result.error = os.str();
                return result;
            }
        }
    }
    result.admitted = true;

    // --- time stepping under the runtime SLO observer ---
    result.report.dt = engine.dt;
    sim::StepObserver observer;
    if (deadline_s > 0) {
        observer = [enqueued, deadline_s](std::int64_t) {
            const double elapsed = secondsSince(enqueued);
            if (elapsed > deadline_s)
                throw DeadlineMiss{elapsed};
        };
    }
    try {
        sim::advanceSimulation(engine, config, result.report, observer);
        result.completed = true;
    } catch (const DeadlineMiss &miss) {
        result.deadlineMiss = true;
        std::ostringstream os;
        os << "deadline miss: " << miss.elapsedSeconds
           << " s elapsed at step " << engine.stepper->stepCount()
           << " of " << engine.plannedSteps;
        result.error = os.str();
    }
    result.stateFingerprint = resilience::stateFingerprint(
        resilience::snapshot(engine, result.report));
    result.stepSeconds = secondsSince(step_t0);
    return result;
}

void
ScenarioService::Impl::account(const ScenarioResult &result, int lane)
{
    const std::uint64_t hits =
        static_cast<std::uint64_t>(result.cacheStagesHit);
    const std::uint64_t misses = static_cast<std::uint64_t>(
        result.cacheStagesTotal - result.cacheStagesHit);
    {
        std::lock_guard<std::mutex> lock(tenantsMu);
        TenantStats &t = tenants[result.tenant];
        t.submitted += 1;
        t.stepSeconds += result.stepSeconds;
        t.prefixSeconds += result.prefixSeconds;
        t.cacheHits += hits;
        t.cacheMisses += misses;
        if (result.completed)
            t.completed += 1;
        else if (result.deadlineMiss)
            t.deadlineMisses += 1;
        else
            t.shed += 1;
    }

    collectorAdd(lane, telemetry::Counter::kScenariosSubmitted, 1);
    if (result.completed)
        collectorAdd(lane, telemetry::Counter::kScenariosCompleted, 1);
    else if (result.deadlineMiss)
        collectorAdd(lane,
                     telemetry::Counter::kScenarioDeadlineMisses, 1);
    else
        collectorAdd(lane, telemetry::Counter::kScenariosShed, 1);
    collectorAdd(lane, telemetry::Counter::kScenarioCacheHits, hits);
    collectorAdd(lane, telemetry::Counter::kScenarioCacheMisses,
                 misses);
}

void
ScenarioService::Impl::streamResult(ScenarioResult &result,
                                    int lane) const
{
    if (opt.resultDir.empty() || result.tenant.empty())
        return;
    std::ostringstream os;
    os << "{\n"
       << "  \"tenant\": \""
       << common::jsonEscape(result.tenant) << "\",\n"
       << "  \"label\": \"" << common::jsonEscape(result.label)
       << "\",\n"
       << "  \"scenario_key\": \"" << hex64(result.scenarioKey)
       << "\",\n"
       << "  \"admitted\": " << (result.admitted ? "true" : "false")
       << ",\n"
       << "  \"completed\": " << (result.completed ? "true" : "false")
       << ",\n"
       << "  \"deadline_miss\": "
       << (result.deadlineMiss ? "true" : "false") << ",\n"
       << "  \"error\": \"" << common::jsonEscape(result.error)
       << "\",\n"
       << "  \"steps\": " << result.report.steps << ",\n"
       << "  \"dt\": " << common::jsonNumber(result.report.dt) << ",\n"
       << "  \"peak_displacement\": "
       << common::jsonNumber(result.report.peakDisplacement) << ",\n"
       << "  \"engine_fingerprint\": \""
       << hex64(result.engineFingerprint) << "\",\n"
       << "  \"state_fingerprint\": \""
       << hex64(result.stateFingerprint) << "\",\n"
       << "  \"queue_seconds\": "
       << common::jsonNumber(result.queueSeconds) << ",\n"
       << "  \"prefix_seconds\": "
       << common::jsonNumber(result.prefixSeconds) << ",\n"
       << "  \"step_seconds\": "
       << common::jsonNumber(result.stepSeconds) << ",\n"
       << "  \"threads_used\": " << result.threadsUsed << ",\n"
       << "  \"spanned\": " << (result.spanned ? "true" : "false")
       << "\n}\n";
    const std::string payload = os.str();
    result.resultPath = opt.resultDir + "/" + result.tenant + "-" +
                        hex64(result.scenarioKey) + ".json";
    common::writeFileAtomic(result.resultPath, payload);
    collectorAdd(lane, telemetry::Counter::kScenarioResultBytes,
                 payload.size());
}

ScenarioService::ScenarioService(ServiceOptions options)
{
    options.validate();
    if (!options.resultDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.resultDir, ec);
        QUAKE_EXPECT(!ec, "cannot create result directory "
                              << options.resultDir << ": "
                              << ec.message());
    }
    impl_ = std::make_unique<Impl>(std::move(options));
    impl_->totalThreads =
        impl_->opt.totalThreads > 0
            ? impl_->opt.totalThreads
            : std::max(1, parallel::WorkerPool::hardwareThreads());
    if (impl_->opt.collector != nullptr &&
        impl_->opt.collector->enabled())
        impl_->opt.collector->ensureSlots(impl_->opt.executors);
    impl_->lanes.reserve(
        static_cast<std::size_t>(impl_->opt.executors));
    for (int lane = 0; lane < impl_->opt.executors; ++lane)
        impl_->lanes.emplace_back(
            [this, lane] { impl_->laneLoop(lane); });
}

ScenarioService::~ScenarioService() { shutdown(); }

std::future<ScenarioResult>
ScenarioService::submit(ScenarioRequest request)
{
    request.validate();
    Job job;
    job.request = std::move(request);
    job.enqueued = SteadyClock::now();
    std::future<ScenarioResult> future = job.promise.get_future();
    QUAKE_EXPECT(impl_->queue.push(std::move(job)),
                 "submit after shutdown");
    return future;
}

bool
ScenarioService::trySubmit(ScenarioRequest request,
                           std::future<ScenarioResult> *out)
{
    request.validate();
    Job job;
    job.request = std::move(request);
    job.enqueued = SteadyClock::now();
    std::future<ScenarioResult> future = job.promise.get_future();
    if (!impl_->queue.tryPush(std::move(job))) {
        impl_->rejections.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (out != nullptr)
        *out = std::move(future);
    return true;
}

void
ScenarioService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(impl_->shutdownMu);
        if (impl_->shutdownDone)
            return;
        impl_->shutdownDone = true;
    }
    impl_->queue.close();
    for (std::thread &t : impl_->lanes)
        t.join();
    impl_->lanes.clear();
    // Lanes are joined: the cache-internal eviction total (the one
    // stat not attributable to a single request) can be flushed into
    // the collector without racing any per-lane writer.
    if (impl_->opt.collector != nullptr &&
        impl_->opt.collector->enabled())
        impl_->collectorAdd(
            0, telemetry::Counter::kScenarioCacheEvictions,
            impl_->cache.stats().evictions);
}

PrefixCache::Stats
ScenarioService::cacheStats() const
{
    return impl_->cache.stats();
}

std::uint64_t
ScenarioService::queueRejections() const
{
    return impl_->rejections.load(std::memory_order_relaxed);
}

TenantStats
ScenarioService::tenantStats(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(impl_->tenantsMu);
    const auto it = impl_->tenants.find(tenant);
    return it != impl_->tenants.end() ? it->second : TenantStats{};
}

std::vector<std::pair<std::string, TenantStats>>
ScenarioService::allTenantStats() const
{
    std::lock_guard<std::mutex> lock(impl_->tenantsMu);
    return {impl_->tenants.begin(), impl_->tenants.end()};
}

int
ScenarioService::totalThreads() const
{
    return impl_->totalThreads;
}

ScenarioResult
ScenarioService::runStandalone(const ScenarioRequest &request)
{
    request.validate();
    ScenarioResult result;
    result.tenant = request.tenant;
    result.label = request.label;
    result.scenarioKey = request.scenarioKey();
    result.admitted = true;

    const std::unique_ptr<mesh::SoilModel> model =
        request.makeSoilModel();
    const mesh::GeneratedMesh generated =
        mesh::generateMesh(*model, request.meshSpec);
    const sim::SimulationConfig config = request.toSimConfig();
    sim::SimulationEngine engine =
        sim::makeSimulationEngine(generated.mesh, *model, config);
    result.engineFingerprint = engine.fingerprint;
    result.threadsUsed = engine.psmvp ? engine.psmvp->numThreads() : 1;
    result.report.dt = engine.dt;
    const SteadyClock::time_point t0 = SteadyClock::now();
    sim::advanceSimulation(engine, config, result.report);
    result.stepSeconds = secondsSince(t0);
    result.completed = true;
    result.stateFingerprint = resilience::stateFingerprint(
        resilience::snapshot(engine, result.report));
    return result;
}

void
ScenarioService::writeTenantMetricsJson(const std::string &bench_name,
                                        const std::string &path) const
{
    std::vector<common::BenchJsonRecord> records;
    for (const auto &[tenant, t] : allTenantStats()) {
        common::BenchJsonRecord r;
        r.kernel = tenant;
        r.rows = static_cast<std::int64_t>(t.submitted);
        r.nnz = static_cast<std::int64_t>(t.completed);
        r.secondsPerSmvp =
            t.completed > 0
                ? t.stepSeconds / static_cast<double>(t.completed)
                : 0.0;
        r.extra = {
            {"shed", static_cast<double>(t.shed)},
            {"deadline_misses",
             static_cast<double>(t.deadlineMisses)},
            {"cache_hits", static_cast<double>(t.cacheHits)},
            {"cache_misses", static_cast<double>(t.cacheMisses)},
            {"prefix_seconds", t.prefixSeconds},
            {"step_seconds", t.stepSeconds},
        };
        records.push_back(std::move(r));
    }
    const PrefixCache::Stats s = cacheStats();
    common::writeBenchJson(
        bench_name, records,
        {{"cache_hits", std::to_string(s.hits)},
         {"cache_misses", std::to_string(s.misses)},
         {"cache_evictions", std::to_string(s.evictions)},
         {"queue_rejections", std::to_string(queueRejections())}},
        path);
}

} // namespace quake::service

/**
 * @file
 * The multi-tenant scenario service (DESIGN.md §14): a long-lived
 * server core that packs many concurrent earthquake scenarios onto one
 * shared machine.
 *
 * Pipeline per request:
 *
 *   submit() -> bounded MPMC queue -> executor lane:
 *     queue-wait shedding -> content-addressed prefix (mesh, partition,
 *     assembled stiffness; single-flight LRU cache) -> Eq. (1)
 *     admission check against the SLO deadline -> packing (small
 *     scenarios share the thread budget side by side, large ones span
 *     it exclusively) -> engine build over the cached prefix ->
 *     time stepping under a runtime deadline observer -> result
 *     (fingerprints + timings), optionally streamed to disk as an
 *     atomic JSON record.
 *
 * Correctness contract: a scenario executed through the service is
 * bitwise identical to the same request run standalone (verify
 * property `service_scenario_bitwise`).  This follows from two proven
 * invariants — cached prefixes are pure const input data keyed by
 * content, and the engine trajectory is bitwise invariant across
 * thread counts — so neither caching nor packing can change a single
 * bit of any tenant's answer.
 */

#ifndef QUAKE98_SERVICE_SERVICE_H_
#define QUAKE98_SERVICE_SERVICE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/prefix_cache.h"
#include "service/scenario.h"
#include "telemetry/collector.h"

namespace quake::service
{

/** Construction-time configuration of a ScenarioService. */
struct ServiceOptions
{
    /** Executor lanes pulling from the queue (>= 1). */
    int executors = 2;

    /**
     * Total worker-thread budget shared by all lanes; 0 = hardware
     * concurrency.  A small scenario runs with totalThreads/executors
     * threads; a spanning one takes the whole budget exclusively.
     */
    int totalThreads = 0;

    /**
     * Scenarios with numPes >= spanThreshold span the whole thread
     * budget (exclusive); smaller ones pack side by side.
     */
    int spanThreshold = 8;

    /** Prefix-cache byte budget; 0 disables caching (cold mode). */
    std::size_t cacheBytes = std::size_t{256} << 20;

    /** Admission queue capacity (>= 1). */
    std::size_t queueCapacity = 64;

    /**
     * Eq. (1) machine model for admission control: sustained MFLOPS
     * and amortized seconds per communication word.  A request with a
     * deadline is shed when the model predicts it will miss it.
     * modelMflops == 0 disables model-based admission: a request is
     * then shed only when it already waited past its deadline in the
     * queue, and the runtime deadline observer enforces the SLO.
     */
    double modelMflops = 0.0;
    double modelTcSecondsPerWord = 0.0;

    /** Slack multiplier on the model prediction (supervisor-style). */
    double admitSlack = 3.0;

    /**
     * Directory for streamed per-scenario result records (atomic
     * write: temp + fsync + rename); empty disables streaming.
     */
    std::string resultDir;

    /**
     * Optional service-level telemetry (caller-owned).  Slots
     * [0, executors) are claimed at construction, one per lane —
     * single-writer preserved.  Engines never see the collector.
     */
    telemetry::Collector *collector = nullptr;

    /** Reject invalid options (FatalError naming the field). */
    void validate() const;
};

/** Per-tenant accounting split (BENCH-schema telemetry export). */
struct TenantStats
{
    std::uint64_t submitted = 0;      ///< requests dequeued for them
    std::uint64_t completed = 0;      ///< ran to completion
    std::uint64_t shed = 0;           ///< refused before execution
    std::uint64_t deadlineMisses = 0; ///< aborted at the SLO deadline
    double stepSeconds = 0.0;         ///< wall time in their engines
    double prefixSeconds = 0.0;       ///< wall time building prefixes
    std::uint64_t cacheHits = 0;      ///< prefix stages from cache
    std::uint64_t cacheMisses = 0;    ///< prefix stages computed
};

/**
 * The service.  Thread-safe: any number of client threads may submit
 * concurrently; `executors` internal lanes execute.  Destruction (or
 * shutdown()) closes the queue, drains every accepted request, and
 * joins the lanes — a submitted future always becomes ready.
 */
class ScenarioService
{
  public:
    explicit ScenarioService(ServiceOptions options);
    ~ScenarioService();

    ScenarioService(const ScenarioService &) = delete;
    ScenarioService &operator=(const ScenarioService &) = delete;

    /**
     * Validate and enqueue `request`; blocks while the queue is full.
     * The future resolves to the scenario's result (admitted or shed);
     * it only throws if the request is submitted after shutdown.
     */
    std::future<ScenarioResult> submit(ScenarioRequest request);

    /**
     * Non-blocking submit: false when the queue is full or closed
     * (the overload-shedding edge — callers turn this into 429s).
     */
    bool trySubmit(ScenarioRequest request,
                   std::future<ScenarioResult> *out);

    /** Close the queue, run every accepted request, join the lanes. */
    void shutdown();

    /** Prefix-cache counters. */
    PrefixCache::Stats cacheStats() const;

    /** Requests refused by trySubmit because the queue was full. */
    std::uint64_t queueRejections() const;

    /** Accounting for one tenant ({} when unknown). */
    TenantStats tenantStats(const std::string &tenant) const;

    /** All tenants, sorted by name. */
    std::vector<std::pair<std::string, TenantStats>> allTenantStats()
        const;

    /** The resolved total thread budget. */
    int totalThreads() const;

    /**
     * The oracle for the bitwise contract: run `request` exactly as a
     * standalone single run would (no cache, no queue, no packing —
     * engine built from scratch, default thread budget), producing
     * the same result fields, fingerprints included.
     */
    static ScenarioResult runStandalone(const ScenarioRequest &request);

    /**
     * Write the per-tenant splits as a BENCH-schema JSON (one record
     * per tenant, tenant name as the kernel field).
     */
    void writeTenantMetricsJson(const std::string &bench_name,
                                const std::string &path) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace quake::service

#endif // QUAKE98_SERVICE_SERVICE_H_

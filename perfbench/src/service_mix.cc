/**
 * @file
 * The service-mix workload: a closed loop from one submitting thread
 * that keeps kInFlight scenarios in flight on a ScenarioService (2
 * executor lanes, a thread budget of at most 4).  Requests come in
 * blocks of ten with a seeded order:
 *
 *   7 hot     sequential sf20-class scenarios over 3 hot prefixes with
 *             seeded sources: prefix-cache hits;
 *   2 fresh   sequential scenarios on a mesh scale no earlier request
 *             used: misses, so mesh generation and assembly run per
 *             request, and the LRU budget forces evictions;
 *   1 span    an 8-PE sf10 scenario that takes the whole thread budget
 *             exclusively (packing vs spanning).
 *
 * Fixed class counts and spanning positions per block keep the work
 * per run independent of the seed; the seed picks the order of the
 * rest, the prefixes the hot and fresh requests use, and every source.  The cache budget is sized from a
 * sizing pass: the hot and spanning prefixes fit, fresh ones evict.
 */

#include <algorithm>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "tracer.h"

#include "parallel/worker_pool.h"
#include "service/service.h"

namespace perfbench
{

namespace
{

using namespace quake;

constexpr int kInFlight = 4;

/** Fresh prefixes the cache keeps besides the hot and spanning ones. */
constexpr double kFreshSlack = 6.0;

enum class Kind
{
    kHot,
    kFresh,
    kSpan
};

const char *
kindName(Kind k)
{
    switch (k) {
    case Kind::kHot:
        return "hot";
    case Kind::kFresh:
        return "fresh";
    default:
        return "span";
    }
}

/** Sizes of the three request classes. */
struct MixSpec
{
    double hotScales[3];
    double freshScale;
    std::int64_t seqSteps;
    mesh::SfClass spanClass;
    double spanScale;
    std::int64_t spanSteps;
};

constexpr MixSpec kFull = {{1.3, 1.5, 1.7}, 1.6, 120,
                           mesh::SfClass::kSf10, 1.0, 60};
constexpr MixSpec kTiny = {{2.0, 2.2, 2.4}, 2.1, 20,
                           mesh::SfClass::kSf20, 1.5, 10};

/** Seeded request generator. */
class Mix
{
  public:
    Mix(std::uint64_t seed, const MixSpec &spec) : rng_(seed), spec_(spec)
    {}

    /**
     * Next class: blocks of a seeded shuffle of 7 hot and 2 fresh, with
     * the spanning request in the middle, so two spanning requests are
     * never adjacent and the queueing tail does not depend on the seed.
     */
    Kind
    nextKind()
    {
        if (block_.empty()) {
            block_ = {Kind::kHot, Kind::kHot, Kind::kHot,   Kind::kHot,
                      Kind::kHot, Kind::kHot, Kind::kHot,   Kind::kFresh,
                      Kind::kFresh};
            std::shuffle(block_.begin(), block_.end(), rng_);
            block_.insert(block_.begin() + 4, Kind::kSpan);
        }
        const Kind k = block_.back();
        block_.pop_back();
        return k;
    }

    service::ScenarioRequest
    make(Kind kind, int hot_index = -1)
    {
        service::ScenarioRequest r;
        r.tenant = kindName(kind);
        r.label = "req" + std::to_string(count_++);
        mesh::SfClass cls = mesh::SfClass::kSf20;
        switch (kind) {
        case Kind::kHot: {
            const int k = hot_index >= 0
                              ? hot_index
                              : static_cast<int>(rng_() % 3);
            r.meshSpec = mesh::MeshSpec::forClass(cls, spec_.hotScales[k]);
            r.maxSteps = spec_.seqSteps;
            break;
        }
        case Kind::kFresh: {
            // A scale no other request uses: a distinct content key.
            const double eps = 1e-7 * static_cast<double>(1 + rng_() % 999983);
            r.meshSpec =
                mesh::MeshSpec::forClass(cls, spec_.freshScale * (1.0 + eps));
            r.maxSteps = spec_.seqSteps;
            break;
        }
        case Kind::kSpan:
            cls = spec_.spanClass;
            r.meshSpec = mesh::MeshSpec::forClass(cls, spec_.spanScale);
            r.numPes = 8;
            r.maxSteps = spec_.spanSteps;
            break;
        }
        const Source src = drawSource(rng_, cls);
        r.hypocenter = src.hypocenter;
        r.sourceDirection = src.direction;
        r.wavelet = src.wavelet;
        r.durationSeconds = 1e9; // maxSteps bounds the run
        return r;
    }

  private:
    std::mt19937_64 rng_;
    MixSpec spec_;
    std::vector<Kind> block_;
    std::int64_t count_ = 0;
};

/** One served request as the client saw it (times: tracer clock, ns). */
struct Served
{
    Kind kind = Kind::kHot;
    service::ScenarioRequest request;
    service::ScenarioResult result;
    std::uint64_t submitted = 0;
    std::uint64_t ready = 0;
    bool threw = false;

    bool
    ok() const
    {
        return !threw && result.admitted && result.completed &&
               result.error.empty();
    }

    double latencyMs() const { return (ready - submitted) * 1e-6; }
};

/** Closed-loop window results. */
struct Window
{
    std::vector<Served> done; ///< completed inside the window
    std::vector<Served> tail; ///< drained after it
    double seconds = 0.0;

    double perSecond() const { return done.size() / seconds; }
};

/**
 * Keep kInFlight requests in flight for `seconds`: each completion is
 * answered by the next submission.  Completions are polled every
 * 100 us, which bounds the latency error.
 */
Window
closedLoop(service::ScenarioService &svc, Mix &mix, double seconds,
           const Tracer &clock)
{
    struct Slot
    {
        std::future<service::ScenarioResult> f;
        Served s;
    };
    std::vector<Slot> slots(kInFlight);
    auto submit = [&](Slot &slot) {
        slot.s = Served{};
        slot.s.kind = mix.nextKind();
        slot.s.request = mix.make(slot.s.kind);
        slot.s.submitted = clock.now();
        slot.f = svc.submit(slot.s.request);
    };

    Window w;
    w.seconds = seconds;
    const std::uint64_t until =
        clock.now() + static_cast<std::uint64_t>(seconds * 1e9);
    for (Slot &slot : slots)
        submit(slot);
    for (int live = kInFlight; live > 0;) {
        bool progressed = false;
        for (Slot &slot : slots) {
            if (!slot.f.valid() || slot.f.wait_for(std::chrono::seconds(0)) !=
                                       std::future_status::ready)
                continue;
            try {
                slot.s.result = slot.f.get();
            } catch (const std::exception &e) {
                slot.s.threw = true;
                slot.s.result.error = e.what();
            }
            slot.s.ready = clock.now();
            progressed = true;
            const bool in_window = slot.s.ready <= until;
            (in_window ? w.done : w.tail).push_back(std::move(slot.s));
            if (in_window)
                submit(slot);
            else
                --live;
        }
        if (!progressed)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return w;
}

/** Spans of one served request, rebuilt from its reported split. */
void
traceRequest(Tracer &tracer, const Served &s)
{
    const int trace = tracer.newTrace();
    const int root =
        tracer.add("service.request", s.submitted, s.ready, -1, trace, 0);
    const int tid = 1 + std::max(0, s.result.lane);
    std::uint64_t t = s.submitted;
    const struct
    {
        const char *name;
        double seconds;
    } parts[] = {{"service.queue", s.result.queueSeconds},
                 {"service.prefix", s.result.prefixSeconds},
                 {"service.engine_step", s.result.stepSeconds}};
    for (const auto &p : parts) {
        const std::uint64_t end =
            std::min(s.ready, t + static_cast<std::uint64_t>(p.seconds * 1e9));
        tracer.add(p.name, t, end, root, trace, tid);
        t = end;
    }
}

double
quantileOf(const std::vector<Served> &v, double q,
           double (*get)(const Served &))
{
    std::vector<double> xs;
    for (const Served &s : v)
        if (s.ok())
            xs.push_back(get(s));
    return quantile(xs, q);
}

} // namespace

Outcome
runServiceMix(const Options &opt)
{
    Outcome out;
    const MixSpec &spec = opt.tiny ? kTiny : kFull;
    // As in the stepping workloads, the engine threads leave one CPU to
    // the dispatching threads (lanes and the client).
    const int threads = std::min(
        4, std::max(1, parallel::WorkerPool::hardwareThreads() - 1));

    service::ServiceOptions base;
    base.executors = 2;
    base.totalThreads = threads;
    base.spanThreshold = 8;
    base.queueCapacity = 64;

    // ---- set-up, three times (setup_s is the median): construction
    // plus the first request of each hot and spanning prefix, which
    // warms the cache for the timed window.  The first set-up doubles
    // as the sizing pass: an unbounded cache measures the resident bytes
    // of those prefixes and of one fresh prefix, as the service's own
    // cache accounts them.  The last one is the service that is timed.
    std::vector<double> setup_s;
    std::unique_ptr<service::ScenarioService> svc;
    std::size_t hot_bytes = 0, fresh_bytes = 0;
    for (int r = 0; r < 3; ++r) {
        service::ServiceOptions o = base;
        if (r == 0)
            o.cacheBytes = std::size_t{1} << 40;
        svc.reset();
        const double t0 = nowSeconds();
        svc = std::make_unique<service::ScenarioService>(o);
        Mix warm(opt.seed ^ (0xa11ULL + r), spec);
        for (int k = 0; k < 3; ++k)
            svc->submit(warm.make(Kind::kHot, k)).get();
        svc->submit(warm.make(Kind::kSpan)).get();
        setup_s.push_back(nowSeconds() - t0);
        if (r == 0) {
            hot_bytes = svc->cacheStats().bytes;
            svc->submit(warm.make(Kind::kFresh)).get();
            fresh_bytes = svc->cacheStats().bytes - hot_bytes;
            base.cacheBytes = hot_bytes + static_cast<std::size_t>(
                                              kFreshSlack * fresh_bytes);
        }
    }
    const double setup = median(setup_s);

    std::cout << "workload service-mix" << (opt.tiny ? " (tiny)" : "")
              << ": 2 executors, " << threads << "-thread budget, "
              << kInFlight << " requests in flight (closed loop, one "
              << "client)\n  mix per 10 requests: 7 hot / 2 fresh / 1 "
              << "spanning; cache budget " << std::setprecision(4)
              << base.cacheBytes / 1048576.0 << " MiB (hot+span prefixes "
              << hot_bytes / 1048576.0 << " MiB, one fresh prefix "
              << fresh_bytes / 1048576.0 << " MiB)\n"
              << std::setprecision(6);

    Mix mix(opt.seed, spec);
    const Tracer clock(false);
    // A traced run splits its time between this untraced window (the
    // overhead baseline) and the traced one.
    const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Window w = closedLoop(*svc, mix, window, clock);
    const double untraced = w.perSecond();
    std::vector<double> lat;
    for (const Served &s : w.done)
        if (s.ok())
            lat.push_back(s.latencyMs());
    const std::size_t n = lat.size();
    const double p50 = quantile(lat, 0.5);
    const double p99 = quantile(lat, 0.99);
    std::cout << "  scenarios_per_s   " << untraced << " 1/s  ("
              << w.done.size() << " completed in " << w.seconds
              << " s)\n  scenario_ms_p50   " << p50 << " ms  (n=" << n
              << ")\n  scenario_ms_p99   " << p99 << " ms  (n=" << n << ", "
              << static_cast<std::size_t>(0.01 * n) << " beyond)\n"
              << "  setup_s           " << setup << " s  (median of "
              << setup_s.size() << " constructions + cache warm-ups)\n";

    // ---- traced window: spans per request, service-side split
    std::unique_ptr<Tracer> tracer;
    Window tw;
    service::PrefixCache::Stats before{}, after{};
    if (opt.trace) {
        tracer = std::make_unique<Tracer>(true);
        before = svc->cacheStats();
        tw = closedLoop(*svc, mix, window, *tracer);
        after = svc->cacheStats();
        for (const Served &s : tw.done)
            traceRequest(*tracer, s);
        for (const Served &s : tw.tail)
            traceRequest(*tracer, s);
    }

    // ---- correctness: every request must complete, and a seeded
    // sample of each class must replay bitwise through runStandalone.
    std::int64_t served = 0, bad = 0;
    const Window *windows[] = {&w, &tw};
    for (const Window *win : windows)
        for (const std::vector<Served> *v : {&win->done, &win->tail})
            for (const Served &s : *v) {
                ++served;
                if (s.ok())
                    continue;
                ++bad;
                std::cout << "CHECK FAILED: " << s.request.label << " ("
                          << kindName(s.kind) << ") did not complete: "
                          << s.result.error << "\n";
            }
    out.count(served, bad);

    std::mt19937_64 pick(opt.seed ^ 0x7e91a9ULL);
    int replays = 0;
    for (Kind kind : {Kind::kHot, Kind::kFresh, Kind::kSpan}) {
        std::vector<const Served *> of;
        for (const Served &s : w.done)
            if (s.kind == kind && s.ok())
                of.push_back(&s);
        out.check(!of.empty(), std::string("no completed ") +
                                   kindName(kind) + " request to replay");
        std::shuffle(of.begin(), of.end(), pick);
        for (std::size_t i = 0; i < of.size() && i < 2; ++i) {
            const Served &s = *of[i];
            const int span = tracer ? tracer->open("verify.replay") : -1;
            const service::ScenarioResult ref =
                service::ScenarioService::runStandalone(s.request);
            if (tracer)
                tracer->close(span);
            std::uint64_t state = s.result.stateFingerprint;
            if (opt.corrupt && replays == 0) {
                state ^= 1;
                std::cout << "  (--corrupt: flipped a bit of "
                          << s.request.label << "'s fingerprint)\n";
            }
            out.check(ref.engineFingerprint == s.result.engineFingerprint &&
                          ref.stateFingerprint == state,
                      s.request.label + " (" + kindName(kind) +
                          ") differs from its standalone replay");
            ++replays;
        }
    }
    std::cout << "  replayed " << replays
              << " served results through runStandalone (all three "
                 "classes)\n";

    out.e2e("throughput_per_s", "1/s", untraced);
    out.e2e("latency_ms_p50", "ms", p50);
    out.e2e("setup_s", "s", setup);
    if (!opt.trace)
        return out;

    auto queue = [](const Served &s) { return s.result.queueSeconds * 1e3; };
    auto prefix = [](const Served &s) {
        return s.result.prefixSeconds * 1e3;
    };
    auto step = [](const Served &s) { return s.result.stepSeconds * 1e3; };
    std::int64_t spanned = 0;
    for (const Served &s : tw.done)
        spanned += s.result.spanned ? 1 : 0;
    const double lookups =
        static_cast<double>((after.hits - before.hits) +
                            (after.misses - before.misses));
    out.layer("service.queue_ms_p50", "ms", quantileOf(tw.done, 0.5, queue));
    out.layer("service.queue_ms_p99", "ms", quantileOf(tw.done, 0.99, queue));
    out.layer("service.prefix_ms_p50", "ms",
              quantileOf(tw.done, 0.5, prefix));
    out.layer("service.prefix_ms_p99", "ms",
              quantileOf(tw.done, 0.99, prefix));
    out.layer("service.engine_step_ms_p50", "ms",
              quantileOf(tw.done, 0.5, step));
    out.layer("service.cache_hit_ratio", "ratio",
              lookups > 0 ? (after.hits - before.hits) / lookups : 0.0);
    out.layer("service.evictions", "count",
              static_cast<double>(after.evictions - before.evictions));
    out.layer("service.spanned_frac", "ratio",
              tw.done.empty() ? 0.0
                              : static_cast<double>(spanned) /
                                    static_cast<double>(tw.done.size()));
    out.layer("trace.overhead_frac", "ratio",
              (untraced - tw.perSecond()) / untraced);
    out.layer("trace.coverage", "ratio", tracer->coverage());

    tracer->printSelfTimes(std::cout);
    const std::string path = opt.workDir + "/trace-service-mix.json";
    if (tracer->writeChromeTrace(path))
        std::cout << "  wrote Chrome trace " << path << "\n";
    return out;
}

} // namespace perfbench


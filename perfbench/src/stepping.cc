/**
 * @file
 * The stepping workloads: one long explicit time-stepping run per
 * invocation, set up and driven layer by layer through the public API
 * (generateMesh -> GeometricBisection::partition -> distribute /
 * assembleStiffness -> makeSimulationEngineWith -> step, with
 * writeCheckpoint every N steps on the checkpointing workload).
 *
 *   sf10-p8      sf10, 8 PEs on CPUs-1 threads: small subdomains, so
 *                the engine's exchange (publish wait, gather/scatter)
 *                dominates a sub-millisecond step.
 *   sf5-p8-ckpt  sf5, 8 PEs, checkpoint every 50 steps: the kernel
 *                streams a matrix past L2; checkpoint writes sit beside
 *                the steps and set the step-time tail.
 *   sf5-seq      sf5 on one PE: the sequential fused BCSR3 loop, the
 *                floor every engine change is compared against.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <memory>
#include <random>

#include "bench.h"
#include "tracer.h"

#include "core/characterization.h"
#include "mesh/generator.h"
#include "parallel/characterize.h"
#include "parallel/distributor.h"
#include "parallel/parallel_smvp.h"
#include "parallel/worker_pool.h"
#include "partition/geometric_bisection.h"
#include "quake/simulation.h"
#include "resilience/checkpoint.h"
#include "sparse/assembly.h"
#include "telemetry/collector.h"
#include "telemetry/report.h"
#include "verify/oracles.h"

namespace perfbench
{

namespace
{

using namespace quake;

/** Mixed ULP-or-relative bound of the verify catalogue. */
constexpr std::int64_t kUlpBound = 4096;
constexpr double kRelEps = 1e-11;

/** Steps each set-up runs before its state fingerprint is compared. */
constexpr int kCheckSteps = 24;

/** One fine-grained step span every this many steps (traced run). */
constexpr std::int64_t kStepSpanEvery = 16;

/**
 * The timed window is cut into slices of this many seconds, and the
 * end-to-end step numbers come from the fastest quarter of them.  The
 * host's LLC and memory bus are shared with other tenants, whose load
 * slows an sf5 step up to 2x (and stalls the spinning engine threads)
 * for seconds at a time, over anything from none to most of a run;
 * the fastest slices measure the program at the host's quiet speed.
 */
constexpr double kSliceSeconds = 0.5;
constexpr double kQuietShare = 0.25;

struct SteppingSpec
{
    const char *name;
    mesh::SfClass cls;
    double hScale;
    int pes;
    int checkpointEvery; ///< 0 = no checkpoints
    int segments;        ///< engine instances per run (median -> setup_s)
};

const SteppingSpec kSpecs[] = {
    {"sf10-p8", mesh::SfClass::kSf10, 1.0, 8, 0, 10},
    {"sf5-p8-ckpt", mesh::SfClass::kSf5, 1.0, 8, 50, 4},
    {"sf5-seq", mesh::SfClass::kSf5, 1.0, 1, 0, 4},
};

const SteppingSpec *
findSpec(const std::string &name)
{
    for (const SteppingSpec &s : kSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

/** Everything one set-up builds, plus its layer timings. */
struct Built
{
    mesh::LayeredBasinModel model;
    std::unique_ptr<mesh::GeneratedMesh> gen;
    sim::SimulationConfig config;
    sim::EnginePrefix prefix;
    sim::SimulationEngine engine;
    double meshS = 0, partitionS = 0, distributeS = 0, assembleS = 0,
           engineS = 0;

    double total() const
    {
        return meshS + partitionS + distributeS + assembleS + engineS;
    }
};

/** Time one call and add a span around it. */
template <typename Fn>
double
timed(Tracer &tracer, const char *span, Fn &&fn)
{
    Tracer::Scope scope(tracer, span);
    const double t0 = nowSeconds();
    fn();
    return nowSeconds() - t0;
}

std::unique_ptr<Built>
setUp(const SteppingSpec &spec, const mesh::MeshSpec &mesh_spec,
      const Source &src, int threads, Tracer &tracer)
{
    auto b = std::make_unique<Built>();
    b->meshS = timed(tracer, "mesh.generate", [&] {
        b->gen = std::make_unique<mesh::GeneratedMesh>(
            mesh::generateMesh(b->model, mesh_spec));
    });
    const mesh::TetMesh &m = b->gen->mesh;

    sim::SimulationConfig &c = b->config;
    c.numPes = spec.pes;
    c.smvpThreads = threads;
    c.overlapSmvp = true;
    c.fusedStep = true;
    c.kernelBackend = sim::SimulationConfig::KernelBackend::kBcsr3;
    c.hypocenter = src.hypocenter;
    c.sourceDirection = src.direction;
    c.wavelet = src.wavelet;
    c.durationSeconds = 1e9; // the benchmark decides when to stop
    c.sampleInterval = 0;

    if (spec.pes > 1) {
        partition::Partition part;
        b->partitionS = timed(tracer, "partition.bisect", [&] {
            part = partition::GeometricBisection().partition(m, spec.pes);
        });
        b->distributeS = timed(tracer, "parallel.distribute", [&] {
            b->prefix.problem =
                std::make_shared<const parallel::DistributedProblem>(
                    parallel::distribute(m, b->model, part, c.poisson));
        });
    } else {
        b->assembleS = timed(tracer, "sparse.assemble", [&] {
            b->prefix.globalK = std::make_shared<const sparse::Bcsr3Matrix>(
                sparse::assembleStiffness(m, b->model, c.poisson));
        });
    }
    b->engineS = timed(tracer, "engine.build", [&] {
        b->engine = sim::makeSimulationEngineWith(m, b->model, c, b->prefix);
    });
    return b;
}

/** resilience::stateFingerprint of the engine's live state. */
std::uint64_t
liveFingerprint(const sim::SimulationEngine &e, double peak,
                resilience::Checkpoint &scratch)
{
    scratch.fingerprint = e.fingerprint;
    scratch.dt = e.dt;
    scratch.plannedSteps = e.plannedSteps;
    e.stepper->saveState(scratch.state);
    scratch.reportPeak = peak;
    scratch.samples.clear();
    return resilience::stateFingerprint(scratch);
}

/** Steps the run drives and the checkpoints it writes. */
struct StepRunner
{
    Built &b;
    int checkpointEvery;
    std::string checkpointPath;
    Tracer &tracer;

    double peak = 0.0;
    resilience::Checkpoint ckpt; // reused buffers
    std::size_t ckptBytes = 0;
    std::vector<double> ckptWriteMs;

    /** One step, plus the checkpoint when due; returns its seconds. */
    double
    step(bool span)
    {
        sim::ExplicitTimeStepper &st = *b.engine.stepper;
        const double t0 = nowSeconds();
        {
            const int id = span ? tracer.open("quake.step") : -1;
            st.step();
            tracer.close(id);
        }
        peak = std::max(peak, st.peakDisplacement());
        if (checkpointEvery > 0 && st.stepCount() % checkpointEvery == 0) {
            Tracer::Scope scope(tracer, "resilience.checkpoint_write");
            const double c0 = nowSeconds();
            liveFingerprint(b.engine, peak, ckpt);
            ckptBytes = resilience::writeCheckpoint(checkpointPath, ckpt);
            ckptWriteMs.push_back((nowSeconds() - c0) * 1e3);
        }
        return nowSeconds() - t0;
    }
};

/** A run of consecutive steps lasting about kSliceSeconds. */
struct Slice
{
    std::size_t first = 0; ///< index of its first step in stepSeconds
    std::size_t steps = 0;
    double seconds = 0.0;

    double perSecond() const { return steps / seconds; }
};

/** Timed window results. */
struct Window
{
    std::int64_t steps = 0;
    double seconds = 0.0;
    std::vector<double> stepSeconds;
    std::vector<Slice> slices; ///< full slices only
    double stepperTotal = 0.0; ///< delta of stepper.totalSeconds()
    double stepperSmvp = 0.0;  ///< delta of stepper.smvpSeconds()

    double perSecond() const { return steps / seconds; }

    /** Append another window's steps and slices. */
    void
    append(const Window &o)
    {
        for (Slice s : o.slices) {
            s.first += stepSeconds.size();
            slices.push_back(s);
        }
        steps += o.steps;
        seconds += o.seconds;
        stepSeconds.insert(stepSeconds.end(), o.stepSeconds.begin(),
                           o.stepSeconds.end());
    }
};

Window
runWindow(StepRunner &d, double seconds, bool traced)
{
    sim::ExplicitTimeStepper &st = *d.b.engine.stepper;
    Window w;
    w.stepSeconds.reserve(1 << 16);
    const double total0 = st.totalSeconds(), smvp0 = st.smvpSeconds();
    Tracer::Scope loop(d.tracer, "quake.step_loop");
    const double t0 = nowSeconds();
    const double until = t0 + seconds;
    double t = t0;
    Slice slice;
    double slice0 = t0;
    while (t < until) {
        const bool span = traced && (st.stepCount() % kStepSpanEvery == 0);
        w.stepSeconds.push_back(d.step(span));
        ++w.steps;
        ++slice.steps;
        t = nowSeconds();
        if (t - slice0 >= kSliceSeconds) {
            slice.seconds = t - slice0;
            w.slices.push_back(slice);
            slice = Slice{w.stepSeconds.size(), 0, 0.0};
            slice0 = t;
        }
    }
    w.seconds = t - t0;
    w.stepperTotal = st.totalSeconds() - total0;
    w.stepperSmvp = st.smvpSeconds() - smvp0;
    return w;
}

/** Steps per second and median step time over a window's fastest slices. */
struct QuietSpeed
{
    double perSecond = 0.0;
    double stepP50Seconds = 0.0;
    std::size_t slices = 0;
    std::size_t steps = 0;
};

QuietSpeed
quietSpeed(const Window &w)
{
    std::vector<Slice> s = w.slices;
    if (s.empty()) // a window shorter than one slice
        s.push_back(Slice{0, w.stepSeconds.size(), w.seconds});
    std::sort(s.begin(), s.end(), [](const Slice &a, const Slice &b) {
        return a.perSecond() > b.perSecond();
    });
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(kQuietShare * s.size()));
    QuietSpeed q;
    double seconds = 0.0;
    std::vector<double> times;
    for (std::size_t i = 0; i < keep; ++i) {
        q.steps += s[i].steps;
        seconds += s[i].seconds;
        times.insert(times.end(), w.stepSeconds.begin() + s[i].first,
                     w.stepSeconds.begin() + s[i].first + s[i].steps);
    }
    q.slices = keep;
    q.perSecond = q.steps / seconds;
    q.stepP50Seconds = median(times);
    return q;
}

/** Median seconds of `fn` over enough repetitions to fill ~budget s. */
template <typename Fn>
double
medianSeconds(Fn &&fn, double budget)
{
    std::vector<double> t;
    const double stop = nowSeconds() + budget;
    while (t.size() < 5 || (nowSeconds() < stop && t.size() < 2000)) {
        const double t0 = nowSeconds();
        fn();
        t.push_back(nowSeconds() - t0);
    }
    return median(t);
}

/** Bytes the kernel touches in one BCSR3 multiply (computed). */
double
matrixBytes(const sparse::Bcsr3Matrix &k)
{
    return 76.0 * static_cast<double>(k.numBlocks()) +
           8.0 * static_cast<double>(k.numBlockRows() + 1);
}

std::string
cacheVerdict(double bytes, double l2_total, double llc)
{
    if (l2_total > 0 && bytes <= l2_total)
        return "fits in the aggregate L2 (cache-resident)";
    if (llc > 0 && bytes <= llc)
        return "past L2, inside the LLC (streams from LLC)";
    return "past the LLC (streams from DRAM)";
}

} // namespace

bool
isSteppingWorkload(const std::string &name)
{
    return findSpec(name) != nullptr;
}

Outcome
runStepping(const Options &opt, const HostInfo &host)
{
    const SteppingSpec &spec = *findSpec(opt.workload);
    Outcome out;

    mesh::MeshSpec mesh_spec = mesh::MeshSpec::forClass(
        opt.tiny ? mesh::SfClass::kSf20 : spec.cls,
        opt.tiny ? 1.5 : spec.hScale);
    std::mt19937_64 rng(opt.seed);
    const Source src = drawSource(rng, spec.cls);
    const int hw = std::max(1, parallel::WorkerPool::hardwareThreads());
    // The stepping thread dispatches every step and sleeps in between; it
    // keeps a CPU of its own.  With as many engine threads as CPUs the
    // same runs spread 11-19% apart (measured on a 4-CPU VM), with one
    // fewer about 2-3%.
    const int threads = std::min(spec.pes, std::max(1, hw - 1));
    const double warmup = std::min(0.25, 0.05 * opt.seconds);

    std::cout << "workload " << spec.name << ": "
              << mesh::sfClassName(opt.tiny ? mesh::SfClass::kSf20 : spec.cls)
              << (opt.tiny ? " (tiny)" : "") << ", " << spec.pes
              << " PE(s) on " << (spec.pes > 1 ? threads : 1)
              << " thread(s), fused, overlapped, BCSR3"
              << (spec.checkpointEvery > 0
                      ? ", checkpoint every " +
                            std::to_string(spec.checkpointEvery) + " steps"
                      : std::string())
              << "\n  source at (" << src.hypocenter.x << ", "
              << src.hypocenter.y << ", " << src.hypocenter.z << ") km\n";

    // The collector outlives every engine and stepper it is attached to
    // (declared first, destroyed last) and is detached before teardown.
    telemetry::CollectorConfig tele_config;
    tele_config.enabled = opt.trace;
    tele_config.sampleEvery = 64;
    telemetry::Collector collector(tele_config);

    Tracer untraced(false);
    const std::string ckpt_path =
        opt.workDir + "/" + spec.name + ".ckpt";

    // ---- untraced run (the end-to-end numbers): `reps` segments, each
    // a fresh set-up (setup_s is their median) and an equal share of the
    // timed window, so one engine instance's layout and thread placement
    // do not decide the run.  Every set-up must reach the same state
    // after kCheckSteps steps.  A traced run gives half its time to this
    // part (the overhead baseline) and half to the traced pass.
    const int reps = opt.tiny ? 2 : spec.segments;
    const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    const double segment = untraced_seconds / reps;
    std::vector<double> setup_s;
    std::vector<std::uint64_t> fingerprints;
    std::unique_ptr<Built> built;
    resilience::Checkpoint scratch;
    Window w;
    double peak = 0.0;
    for (int r = 0; r < reps; ++r) {
        built.reset();
        built = setUp(spec, mesh_spec, src, threads, untraced);
        setup_s.push_back(built->total());
        StepRunner runner{*built, spec.checkpointEvery, ckpt_path, untraced};
        for (int s = 0; s < kCheckSteps; ++s)
            runner.step(false);
        fingerprints.push_back(
            liveFingerprint(built->engine, runner.peak, scratch));
        for (double t0 = nowSeconds(); nowSeconds() - t0 < warmup;)
            runner.step(false);
        const Window seg = runWindow(runner, segment, false);
        std::vector<double> seg_s = seg.stepSeconds;
        std::cout << "  segment " << r << ": " << seg.perSecond()
                  << " steps/s, p50 " << quantile(seg_s, 0.5) * 1e6
                  << " us, p99 " << quantile(seg_s, 0.99) * 1e6 << " us\n";
        w.append(seg);
        peak = std::max(peak, runner.peak);
    }
    const QuietSpeed quiet = quietSpeed(w);
    const double untraced_sps = quiet.perSecond;
    const double p50 = quiet.stepP50Seconds * 1e6;

    const std::int64_t n = static_cast<std::int64_t>(w.stepSeconds.size());
    std::vector<double> step_us = w.stepSeconds;
    for (double &v : step_us)
        v *= 1e6;
    const double all_p50 = quantile(step_us, 0.5);
    const double p99 = quantile(step_us, 0.99);
    std::vector<double> setups = setup_s;
    const double setup_med = median(setups);

    std::cout << std::setprecision(6) << "  steps_per_s   " << untraced_sps
              << " 1/s  (fastest " << quiet.slices << " of "
              << w.slices.size() << " " << kSliceSeconds << " s slices, "
              << quiet.steps << " steps; all " << w.steps << " steps in "
              << w.seconds << " s: " << w.perSecond() << ")\n"
              << "  step_us_p50   " << p50 << " us  (n=" << quiet.steps
              << " in those slices; all steps: " << all_p50 << ")\n"
              << "  step_us_p99   " << p99 << " us  (all steps, n=" << n
              << ", "
              << static_cast<std::int64_t>(0.01 * static_cast<double>(n))
              << " beyond)\n  setup_s       " << setup_med
              << " s  (median of " << setups.size() << " set-ups)\n";

    // ---- traced pass: one more set-up and window, with spans and the
    // engine telemetry attached; the per-layer numbers come from here.
    std::unique_ptr<Tracer> tracer_owner;
    Window tw;
    double tele_step_self_us = 0.0;
    std::vector<double> ckpt_write_ms;
    std::size_t ckpt_bytes = 0;
    if (opt.trace) {
        built.reset();
        tracer_owner = std::make_unique<Tracer>(true);
        Tracer &tracer = *tracer_owner;
        tracer.newTrace();
        built = setUp(spec, mesh_spec, src, threads, tracer);
        {
            Tracer::Scope scope(tracer, "quake.check_steps");
            StepRunner check{*built, 0, "", untraced};
            for (int s = 0; s < kCheckSteps; ++s)
                check.step(false);
            fingerprints.push_back(
                liveFingerprint(built->engine, check.peak, scratch));
        }
        StepRunner traced{*built, spec.checkpointEvery, ckpt_path, tracer};
        {
            Tracer::Scope scope(tracer, "quake.warmup");
            for (double t0 = nowSeconds(); nowSeconds() - t0 < warmup;)
                traced.step(false);
        }
        traced.ckptWriteMs.clear();
        built->engine.stepper->setCollector(&collector);
        if (built->engine.psmvp)
            built->engine.psmvp->setCollector(&collector);
        tw = runWindow(traced, opt.seconds / 2, true);
        built->engine.stepper->setCollector(nullptr);
        if (built->engine.psmvp)
            built->engine.psmvp->setCollector(nullptr);
        tele_step_self_us =
            (tw.stepperTotal - tw.stepperSmvp) / tw.steps * 1e6;
        ckpt_write_ms = traced.ckptWriteMs;
        ckpt_bytes = traced.ckptBytes;
        peak = std::max(peak, traced.peak);
    }
    Tracer &tracer = opt.trace ? *tracer_owner : untraced;
    Built &b = *built;
    const mesh::TetMesh &m = b.gen->mesh;
    sim::ExplicitTimeStepper &st = *b.engine.stepper;

    // ---- correctness oracle
    {
        Tracer::Scope scope(tracer, "verify.oracle");
        const std::vector<double> &u = st.displacement();
        const std::vector<double> &up = st.previousDisplacement();
        bool finite = true;
        for (std::size_t i = 0; i < u.size(); ++i)
            finite = finite && std::isfinite(u[i]) && std::isfinite(up[i]);
        out.check(finite, "final u/up contain a non-finite value");
        out.check(peak > 0.0,
                  "source never fired (peak displacement is 0)");

        bool same = true;
        for (std::uint64_t f : fingerprints)
            same = same && f == fingerprints.front();
        out.check(same, "state fingerprint differs between set-ups of "
                        "one seed");
        std::cout << "  set-ups agree bitwise after " << kCheckSteps
                  << " steps: " << (same ? "yes" : "NO") << " ("
                  << fingerprints.size() << " set-ups)\n";
    }

    // The serial global matrix: the kernel floor and the oracle's
    // reference (the sequential workload assembled it during set-up).
    std::shared_ptr<const sparse::Bcsr3Matrix> global_k = b.prefix.globalK;
    double assemble_s = b.assembleS;
    if (!global_k) {
        assemble_s = timed(tracer, "sparse.assemble", [&] {
            global_k = std::make_shared<const sparse::Bcsr3Matrix>(
                sparse::assembleStiffness(m, b.model, b.config.poisson));
        });
    }
    const std::vector<double> u = st.displacement();
    std::vector<double> y_ref(u.size()), y(u.size());
    {
        Tracer::Scope scope(tracer, "verify.multiply_oracle");
        if (b.engine.psmvp) {
            global_k->multiply(u.data(), y_ref.data());
            b.engine.psmvp->multiplyInto(u, y);
        } else {
            // No engine: check the serial BCSR3 kernel against CSR.
            const sparse::CsrMatrix csr = global_k->toCsr();
            csr.multiply(u.data(), y_ref.data());
            global_k->multiply(u.data(), y.data());
        }
        if (opt.corrupt) {
            const std::size_t k = static_cast<std::size_t>(
                std::max_element(y.begin(), y.end(),
                                 [](double a, double c) {
                                     return std::fabs(a) < std::fabs(c);
                                 }) -
                y.begin());
            y[k] = y[k] * (1.0 + 1e-6) + 1e-300;
            std::cout << "  (--corrupt: perturbed y[" << k << "])\n";
        }
        std::string why;
        out.check(verify::withinMixedTolerance(y_ref, y, kUlpBound, kRelEps,
                                               &why),
                  std::string(b.engine.psmvp ? "multiplyInto" : "BCSR3") +
                      " disagrees with the serial reference: " + why);
    }

    // Checkpoint read-back: step on to the next checkpoint so the file
    // holds the live state, then compare fingerprints.
    double ckpt_read_ms = 0.0;
    if (spec.checkpointEvery > 0) {
        Tracer::Scope scope(tracer, "resilience.checkpoint_verify");
        StepRunner tail{b, spec.checkpointEvery, ckpt_path, tracer};
        tail.peak = peak;
        do {
            tail.step(false);
        } while (st.stepCount() % spec.checkpointEvery != 0);
        const std::uint64_t live = liveFingerprint(b.engine, tail.peak,
                                                   scratch);
        resilience::Checkpoint back;
        ckpt_read_ms = timed(tracer, "resilience.checkpoint_read", [&] {
                           back = resilience::readCheckpoint(ckpt_path);
                       }) *
                       1e3;
        out.check(resilience::stateFingerprint(back) == live,
                  "checkpoint read-back fingerprint differs from the live "
                  "state");
        std::remove(ckpt_path.c_str());
    }

    // ---- working set (computed) and the engine/floor comparison
    double mat_bytes = 0.0;
    double local_vec_bytes = 0.0;
    if (b.prefix.problem) {
        for (const parallel::Subdomain &sub : b.prefix.problem->subdomains) {
            mat_bytes += matrixBytes(sub.stiffness);
            local_vec_bytes += 2.0 * 24.0 *
                               static_cast<double>(sub.numLocalNodes());
        }
    } else {
        mat_bytes = matrixBytes(*global_k);
    }
    // u, u_prev, f, 1/m: four global DOF vectors per step.
    const double vec_bytes = 4.0 * 8.0 * static_cast<double>(u.size());
    const double ws_bytes = mat_bytes + vec_bytes + local_vec_bytes;
    const int ws_threads = b.engine.psmvp ? threads : 1;
    std::cout << std::setprecision(4) << "  working set per step (computed): "
              << ws_bytes / 1048576.0 << " MiB = matrix "
              << mat_bytes / 1048576.0 << " + vectors "
              << (vec_bytes + local_vec_bytes) / 1048576.0 << "; L2 "
              << host.l2Bytes / 1048576.0 << " MiB x " << ws_threads
              << " thread(s), LLC " << host.llcBytes / 1048576.0 << " MiB: "
              << cacheVerdict(ws_bytes,
                              static_cast<double>(host.l2Bytes) * ws_threads,
                              static_cast<double>(host.llcBytes))
              << "\n"
              << std::setprecision(6);

    out.e2e("throughput_per_s", "1/s", untraced_sps);
    out.e2e("latency_ms_p50", "ms", p50 / 1e3);
    out.e2e("setup_s", "s", setup_med);

    if (!opt.trace)
        return out;

    // ---- per-layer numbers (traced pass)
    const double flops = static_cast<double>(global_k->flopsPerMultiply());
    double floor_s = 0.0;
    {
        Tracer::Scope scope(tracer, "sparse.smvp_floor");
        floor_s = medianSeconds(
            [&] { global_k->multiply(u.data(), y.data()); }, 0.3);
    }
    double engine_multiply_s = 0.0;
    if (b.engine.psmvp) {
        Tracer::Scope scope(tracer, "engine.multiply_probe");
        engine_multiply_s = medianSeconds(
            [&] { b.engine.psmvp->multiplyInto(u, y); }, 0.3);
    }

    double c_max = 0, b_max = 0, e_measured = 0, tc_ns = 0;
    double local_share = 0, exchange_share = 0, spin_share = 0,
           pool_share = 0, exchange_bytes = 0;
    if (b.engine.psmvp) {
        Tracer::Scope scope(tracer, "parallel.characterize");
        const core::SmvpCharacterization ch = parallel::characterize(
            *b.prefix.problem, std::string(spec.name));
        const core::CharacterizationSummary sum = core::summarize(ch);
        c_max = static_cast<double>(sum.wordsMax);
        b_max = static_cast<double>(sum.blocksMax);
        telemetry::ModelReportInputs inputs;
        inputs.shape = core::SmvpShape::fromSummary(sum);
        for (const core::PeLoad &pe : ch.pes) {
            inputs.totalFlops += static_cast<double>(pe.flops);
            inputs.totalWords += static_cast<double>(pe.words);
        }
        const telemetry::ModelValidation v =
            telemetry::validateModel(collector, inputs);
        e_measured = v.measuredE;
        tc_ns = v.measuredTc * 1e9;
        const double local = static_cast<double>(
            collector.mergedHistogram(telemetry::Hist::kLocalPhaseNanos)
                .sum());
        const double exch = static_cast<double>(
            collector.mergedHistogram(telemetry::Hist::kExchangeNanos).sum());
        const double spin = static_cast<double>(
            collector.counterTotal(telemetry::Counter::kAcquireSpinNanos));
        const double pool = static_cast<double>(
            collector.counterTotal(telemetry::Counter::kWorkerWaitNanos));
        const double worker = local + exch + pool;
        if (worker > 0) {
            local_share = local / worker;
            exchange_share = exch / worker;
            spin_share = spin / worker;
            pool_share = pool / worker;
        }
        exchange_bytes =
            static_cast<double>(b.engine.psmvp->remoteExchangeBytes() +
                                b.engine.psmvp->localExchangeBytes());
    }

    const double traced_sps = quietSpeed(tw).perSecond;
    std::vector<double> writes = ckpt_write_ms;
    const double write_p50 = median(writes);

    out.layer("mesh.generate_s", "s", b.meshS);
    out.layer("mesh.nodes", "count", static_cast<double>(m.numNodes()));
    out.layer("partition.bisect_s", "s", b.partitionS);
    out.layer("partition.c_max_words", "count", c_max);
    out.layer("partition.b_max_blocks", "count", b_max);
    out.layer("parallel.distribute_s", "s", b.distributeS);
    out.layer("sparse.assemble_s", "s", assemble_s);
    out.layer("sparse.smvp_us", "us", floor_s * 1e6);
    out.layer("sparse.tf_ns", "ns", floor_s / flops * 1e9);
    out.layer("sparse.bytes_per_flop_computed", "B/flop",
              (matrixBytes(*global_k) + 2.0 * 8.0 * u.size()) / flops);
    out.layer("quake.bytes_per_step_computed", "bytes", ws_bytes);
    out.layer("engine.build_s", "s", b.engineS);
    out.layer("engine.multiply_us", "us", engine_multiply_s * 1e6);
    out.layer("engine.local_phase_share", "ratio", local_share);
    out.layer("engine.exchange_phase_share", "ratio", exchange_share);
    out.layer("engine.spin_wait_share", "ratio", spin_share);
    out.layer("engine.pool_wait_share", "ratio", pool_share);
    out.layer("engine.E_measured", "ratio", e_measured);
    out.layer("engine.tc_ns_per_word", "ns/word", tc_ns);
    out.layer("engine.exchange_bytes_per_step", "bytes", exchange_bytes);
    out.layer("quake.step_self_us", "us", tele_step_self_us);
    out.layer("resilience.ckpt_write_ms_p50", "ms", write_p50);
    out.layer("resilience.ckpt_bytes", "bytes",
              static_cast<double>(ckpt_bytes));
    out.layer("resilience.ckpt_read_ms", "ms", ckpt_read_ms);
    out.layer("trace.overhead_frac", "ratio",
              (untraced_sps - traced_sps) / untraced_sps);
    out.layer("trace.coverage", "ratio", tracer.coverage());

    tracer.printSelfTimes(std::cout);
    const std::string trace_path =
        opt.workDir + "/trace-" + spec.name + ".json";
    if (tracer.writeChromeTrace(trace_path))
        std::cout << "  wrote Chrome trace " << trace_path << "\n";
    return out;
}

} // namespace perfbench

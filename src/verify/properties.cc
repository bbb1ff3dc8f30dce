#include "verify/properties.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "arch/cosim.h"
#include "common/error.h"
#include "parallel/distributor.h"
#include "parallel/event_sim.h"
#include "parallel/parallel_smvp.h"
#include "parallel/reliable_exchange.h"
#include "parallel/worker_pool.h"
#include "quake/simulation.h"
#include "common/rng.h"
#include "resilience/checkpoint.h"
#include "service/service.h"
#include "spark/kernels.h"
#include "sparse/assembly.h"
#include "sparse/bcsr3_sym.h"
#include "sparse/sliced_ell3.h"
#include "telemetry/collector.h"
#include "verify/oracles.h"
#include "verify/ulp.h"

namespace quake::verify
{

namespace
{

// The differential acceptance bounds (DESIGN.md §10): kernels that
// reorder floating-point sums may drift a few thousand ULPs on
// cancellation-prone elements; anything beyond this is a bug, not
// rounding.
constexpr std::int64_t kUlpBound = 4096;
constexpr double kRelEps = 1e-11;

PropertyResult ok() { return PropertyResult::ok(); }

PropertyResult
fail(const std::string &why)
{
    return PropertyResult::fail(why);
}

/** Exact bit-pattern equality of two doubles (NaN-safe, +0 != -0). */
bool
bitEq(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Scalar analogue of the mixed criterion for reduced values. */
bool
scalarClose(double expected, double actual)
{
    if (ulpDistance(expected, actual) <= kUlpBound)
        return true;
    return std::fabs(expected - actual) <= kRelEps * std::fabs(expected);
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        s += a[i] * b[i];
    return s;
}

double
normInf(const std::vector<double> &v)
{
    double m = 0.0;
    for (double x : v)
        m = std::max(m, std::fabs(x));
    return m;
}

/** FNV-1a over raw bytes, for the determinism fingerprint. */
std::uint64_t
hashBytes(const void *p, std::size_t n, std::uint64_t h)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i)
    {
        h ^= b[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
hashVec(const std::vector<double> &v, std::uint64_t h)
{
    return hashBytes(v.data(), v.size() * sizeof(double), h);
}

/** The step-update fixture shared by the fused/engine properties. */
struct StepFixture
{
    std::vector<double> u;
    std::vector<double> up0;
    std::vector<double> f;
    std::vector<double> invMass;
    double dt = 0.0;
    double a0 = 0.0;

    static StepFixture
    make(InputGen &gen, std::int64_t n, const std::vector<double> &mass,
         double dt)
    {
        StepFixture fx;
        fx.u = gen.randomVector(n);
        fx.up0 = gen.randomVector(n);
        fx.f = gen.randomVector(n);
        fx.invMass.resize(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < n; ++i)
            fx.invMass[static_cast<std::size_t>(i)] =
                1.0 / mass[static_cast<std::size_t>(i)];
        fx.dt = dt;
        fx.a0 = gen.rng().nextBounded(2) == 0
                    ? gen.rng().uniform(0.0, 0.5)
                    : 0.0;
        return fx;
    }

    sparse::StepUpdate
    su(double *up) const
    {
        sparse::StepUpdate s;
        s.u = u.data();
        s.up = up;
        s.f = f.data();
        s.invMass = invMass.data();
        s.dt = dt;
        s.dt2 = dt * dt;
        s.prevCoeff = 1.0 - a0 * dt / 2.0;
        s.denom = 1.0 + a0 * dt / 2.0;
        return s;
    }
};

// ---------------------------------------------------------------------------
// Property: every kernel in the suite vs reference CSR, and each one
// bitwise reproducible call over call.
// ---------------------------------------------------------------------------

PropertyResult
propKernelDifferential(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const spark::KernelSuite suite(sys.mesh, *sys.model);
    const std::vector<double> x = gen.randomVector(suite.dof());
    const std::vector<double> ref = suite.run(spark::Kernel::kCsr, x);

    for (spark::Kernel k : spark::kAllKernels)
    {
        const std::vector<double> y = suite.run(k, x);
        std::string why;
        if (!withinMixedTolerance(ref, y, kUlpBound, kRelEps, &why))
            return fail("kernel " + spark::kernelName(k) +
                        " vs CSR: " + why);
        // The SIMD dispatch is fixed per process, so a second call must
        // reproduce the first bit for bit.
        if (!bitwiseEqual(y, suite.run(k, x)))
            return fail("kernel " + spark::kernelName(k) +
                        " not bitwise deterministic call over call");
    }
    return ok();
}

// ---------------------------------------------------------------------------
// Property: random SPD block matrices (no mesh in the loop) through the
// full and symmetric block storage paths.
// ---------------------------------------------------------------------------

PropertyResult
propSpdBlockDifferential(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    const std::int64_t n =
        6 + 20 * cfg.size +
        static_cast<std::int64_t>(gen.rng().nextBounded(11));
    const sparse::Bcsr3Matrix a = gen.randomSpdBcsr3(n);
    const std::vector<double> x = gen.randomVector(a.numRows());
    const std::vector<double> ref = a.toCsr().multiply(x);

    const std::vector<double> yb = a.multiply(x);
    std::string why;
    if (!withinMixedTolerance(ref, yb, kUlpBound, kRelEps, &why))
        return fail("bcsr3 vs expanded csr: " + why);

    // The generator mirrors off-diagonal blocks as exact transposes, so
    // zero-tolerance symmetric compression must accept the matrix.
    const sparse::SymBcsr3Matrix s = sparse::SymBcsr3Matrix::fromBcsr3(a);
    const std::vector<double> ys = s.multiply(x);
    if (!withinMixedTolerance(ref, ys, kUlpBound, kRelEps, &why))
        return fail("sym bcsr3 vs csr: " + why);
    return ok();
}

// ---------------------------------------------------------------------------
// Property: fused step == unfused SMVP + reference triad, bitwise, on
// the serial BCSR3 sweep and the pooled kernel.
// ---------------------------------------------------------------------------

PropertyResult
propFusedVsUnfused(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const sparse::Bcsr3Matrix &a = sys.stiffness;
    const std::int64_t n = a.numRows();
    const StepFixture fx = StepFixture::make(gen, n, sys.lumpedMass, sys.dt);

    // Unfused reference: materialized ku + the reference triad.
    const std::vector<double> ku = a.multiply(fx.u);
    std::vector<double> upRef = fx.up0;
    sparse::StepPartials pRef;
    sparse::applyStepUpdateRange(fx.su(upRef.data()), ku.data(), 0, n, pRef);

    // Serial fused full-BCSR sweep: same ascending row order, so the
    // displacement AND both partials must match bit for bit.
    std::vector<double> upF = fx.up0;
    const sparse::StepPartials pF = a.multiplyFusedStep(fx.su(upF.data()));
    if (!bitwiseEqual(upRef, upF))
        return fail("bcsr3 fused u_{n+1} != unfused bitwise");
    if (!bitEq(pRef.peak, pF.peak) || !bitEq(pRef.energy, pF.energy))
        return fail("bcsr3 fused partials != unfused bitwise");

    // Pooled fused kernel: fixed 64-chunk grid, so u and partials are
    // identical across thread counts; u also matches the unfused
    // reference bitwise, while the chunk-grouped energy only has to be
    // ULP-close to the serial triad's.
    bool first = true;
    sparse::StepPartials pFirst;
    for (int t : cfg.threads)
    {
        parallel::WorkerPool pool(t);
        const spark::FusedStepKernel kern(a, pool);
        std::vector<double> upT = fx.up0;
        const sparse::StepPartials pT = kern.step(fx.su(upT.data()));
        if (!bitwiseEqual(upRef, upT))
            return fail("FusedStepKernel u_{n+1} != unfused bitwise at " +
                        std::to_string(t) + " threads");
        if (first)
        {
            pFirst = pT;
            first = false;
        }
        else if (!bitEq(pFirst.peak, pT.peak) ||
                 !bitEq(pFirst.energy, pT.energy))
        {
            return fail("FusedStepKernel partials vary with thread count");
        }
        if (!bitEq(pRef.peak, pT.peak))
            return fail("FusedStepKernel peak != reference");
        if (!scalarClose(pRef.energy, pT.energy))
            return fail("FusedStepKernel energy drifted from reference");
    }
    return ok();
}

// ---------------------------------------------------------------------------
// Property: the distributed engine is invariant across its execution
// knobs.  For each kernel backend it is bitwise equal to its own
// 1-thread barrier reference at every configured thread count and with
// workers pinned — one per CPU of the affinity mask, and to a CPU that
// cannot exist, so every pin takes the advisory-failure fallback — in
// both exchange modes; multiplyInto equals multiply; stepFused equals
// the reference's multiply + the reference triad, with partials stable
// across configs.
// Each reference is ULP-close to the global assembly, and the two
// backends agree within the mixed oracle (FMA contraction on the AVX2
// ELL path is their only legal difference).
// ---------------------------------------------------------------------------

PropertyResult
propEngineInvariance(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const int parts = gen.randomPartCount(sys.mesh);
    const partition::Partition part = gen.randomPartition(sys.mesh, parts);
    const parallel::DistributedProblem problem =
        parallel::distribute(sys.mesh, *sys.model, part);
    const std::int64_t n = 3 * problem.numGlobalNodes;

    const std::vector<double> x = gen.randomVector(n);
    const std::vector<double> refGlobal = sys.stiffness.multiply(x);
    StepFixture fx = StepFixture::make(gen, n, sys.lumpedMass, sys.dt);
    fx.u = x; // the fused step's x is the multiply's x

    // Unpinned at each configured thread count, then 4 workers pinned
    // to real and to bogus CPUs (workers cap at the PE count on small
    // partitions — also under test).
    struct Config
    {
        std::string label;
        int threads;
        std::vector<int> pinCpus;
        bool bogusCpus;
    };
    std::vector<Config> configs;
    for (int t : cfg.threads)
        configs.push_back({std::to_string(t) + " threads", t, {}, false});
    configs.push_back({"4 pinned", 4, parallel::affinityCpus(), false});
    configs.push_back({"4 bogus-pin", 4, {1 << 20}, true});

    std::vector<std::vector<double>> yBackend;
    for (parallel::SmvpKernelBackend backend :
         {parallel::SmvpKernelBackend::kBcsr3,
          parallel::SmvpKernelBackend::kSlicedEll3})
    {
        const std::string bname =
            backend == parallel::SmvpKernelBackend::kBcsr3 ? "bcsr3"
                                                           : "ell";
        const parallel::ParallelSmvp ref(
            problem, 1, parallel::ExchangeMode::kBarrier, backend);
        const std::vector<double> yRef = ref.multiply(x);
        std::string why;
        if (!withinMixedTolerance(refGlobal, yRef, kUlpBound, kRelEps,
                                  &why))
            return fail(bname + " engine vs global assembly: " + why);
        std::vector<double> upRef = fx.up0;
        sparse::StepPartials pRef;
        sparse::applyStepUpdateRange(fx.su(upRef.data()), yRef.data(), 0,
                                     n, pRef);

        bool first = true;
        sparse::StepPartials pFirst;
        for (parallel::ExchangeMode mode :
             {parallel::ExchangeMode::kBarrier,
              parallel::ExchangeMode::kOverlapped})
        {
            for (const Config &c : configs)
            {
                const parallel::ParallelSmvp engine(
                    problem, c.threads, mode, backend, c.pinCpus);
                const std::string label =
                    " (" + bname +
                    (mode == parallel::ExchangeMode::kBarrier
                         ? " barrier "
                         : " overlapped ") +
                    c.label + ")";

                if (engine.numThreads() < 1 ||
                    engine.numThreads() > problem.numPes())
                    return fail("thread count out of range" + label);
                // Worker 0 is the caller's thread and never pins.
                if (c.bogusCpus &&
                    engine.pinFailures() != engine.numThreads() - 1)
                    return fail("bogus-CPU pins: " +
                                std::to_string(engine.pinFailures()) +
                                " failures for " +
                                std::to_string(engine.numThreads() - 1) +
                                " pool threads" + label);

                if (!bitwiseEqual(yRef, engine.multiply(x)))
                    return fail("engine multiply != reference" + label);
                std::vector<double> y2(static_cast<std::size_t>(n));
                engine.multiplyInto(x.data(), y2.data());
                if (!bitwiseEqual(yRef, y2))
                    return fail("multiplyInto != reference" + label);

                std::vector<double> upT = fx.up0;
                const sparse::StepPartials pT =
                    engine.stepFused(fx.su(upT.data()));
                if (!bitwiseEqual(upRef, upT))
                    return fail("stepFused u_{n+1} != multiply + triad" +
                                label);
                if (first)
                {
                    pFirst = pT;
                    first = false;
                }
                else if (!bitEq(pFirst.peak, pT.peak) ||
                         !bitEq(pFirst.energy, pT.energy))
                {
                    return fail("stepFused partials vary across configs" +
                                label);
                }
                if (!bitEq(pRef.peak, pT.peak))
                    return fail("stepFused peak != reference triad peak" +
                                label);
                if (!scalarClose(pRef.energy, pT.energy))
                    return fail("stepFused energy drifted from reference" +
                                label);
            }
        }
        yBackend.push_back(yRef);
    }

    std::string why;
    if (!withinMixedTolerance(yBackend[0], yBackend[1], kUlpBound, kRelEps,
                              &why))
        return fail("ELL backend vs BCSR3 backend: " + why);
    return ok();
}

// ---------------------------------------------------------------------------
// Property: K is symmetric as a bilinear form, x^T K y == y^T K x.
// ---------------------------------------------------------------------------

PropertyResult
propSymmetryBilinear(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    sparse::Bcsr3Matrix a;
    if (gen.rng().nextBounded(2) == 0)
    {
        GeneratedSystem sys = gen.randomSystem();
        a = std::move(sys.stiffness);
    }
    else
    {
        a = gen.randomSpdBcsr3(
            6 + 20 * cfg.size +
            static_cast<std::int64_t>(gen.rng().nextBounded(11)));
    }
    const std::vector<double> x = gen.randomVector(a.numRows());
    const std::vector<double> y = gen.randomVector(a.numRows());
    const std::vector<double> kx = a.multiply(x);
    const std::vector<double> ky = a.multiply(y);
    const double s1 = dot(x, ky);
    const double s2 = dot(y, kx);
    // The two sides cancel differently; bound the gap by the terms'
    // magnitude, not the (possibly tiny) result.
    const double scale = normInf(x) * normInf(ky) +
                         normInf(y) * normInf(kx) + 1.0;
    const double tol =
        1e-12 * scale * static_cast<double>(a.numRows());
    if (std::fabs(s1 - s2) > tol)
    {
        std::ostringstream os;
        os.precision(17);
        os << "x'Ky = " << s1 << " vs y'Kx = " << s2 << " (tol " << tol
           << ")";
        return fail(os.str());
    }
    return ok();
}

// ---------------------------------------------------------------------------
// Property: the whole pipeline is a pure function of the seed.
// ---------------------------------------------------------------------------

std::uint64_t
pipelineFingerprint(const TrialConfig &cfg)
{
    std::uint64_t h = 1469598103934665603ULL;
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    h = hashBytes(sys.mesh.nodes().data(),
                  sys.mesh.nodes().size() * sizeof(mesh::Vec3), h);

    const spark::KernelSuite suite(sys.mesh, *sys.model);
    const std::vector<double> x = gen.randomVector(suite.dof());
    h = hashVec(x, h);
    for (spark::Kernel k : spark::kAllKernels)
        h = hashVec(suite.run(k, x), h);

    const int parts = gen.randomPartCount(sys.mesh);
    const partition::Partition part = gen.randomPartition(sys.mesh, parts);
    const parallel::DistributedProblem problem =
        parallel::distribute(sys.mesh, *sys.model, part);
    const parallel::ParallelSmvp engine(problem, 2);
    const std::vector<double> xg =
        gen.randomVector(3 * problem.numGlobalNodes);
    h = hashVec(engine.multiply(xg), h);

    const int pes = 2 + static_cast<int>(gen.rng().nextBounded(
                            static_cast<std::uint64_t>(2 + 2 * cfg.size)));
    const parallel::CommSchedule sched = gen.randomSchedule(pes);
    const parallel::MachineModel machine = gen.randomMachine();
    parallel::ReliableExchangeOptions opts;
    opts.faults = gen.randomFaultSpec();
    const parallel::ReliableExchangeResult r =
        parallel::simulateReliableExchange(sched, machine, opts);
    h = hashBytes(&r.tComm, sizeof(r.tComm), h);
    h = hashBytes(&r.tProtocolQuiesce, sizeof(r.tProtocolQuiesce), h);
    h = hashBytes(&r.dataSent, sizeof(r.dataSent), h);
    h = hashBytes(&r.retransmissions, sizeof(r.retransmissions), h);
    h = hashVec(r.peFinishTime, h);
    return h;
}

PropertyResult
propDeterminismRerun(const TrialConfig &cfg)
{
    const std::uint64_t h1 = pipelineFingerprint(cfg);
    const std::uint64_t h2 = pipelineFingerprint(cfg);
    if (h1 != h2)
    {
        std::ostringstream os;
        os << "pipeline fingerprint changed between reruns: " << std::hex
           << h1 << " vs " << h2;
        return fail(os.str());
    }
    return ok();
}

// ---------------------------------------------------------------------------
// Property: the reliable exchange with a fault-free spec reproduces the
// ideal simulator's timeline bit for bit.
// ---------------------------------------------------------------------------

PropertyResult
propExchangeFaultFree(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    const int pes = 2 + static_cast<int>(gen.rng().nextBounded(
                            static_cast<std::uint64_t>(2 + 2 * cfg.size)));
    const parallel::CommSchedule sched = gen.randomSchedule(pes);
    const parallel::MachineModel machine = gen.randomMachine();
    const double wire = gen.rng().uniform(0.0, 1e-5);
    const bool duplex = gen.rng().nextBounded(2) == 0;

    parallel::EventSimOptions base_opts;
    base_opts.wireLatency = wire;
    base_opts.fullDuplex = duplex;
    const parallel::EventSimResult base =
        parallel::simulateExchange(sched, machine, base_opts);

    parallel::ReliableExchangeOptions rel_opts;
    rel_opts.wireLatency = wire;
    rel_opts.fullDuplex = duplex; // faults default to the all-zero spec
    const parallel::ReliableExchangeResult rel =
        parallel::simulateReliableExchange(sched, machine, rel_opts);

    if (!bitwiseEqual(base.peFinishTime, rel.peFinishTime))
        return fail("fault-free per-PE finish times != ideal baseline");
    if (!bitEq(base.tComm, rel.tComm))
        return fail("fault-free tComm != ideal baseline");
    if (!bitEq(base.totalIdle, rel.totalIdle))
        return fail("fault-free totalIdle != ideal baseline");
    if (base.criticalPe != rel.criticalPe)
        return fail("fault-free critical PE != ideal baseline");
    if (rel.dataSent != base.messagesSent)
        return fail("fault-free protocol sent extra data messages");
    if (rel.retransmissions != 0 || rel.timeoutsFired != 0 ||
        rel.dataDropped != 0 || rel.duplicatesDelivered != 0 ||
        rel.acksDropped != 0)
        return fail("fault-free run reported protocol activity");
    if (rel.degraded || !rel.lostExchanges.empty() || rel.staleWords != 0)
        return fail("fault-free run reported degradation");
    return ok();
}

// ---------------------------------------------------------------------------
// Property: under random faults the protocol is rerun-deterministic and
// its counters satisfy the conservation identities.
// ---------------------------------------------------------------------------

PropertyResult
propExchangeFaulty(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    const int pes = 2 + static_cast<int>(gen.rng().nextBounded(
                            static_cast<std::uint64_t>(2 + 2 * cfg.size)));
    const parallel::CommSchedule sched = gen.randomSchedule(pes);
    const parallel::MachineModel machine = gen.randomMachine();

    parallel::ReliableExchangeOptions opts;
    opts.wireLatency = gen.rng().uniform(0.0, 1e-5);
    opts.fullDuplex = gen.rng().nextBounded(2) == 0;
    opts.faults = gen.randomFaultSpec();
    opts.maxRetries = 1 + static_cast<int>(gen.rng().nextBounded(8));

    const parallel::ReliableExchangeResult r1 =
        parallel::simulateReliableExchange(sched, machine, opts);
    const parallel::ReliableExchangeResult r2 =
        parallel::simulateReliableExchange(sched, machine, opts);

    if (!bitwiseEqual(r1.peFinishTime, r2.peFinishTime) ||
        !bitEq(r1.tComm, r2.tComm) ||
        !bitEq(r1.tProtocolQuiesce, r2.tProtocolQuiesce) ||
        r1.dataSent != r2.dataSent || r1.dataDropped != r2.dataDropped ||
        r1.dataDelivered != r2.dataDelivered ||
        r1.retransmissions != r2.retransmissions ||
        r1.timeoutsFired != r2.timeoutsFired ||
        r1.staleWords != r2.staleWords)
        return fail("faulty run not deterministic across reruns");

    // Conservation: every transmission is either dropped or delivered;
    // network duplication delivers copies that were never sent.
    if (r1.dataSent != r1.dataDropped + r1.dataDelivered -
                           r1.duplicatesDelivered)
    {
        std::ostringstream os;
        os << "counter identity violated: sent " << r1.dataSent
           << " != dropped " << r1.dataDropped << " + delivered "
           << r1.dataDelivered << " - duplicates "
           << r1.duplicatesDelivered;
        return fail(os.str());
    }
    if (r1.tProtocolQuiesce < r1.tComm)
        return fail("protocol quiesced before the data links went idle");
    if (r1.staleFraction < 0.0 || r1.staleFraction > 1.0)
        return fail("staleFraction outside [0, 1]");
    if (!r1.degraded && (r1.staleWords != 0 || !r1.lostExchanges.empty()))
        return fail("undegraded run reported losses");
    if (r1.degraded && r1.staleWords == 0 && r1.lostExchanges.empty())
        return fail("degraded run with no losses recorded");
    if (static_cast<int>(r1.peFinishTime.size()) != pes)
        return fail("per-PE finish times have the wrong length");
    for (double tpe : r1.peFinishTime)
        if (!(tpe >= 0.0) || !std::isfinite(tpe))
            return fail("non-finite or negative PE finish time");
    return ok();
}

// ---------------------------------------------------------------------------
// Property: invalid parameters are rejected with FatalError (never UB,
// never a hang) at every validated entry point.
// ---------------------------------------------------------------------------

PropertyResult
expectFatal(const char *what, const std::function<void()> &fn)
{
    try
    {
        fn();
    }
    catch (const common::FatalError &)
    {
        return ok();
    }
    catch (const std::exception &e)
    {
        return fail(std::string(what) +
                    ": wrong exception type: " + e.what());
    }
    return fail(std::string(what) + ": accepted invalid input");
}

PropertyResult
propRejectInvalid(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    const mesh::UniformModel model(
        mesh::Aabb{{0.0, 0.0, 0.0}, {4.0, 4.0, 4.0}}, 1.0);

    const auto badSpec = [](auto mutate) {
        mesh::MeshSpec spec;
        spec.coarseNx = 1;
        spec.coarseNy = 1;
        spec.coarseNz = 1;
        mutate(spec);
        return spec;
    };

    struct Case
    {
        const char *what;
        std::function<void()> fn;
    };
    const Case cases[] = {
        {"zero wave period",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.periodSeconds = 0.0;
                                }));
         }},
        {"negative hScale",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.hScale = -1.0;
                                }));
         }},
        {"NaN points per wavelength",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.pointsPerWavelength =
                                        std::nan("");
                                }));
         }},
        {"zero coarse lattice dimension",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.coarseNx = 0;
                                }));
         }},
        {"coarse lattice overflowing node ids",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.coarseNx = 5000;
                                    s.coarseNy = 5000;
                                    s.coarseNz = 5000;
                                }));
         }},
        {"jitter fraction >= 1",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.jitterFraction = 1.5;
                                }));
         }},
        {"non-positive hMin",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.hMin = 0.0;
                                }));
         }},
        {"zero refinement element cap",
         [&] {
             mesh::generateMesh(model, badSpec([](mesh::MeshSpec &s) {
                                    s.refine.maxElements = 0;
                                }));
         }},
        {"zero-extent domain (zero elements)",
         [&] {
             const mesh::UniformModel flat(
                 mesh::Aabb{{0.0, 0.0, 0.0}, {4.0, 4.0, 0.0}}, 1.0);
             mesh::generateMesh(flat, badSpec([](mesh::MeshSpec &) {}));
         }},
        {"asymmetric comm schedule",
         [&] {
             std::vector<parallel::PeSchedule> pes(2);
             parallel::Exchange e;
             e.peer = 1;
             e.nodes = {0, 1};
             pes[0].exchanges.push_back(e); // PE 1 never reciprocates
             parallel::CommSchedule::fromPeSchedules(std::move(pes));
         }},
        {"fault probability > 1",
         [&] {
             parallel::FaultSpec spec;
             spec.dropProbability = 1.5;
             spec.validate();
         }},
        {"NaN fault probability",
         [&] {
             parallel::FaultSpec spec;
             spec.dropProbability = std::nan("");
             spec.validate();
         }},
        {"degraded bandwidth factor < 1",
         [&] {
             parallel::FaultSpec spec;
             spec.degradedLinkProbability = 0.5;
             spec.degradedBandwidthFactor = 0.25;
             spec.validate();
         }},
        {"backoff factor < 1",
         [&] {
             parallel::ReliableExchangeOptions opts;
             opts.backoffFactor = 0.5;
             opts.validate();
         }},
        {"negative retry budget",
         [&] {
             parallel::ReliableExchangeOptions opts;
             opts.maxRetries = -1;
             opts.validate();
         }},
        {"non-positive machine rate",
         [&] { parallel::customMachine("bad", -1.0, 1e-6, 1e8); }},
        {"sliver mesh with zero elements",
         [&] { InputGen::sliverMesh(0, 0.1); }},
        {"negative simulation duration",
         [&] {
             sim::SimulationConfig config;
             config.durationSeconds = -5.0;
             config.validate();
         }},
        {"zero PEs",
         [&] {
             sim::SimulationConfig config;
             config.numPes = 0;
             config.validate();
         }},
        {"negative SMVP threads",
         [&] {
             sim::SimulationConfig config;
             config.smvpThreads = -2;
             config.validate();
         }},
        {"negative sample interval",
         [&] {
             sim::SimulationConfig config;
             config.sampleInterval = -1;
             config.validate();
         }},
    };
    for (const Case &c : cases)
    {
        const PropertyResult r = expectFatal(c.what, c.fn);
        if (!r.pass)
            return r;
    }

    // And the positive side: the seeded generators must only produce
    // inputs every validated entry point accepts — in particular no
    // empty partition parts even at extreme part counts.
    GeneratedSystem sys = gen.randomSystem();
    const auto parts = static_cast<int>(
        std::min<std::int64_t>(sys.mesh.numElements(), 9));
    const partition::Partition part = gen.randomPartition(sys.mesh, parts);
    std::vector<std::int64_t> sizes = part.partSizes();
    if (std::find(sizes.begin(), sizes.end(), 0) != sizes.end())
        return fail("randomPartition produced an empty part");
    return ok();
}

// ---------------------------------------------------------------------------
// Property: adversarial meshes (single element, slivers, disconnected
// graphs, pathological grading) survive assembly, every kernel, and
// the distributed engine.
// ---------------------------------------------------------------------------

PropertyResult
propAdversarialMeshes(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    std::vector<std::pair<std::string, mesh::TetMesh>> meshes;
    meshes.emplace_back("single-element", InputGen::singleElementMesh());
    meshes.emplace_back("sliver-fan",
                        InputGen::sliverMesh(3 + cfg.size, 1e-4));
    meshes.emplace_back("disconnected",
                        InputGen::disconnectedMesh(2 + cfg.size));
    meshes.emplace_back("graded-collapse", gen.pathologicalGradedMesh());

    for (auto &[name, m] : meshes)
    {
        GeneratedSystem sys = gen.systemFromMesh(std::move(m));
        spark::KernelSuite suite(sys.mesh, *sys.model);
        const std::vector<double> x = gen.randomVector(suite.dof());
        const std::vector<double> ref = suite.run(spark::Kernel::kCsr, x);
        for (spark::Kernel k : spark::kAllKernels)
        {
            std::string why;
            if (!withinMixedTolerance(ref, suite.run(k, x), kUlpBound,
                                      kRelEps, &why))
                return fail(name + ": kernel " + spark::kernelName(k) +
                            ": " + why);
        }

        if (sys.mesh.numElements() < 2)
            continue;
        const auto parts = static_cast<int>(std::min<std::int64_t>(
            2 + cfg.size, sys.mesh.numElements()));
        const partition::Partition part =
            gen.randomPartition(sys.mesh, parts);
        const parallel::DistributedProblem problem =
            parallel::distribute(sys.mesh, *sys.model, part);
        const std::vector<double> xg =
            gen.randomVector(3 * problem.numGlobalNodes);
        const std::vector<double> refG = sys.stiffness.multiply(xg);
        std::vector<double> yFirst;
        for (parallel::ExchangeMode mode :
             {parallel::ExchangeMode::kBarrier,
              parallel::ExchangeMode::kOverlapped})
            for (int t : {1, 4})
            {
                const parallel::ParallelSmvp engine(problem, t, mode);
                const std::vector<double> y = engine.multiply(xg);
                if (yFirst.empty())
                {
                    std::string why;
                    if (!withinMixedTolerance(refG, y, kUlpBound, kRelEps,
                                              &why))
                        return fail(name + ": engine vs global: " + why);
                    yFirst = y;
                }
                else if (!bitwiseEqual(yFirst, y))
                {
                    return fail(name +
                                ": engine multiply varies across configs");
                }
            }
    }
    return ok();
}

// ---------------------------------------------------------------------------
// Property: telemetry is observation-only — tracing on vs off is
// bitwise identical, and the traced steady state allocates nothing.
// ---------------------------------------------------------------------------

PropertyResult
propTelemetryTransparent(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const int parts = gen.randomPartCount(sys.mesh);
    const partition::Partition part = gen.randomPartition(sys.mesh, parts);
    const parallel::DistributedProblem problem =
        parallel::distribute(sys.mesh, *sys.model, part);
    const std::int64_t n = 3 * problem.numGlobalNodes;
    StepFixture fx = StepFixture::make(gen, n, sys.lumpedMass, sys.dt);
    const int steps = 6 + 2 * cfg.size;

    // Run the fused stepping loop; returns allocations observed after
    // the warm-up (or -1 when the host installed no counter).
    const auto runLoop = [&](telemetry::Collector *col,
                             std::vector<double> &u,
                             std::vector<double> &up) -> std::int64_t {
        parallel::ParallelSmvp engine(problem, 2);
        engine.setCollector(col); // also wires the worker pool
        u = fx.u;
        up = fx.up0;
        std::int64_t before = -1;
        sparse::StepUpdate su = fx.su(nullptr);
        for (int s = 0; s < steps; ++s)
        {
            if (col != nullptr)
                col->setStep(s);
            if (s == 2)
                before = allocationsNow();
            su.u = u.data();
            su.up = up.data();
            engine.stepFused(su);
            std::swap(u, up); // up held u_{n-1}; now holds u_{n+1}
        }
        const std::int64_t after = allocationsNow();
        return before >= 0 && after >= 0 ? after - before : -1;
    };

    std::vector<double> uOff;
    std::vector<double> upOff;
    runLoop(nullptr, uOff, upOff);

    telemetry::CollectorConfig cc;
    cc.enabled = true;
    cc.spanCapacity = 1 << 12;
    cc.sampleEvery = 1; // record fine-grained spans on every step
    telemetry::Collector col(cc);
    std::vector<double> uOn;
    std::vector<double> upOn;
    const std::int64_t allocs = runLoop(&col, uOn, upOn);

    if (!bitwiseEqual(uOff, uOn) || !bitwiseEqual(upOff, upOn))
        return fail("displacements differ with telemetry on vs off");
    if (allocs > 0)
        return fail("traced steady state allocated " +
                    std::to_string(allocs) + " times");
    if (col.counterTotal(telemetry::Counter::kSmvpCalls) !=
        static_cast<std::uint64_t>(steps))
        return fail("collector missed fused-step calls");
    return ok();
}

// ---------------------------------------------------------------------------
// Resilience properties (DESIGN.md §11): the checkpoint format round-trips
// bitwise and a killed-and-resumed run is bitwise identical to one that
// never stopped — including across execution-config changes (threads,
// exchange mode, fused/unfused), which the fingerprint deliberately
// excludes.
// ---------------------------------------------------------------------------

/** A small scenario config drawn from the trial's stream. */
sim::SimulationConfig
randomScenarioConfig(InputGen &gen, const mesh::TetMesh &m,
                     const TrialConfig &cfg)
{
    sim::SimulationConfig config;
    config.durationSeconds = 1.0;
    config.maxSteps = 6 + 3 * cfg.size;
    config.sampleInterval = 2;
    config.dampingA0 = gen.rng().nextBounded(2) == 0 ? 0.0 : 0.15;
    config.numPes = m.numElements() >= 2
                        ? 1 + static_cast<int>(gen.rng().nextBounded(3))
                        : 1;
    config.numPes = static_cast<int>(std::min<std::int64_t>(
        config.numPes, m.numElements()));
    config.smvpThreads = cfg.threads[gen.rng().nextBounded(
        static_cast<std::uint64_t>(cfg.threads.size()))];
    config.overlapSmvp = gen.rng().nextBounded(2) == 0;
    config.fusedStep = gen.rng().nextBounded(2) == 0;
    return config;
}

/** Re-draw only the execution knobs the fingerprint excludes. */
sim::SimulationConfig
reshuffleExecution(InputGen &gen, sim::SimulationConfig config,
                   const TrialConfig &cfg)
{
    config.smvpThreads = cfg.threads[gen.rng().nextBounded(
        static_cast<std::uint64_t>(cfg.threads.size()))];
    config.overlapSmvp = gen.rng().nextBounded(2) == 0;
    config.fusedStep = gen.rng().nextBounded(2) == 0;
    return config;
}

/**
 * Bitwise equality of two checkpoints.  `strictEnergy` relaxes only the
 * kinetic-energy fields to the mixed tolerance: energy is a cross-DOF
 * sum whose order is bitwise-pinned across threads and exchange modes
 * but differs between the fused and unfused backends (DESIGN.md §8), so
 * a resume that flips fusedStep legally drifts those bits.
 */
bool
checkpointsBitwiseEqual(const resilience::Checkpoint &a,
                        const resilience::Checkpoint &b, std::string *why,
                        bool strictEnergy = true)
{
    const auto energyEq = [&](double x, double y) {
        return strictEnergy ? bitEq(x, y) : scalarClose(x, y);
    };
    if (a.fingerprint != b.fingerprint) { *why = "fingerprint"; return false; }
    if (!bitEq(a.dt, b.dt)) { *why = "dt"; return false; }
    if (a.plannedSteps != b.plannedSteps) { *why = "plannedSteps"; return false; }
    if (a.state.steps != b.state.steps) { *why = "steps"; return false; }
    if (!bitwiseEqual(a.state.u, b.state.u)) { *why = "u"; return false; }
    if (!bitwiseEqual(a.state.up, b.state.up)) { *why = "u_prev"; return false; }
    if (!bitEq(a.state.partials.peak, b.state.partials.peak) ||
        !energyEq(a.state.partials.energy, b.state.partials.energy) ||
        a.state.statsValid != b.state.statsValid) {
        *why = "cached stats";
        return false;
    }
    if (!bitEq(a.reportPeak, b.reportPeak)) { *why = "reportPeak"; return false; }
    if (a.samples.size() != b.samples.size()) { *why = "sample count"; return false; }
    for (std::size_t i = 0; i < a.samples.size(); ++i)
        if (!bitEq(a.samples[i].time, b.samples[i].time) ||
            !bitEq(a.samples[i].peakDisplacement,
                   b.samples[i].peakDisplacement) ||
            !energyEq(a.samples[i].kineticEnergy,
                      b.samples[i].kineticEnergy)) {
            *why = "sample " + std::to_string(i);
            return false;
        }
    return true;
}

PropertyResult
propCheckpointRoundtrip(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const sim::SimulationConfig config =
        randomScenarioConfig(gen, sys.mesh, cfg);

    // Golden uninterrupted run.
    sim::SimulationEngine golden =
        sim::makeSimulationEngine(sys.mesh, *sys.model, config);
    sim::SimulationReport goldenReport;
    goldenReport.dt = golden.dt;
    sim::advanceSimulation(golden, config, goldenReport);

    // Checkpointed run: the loop's observer snapshots every k steps,
    // and each serialized image must parse back bitwise.
    const std::int64_t k =
        1 + static_cast<std::int64_t>(
                gen.rng().nextBounded(
                    static_cast<std::uint64_t>(golden.plannedSteps)));
    sim::SimulationEngine run =
        sim::makeSimulationEngine(sys.mesh, *sys.model, config);
    if (run.fingerprint != golden.fingerprint)
        return fail("fingerprint not deterministic across rebuilds");

    sim::SimulationReport report;
    report.dt = run.dt;
    std::vector<resilience::Checkpoint> taken;
    sim::advanceSimulation(run, config, report, [&](std::int64_t step) {
        if (step % k == 0)
            taken.push_back(resilience::snapshot(run, report));
    });
    if (taken.empty())
        return fail("no snapshot taken at interval " + std::to_string(k));
    for (const resilience::Checkpoint &c : taken) {
        std::string why;
        const resilience::Checkpoint back = resilience::parseCheckpoint(
            resilience::serializeCheckpoint(c), "in-memory");
        if (!checkpointsBitwiseEqual(c, back, &why))
            return fail("serialize/parse round trip lost " + why);
    }

    // The checkpointed run itself must be bitwise identical to golden —
    // snapshots are observation-only.
    std::string why;
    if (!checkpointsBitwiseEqual(resilience::snapshot(golden, goldenReport),
                                 resilience::snapshot(run, report), &why))
        return fail("checkpointing perturbed the run: " + why);

    // Any single corrupted byte must be refused.
    std::vector<std::uint8_t> bytes =
        resilience::serializeCheckpoint(taken.back());
    const std::size_t victim =
        gen.rng().nextBounded(static_cast<std::uint64_t>(bytes.size()));
    bytes[victim] ^= 0x40;
    try {
        (void)resilience::parseCheckpoint(bytes, "corrupted");
        return fail("accepted a checkpoint with byte " +
                    std::to_string(victim) + " flipped");
    } catch (const common::FatalError &) {
        // expected
    }

    // A fingerprint skew must be refused at resume time.
    sim::SimulationConfig skew = config;
    skew.dampingA0 = config.dampingA0 + 0.05;
    sim::SimulationEngine other =
        sim::makeSimulationEngine(sys.mesh, *sys.model, skew);
    try {
        resilience::requireCompatible(taken.back(), other);
        return fail("resumed against a mismatched fingerprint");
    } catch (const common::FatalError &) {
        // expected
    }
    return ok();
}

PropertyResult
propCheckpointKillResume(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const sim::SimulationConfig config =
        randomScenarioConfig(gen, sys.mesh, cfg);

    // Golden uninterrupted run.
    sim::SimulationEngine golden =
        sim::makeSimulationEngine(sys.mesh, *sys.model, config);
    sim::SimulationReport goldenReport;
    goldenReport.dt = golden.dt;
    sim::advanceSimulation(golden, config, goldenReport);

    // Crash run: checkpoint every k steps from the loop's observer,
    // then die at a random step >= k (an exception abandons the engine
    // the way SIGKILL abandons the process — the checkpoint is all that
    // survives).
    const std::int64_t k =
        1 + static_cast<std::int64_t>(gen.rng().nextBounded(
                static_cast<std::uint64_t>(golden.plannedSteps)));
    const std::int64_t die =
        k + static_cast<std::int64_t>(gen.rng().nextBounded(
                static_cast<std::uint64_t>(golden.plannedSteps - k + 1)));
    struct SimulatedCrash
    {
    };
    resilience::Checkpoint last;
    bool have = false;
    {
        sim::SimulationEngine run =
            sim::makeSimulationEngine(sys.mesh, *sys.model, config);
        sim::SimulationReport report;
        report.dt = run.dt;
        try {
            sim::advanceSimulation(
                run, config, report, [&](std::int64_t step) {
                    if (step % k == 0) {
                        last = resilience::snapshot(run, report);
                        have = true;
                    }
                    if (step >= die)
                        throw SimulatedCrash{};
                });
        } catch (const SimulatedCrash &) {
            // the "kill"
        }
    }
    if (!have)
        return fail("no checkpoint written before the crash at step " +
                    std::to_string(die));

    // Resume under a reshuffled execution config (threads / exchange
    // mode / fused are excluded from the fingerprint by contract).
    const sim::SimulationConfig resumeCfg =
        reshuffleExecution(gen, config, cfg);
    sim::SimulationEngine resumed =
        sim::makeSimulationEngine(sys.mesh, *sys.model, resumeCfg);
    sim::SimulationReport report;
    report.dt = resumed.dt;
    resilience::restore(last, resumed, report);
    sim::advanceSimulation(resumed, resumeCfg, report);

    std::string why;
    const bool strictEnergy = resumeCfg.fusedStep == config.fusedStep;
    if (!checkpointsBitwiseEqual(resilience::snapshot(golden, goldenReport),
                                 resilience::snapshot(resumed, report), &why,
                                 strictEnergy))
        return fail("resumed run diverged from golden at " + why +
                    " (checkpoint step " +
                    std::to_string(last.state.steps) + ", killed at " +
                    std::to_string(die) + ")");
    if (report.steps != goldenReport.steps)
        return fail("resumed run took a different step count");
    return ok();
}

// ---------------------------------------------------------------------------
// Sliced-ELLPACK properties (DESIGN.md §12): the conversion round-trips
// the BCSR3 structure exactly at every slice height (including the
// degenerate height 1), the multiply matches the CSR reference within
// the mixed oracle and is deterministic on a rerun, and the fused step
// is bitwise identical to multiply + the reference triad.
// ---------------------------------------------------------------------------

PropertyResult
propSlicedEll3Differential(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    GeneratedSystem sys = gen.randomSystem();
    const sparse::Bcsr3Matrix &a = sys.stiffness;
    const std::int64_t n = a.numRows();
    const std::vector<double> x = gen.randomVector(n);
    const std::vector<double> ref = a.toCsr().multiply(x);

    // Slice heights: degenerate 1 (one row per slice), a non-power-of-
    // two, and a random draw across the legal range.
    const std::int64_t heights[] = {
        1, 3,
        1 + static_cast<std::int64_t>(gen.rng().nextBounded(
                static_cast<std::uint64_t>(
                    sparse::SlicedEll3Matrix::kMaxSliceHeight)))};
    for (std::int64_t h : heights)
    {
        const sparse::SlicedEll3Matrix ell =
            sparse::SlicedEll3Matrix::fromBcsr3(a, h);
        ell.validate();
        if (!ell.identityRowMap() || ell.numCoveredRows() != a.numBlockRows())
            return fail("fromBcsr3 lost the identity row map at S=" +
                        std::to_string(h));
        if (ell.structuralBlocks() != a.numBlocks())
            return fail("structural block count changed at S=" +
                        std::to_string(h));
        if (ell.paddingRatio() < 1.0)
            return fail("padding ratio < 1 at S=" + std::to_string(h));

        // Round trip: every lane must replay its BCSR3 row — same
        // columns, bit-identical block values — and every slot past the
        // row's end must be the zero pad on column 0.
        const std::vector<std::int64_t> &xadj = a.xadj();
        const std::vector<std::int32_t> &cols = a.blockCols();
        for (std::int64_t s = 0; s < ell.numSlices(); ++s)
        {
            const std::int64_t width = ell.sliceWidth(s);
            for (std::int64_t lane = 0; lane < h; ++lane)
            {
                const std::int64_t r = ell.laneRow(s * h + lane);
                const std::int64_t len =
                    r >= 0 ? xadj[static_cast<std::size_t>(r) + 1] -
                                 xadj[static_cast<std::size_t>(r)]
                           : 0;
                for (std::int64_t j = 0; j < width; ++j)
                {
                    if (j < len)
                    {
                        const std::int64_t b =
                            xadj[static_cast<std::size_t>(r)] + j;
                        if (ell.colAt(s, j, lane) !=
                            cols[static_cast<std::size_t>(b)])
                            return fail("round trip: column mismatch at "
                                        "row " +
                                        std::to_string(r));
                        for (int e = 0; e < 9; ++e)
                            if (!bitEq(ell.valueAt(s, j, lane, e),
                                       a.blockAt(b)[e]))
                                return fail("round trip: value mismatch "
                                            "at row " +
                                            std::to_string(r));
                    }
                    else
                    {
                        if (ell.colAt(s, j, lane) != 0)
                            return fail("pad slot carries column != 0");
                        for (int e = 0; e < 9; ++e)
                            if (ell.valueAt(s, j, lane, e) != 0.0)
                                return fail("pad slot carries a nonzero "
                                            "value");
                    }
                }
            }
        }

        // Differential vs CSR, plus exact determinism on a rerun and
        // agreement between the pointer and vector entry points.
        const std::vector<double> y = ell.multiply(x);
        std::string why;
        if (!withinMixedTolerance(ref, y, kUlpBound, kRelEps, &why))
            return fail("sliced-ELL (S=" + std::to_string(h) +
                        ") vs CSR: " + why);
        if (!bitwiseEqual(y, ell.multiply(x)))
            return fail("sliced-ELL multiply not deterministic at S=" +
                        std::to_string(h));
        std::vector<double> yp(static_cast<std::size_t>(n), -1.0);
        ell.multiply(x.data(), yp.data());
        if (!bitwiseEqual(y, yp))
            return fail("pointer multiply != vector multiply at S=" +
                        std::to_string(h));
    }

    // Fused step == this backend's multiply + the reference triad,
    // bitwise (the fused sweep reuses the same slice kernel and applies
    // the triad in ascending row order).
    const sparse::SlicedEll3Matrix ell =
        sparse::SlicedEll3Matrix::fromBcsr3(a);
    const StepFixture fx = StepFixture::make(gen, n, sys.lumpedMass, sys.dt);
    const std::vector<double> ku = ell.multiply(fx.u);
    std::vector<double> upRef = fx.up0;
    sparse::StepPartials pRef;
    sparse::applyStepUpdateRange(fx.su(upRef.data()), ku.data(), 0, n, pRef);
    std::vector<double> upF = fx.up0;
    std::vector<double> scratch(static_cast<std::size_t>(n), 0.0);
    const sparse::StepPartials pF =
        ell.multiplyFusedStep(fx.su(upF.data()), scratch.data());
    if (!bitwiseEqual(upRef, upF))
        return fail("sliced-ELL fused u_{n+1} != multiply + triad bitwise");
    if (!bitEq(pRef.peak, pF.peak) || !bitEq(pRef.energy, pF.energy))
        return fail("sliced-ELL fused partials != reference bitwise");
    return ok();
}

/**
 * The serving-mode contract (DESIGN.md §14): a scenario executed
 * through the multi-tenant service — queued, prefix-cached,
 * single-flighted, packed next to a concurrent duplicate — is bitwise
 * identical to the same request run standalone.  The duplicate
 * submission forces the cache/single-flight path on at least one of
 * the two executions.
 */
PropertyResult
propServiceScenarioBitwise(const TrialConfig &cfg)
{
    common::SplitMix64 rng(cfg.seed ^ 0x5e41ce5eedULL);
    service::ScenarioRequest req;
    req.tenant = "fuzz";
    req.label = "trial-" + std::to_string(cfg.seed);
    req.maxSteps = 4 + static_cast<std::int64_t>(rng.next() % 6);
    req.wavelet.peakFrequencyHz = 0.2 + 0.2 * rng.nextDouble();
    req.hypocenter.x = 20.0 + 10.0 * rng.nextDouble();
    req.poisson = 0.2 + 0.1 * rng.nextDouble();
    if (cfg.size >= 2 && (rng.next() & 1) != 0)
        req.numPes = 2 + static_cast<int>(rng.next() % 3);

    const service::ScenarioResult solo =
        service::ScenarioService::runStandalone(req);
    if (!solo.completed)
        return fail("standalone run failed: " + solo.error);

    service::ServiceOptions opt;
    opt.executors = 2;
    service::ScenarioService svc(opt);
    std::future<service::ScenarioResult> f1 = svc.submit(req);
    std::future<service::ScenarioResult> f2 = svc.submit(req);
    const service::ScenarioResult r1 = f1.get();
    const service::ScenarioResult r2 = f2.get();
    svc.shutdown();

    for (const service::ScenarioResult *r : {&r1, &r2})
    {
        if (!r->completed)
            return fail("service run failed: " + r->error);
        if (r->engineFingerprint != solo.engineFingerprint)
            return fail("service engine fingerprint != standalone");
        if (r->stateFingerprint != solo.stateFingerprint)
            return fail("service state fingerprint != standalone "
                        "(caching/packing changed the trajectory)");
        if (r->report.steps != solo.report.steps)
            return fail("service step count != standalone");
        if (!bitEq(r->report.peakDisplacement,
                   solo.report.peakDisplacement))
            return fail("service peak displacement != standalone");
    }
    if (svc.cacheStats().hits < 1)
        return fail("duplicate submission produced no cache sharing");
    return ok();
}

// ---------------------------------------------------------------------------
// Property: the MESI co-simulator's replay is a pure function of the
// trace set + config — bit-identical stats across reruns and across
// the order traces are handed in (DESIGN.md §15's canonical-schedule
// contract).
// ---------------------------------------------------------------------------

std::string
diffMesiStats(const arch::MesiStats &a, const arch::MesiStats &b)
{
    if (a.pe.size() != b.pe.size())
        return "PE count differs";
    for (std::size_t p = 0; p < a.pe.size(); ++p)
    {
        const arch::PeStats &x = a.pe[p];
        const arch::PeStats &y = b.pe[p];
        const std::int64_t xs[] = {
            x.accesses, x.reads, x.writes, x.l1Misses, x.l2Misses,
            x.llcMisses, x.coldMisses, x.coherenceMisses,
            x.capacityMisses, x.trueSharingMisses, x.falseSharingMisses,
            x.upgrades, x.invalidationsReceived, x.writebacks};
        const std::int64_t ys[] = {
            y.accesses, y.reads, y.writes, y.l1Misses, y.l2Misses,
            y.llcMisses, y.coldMisses, y.coherenceMisses,
            y.capacityMisses, y.trueSharingMisses, y.falseSharingMisses,
            y.upgrades, y.invalidationsReceived, y.writebacks};
        for (std::size_t i = 0; i < std::size(xs); ++i)
            if (xs[i] != ys[i])
                return "PE " + std::to_string(p) + " counter " +
                       std::to_string(i) + " differs";
        if (!bitEq(x.seconds, y.seconds))
            return "PE " + std::to_string(p) + " seconds differ";
    }
    if (a.llcAccesses != b.llcAccesses || a.llcMisses != b.llcMisses ||
        a.bytesFromDram != b.bytesFromDram)
        return "shared-level counters differ";
    return "";
}

PropertyResult
propArchReplayDeterministic(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    const std::int64_t n =
        4 + 8 * cfg.size +
        static_cast<std::int64_t>(gen.rng().nextBounded(7));
    const sparse::Bcsr3Matrix a = gen.randomSpdBcsr3(n);

    const int pes = 1 + static_cast<int>(gen.rng().nextBounded(4));
    arch::MesiHierarchyConfig config =
        (gen.rng().next() & 1) != 0
            ? arch::MesiHierarchyConfig::nehalemCmp(pes)
            : arch::MesiHierarchyConfig::t3e1998(pes);

    for (arch::TraceFormat format :
         {arch::TraceFormat::kBcsr3, arch::TraceFormat::kSymBcsr3,
          arch::TraceFormat::kSlicedEll3})
    {
        arch::CosimOptions opt;
        opt.format = format;
        opt.numPes = pes;
        opt.iterations = 2;
        opt.chunkRefs =
            16 + static_cast<int>(gen.rng().nextBounded(64));

        std::vector<arch::PeTrace> traces =
            arch::buildCosimTraces(a, opt);
        const arch::MesiStats s1 =
            arch::replayTraces(traces, config, opt.chunkRefs);
        const arch::MesiStats s2 =
            arch::replayTraces(traces, config, opt.chunkRefs);
        std::string why = diffMesiStats(s1, s2);
        if (!why.empty())
            return fail(std::string("rerun not bit-identical (") +
                        arch::traceFormatName(format) + "): " + why);

        // Hand the traces over in a different container order; per-PE
        // program order is untouched, so the canonical schedule — and
        // every statistic — must be invariant.
        std::reverse(traces.begin(), traces.end());
        if (traces.size() > 2)
            std::rotate(traces.begin(), traces.begin() + 1, traces.end());
        const arch::MesiStats s3 =
            arch::replayTraces(traces, config, opt.chunkRefs);
        why = diffMesiStats(s1, s3);
        if (!why.empty())
            return fail(std::string("container-order replay differs (") +
                        arch::traceFormatName(format) + "): " + why);
    }
    return ok();
}

// ---------------------------------------------------------------------------
// Property: hierarchy statistics are internally consistent — the miss
// pyramid is monotone, every private miss is classified exactly once,
// sharing splits sum, single-PE runs see zero coherence traffic, and
// the cross-format useful-flop count is conserved.
// ---------------------------------------------------------------------------

PropertyResult
propArchHierarchySane(const TrialConfig &cfg)
{
    InputGen gen(cfg.seed, cfg.size);
    const std::int64_t n =
        4 + 8 * cfg.size +
        static_cast<std::int64_t>(gen.rng().nextBounded(7));
    const sparse::Bcsr3Matrix a = gen.randomSpdBcsr3(n);

    const int pes = 1 + static_cast<int>(gen.rng().nextBounded(4));
    arch::MesiHierarchyConfig config =
        (gen.rng().next() & 1) != 0
            ? arch::MesiHierarchyConfig::nehalemCmp(pes)
            : arch::MesiHierarchyConfig::t3e1998(pes);

    for (arch::TraceFormat format :
         {arch::TraceFormat::kBcsr3, arch::TraceFormat::kSymBcsr3,
          arch::TraceFormat::kSlicedEll3})
    {
        arch::CosimOptions opt;
        opt.format = format;
        opt.numPes = pes;
        opt.iterations = 2;
        const arch::CosimResult r = arch::runCosim(a, config, opt);
        const std::string tag = arch::traceFormatName(format);

        std::int64_t llc_total = 0;
        for (std::size_t p = 0; p < r.stats.pe.size(); ++p)
        {
            const arch::PeStats &ps = r.stats.pe[p];
            const std::string at =
                tag + " PE " + std::to_string(p) + ": ";
            if (ps.reads + ps.writes != ps.accesses)
                return fail(at + "reads + writes != accesses");
            if (ps.l1Misses > ps.accesses)
                return fail(at + "L1 misses exceed accesses");
            if (ps.l2Misses > ps.l1Misses)
                return fail(at + "L2 misses exceed L1 misses");
            if (ps.llcMisses > ps.l2Misses)
                return fail(at + "LLC misses exceed L2 misses");
            if (ps.coldMisses + ps.coherenceMisses + ps.capacityMisses !=
                ps.l2Misses)
                return fail(at + "miss classification not conserved");
            if (ps.trueSharingMisses + ps.falseSharingMisses !=
                ps.coherenceMisses)
                return fail(at + "sharing split != coherence misses");
            if (ps.accesses > 0 && !(ps.seconds > 0))
                return fail(at + "nonpositive modeled seconds");
            llc_total += ps.llcMisses;
        }
        if (llc_total != r.stats.llcMisses)
            return fail(tag + ": per-PE LLC misses != shared count");
        if (pes == 1 && r.stats.totalCoherenceMisses() != 0)
            return fail(tag + ": coherence misses at a single PE");
        if (r.totalFlops !=
            static_cast<std::int64_t>(opt.iterations) *
                a.flopsPerMultiply())
            return fail(tag + ": useful flops not conserved vs BCSR3");
        if (r.stats.bytesFromDram <= 0)
            return fail(tag + ": no modeled DRAM traffic");
        if (!(r.tfSeconds > 0) || !(r.fractionOfPeak > 0) ||
            r.fractionOfPeak > 1.0)
            return fail(tag + ": implausible derived T_f numbers");
    }
    return ok();
}

} // namespace

const std::vector<Property> &
allProperties()
{
    static const std::vector<Property> kProps = {
        {"kernel_differential",
         "every KernelSuite kernel vs reference CSR, ULP-bounded, and "
         "bitwise reproducible call over call",
         propKernelDifferential},
        {"spd_block_differential",
         "random SPD block matrices through BCSR3 and symmetric BCSR3",
         propSpdBlockDifferential},
        {"fused_vs_unfused",
         "fused step == unfused SMVP + reference triad, bitwise, on all "
         "fused backends",
         propFusedVsUnfused},
        {"engine_invariance",
         "ParallelSmvp bitwise invariant per backend across thread "
         "counts, one-CPU-per-worker (and failing) pins, and both "
         "exchange modes; fused == multiply + triad; ULP across backends",
         propEngineInvariance},
        {"symmetry_bilinear", "x'Ky == y'Kx on assembled and random SPD K",
         propSymmetryBilinear},
        {"determinism_rerun",
         "mesh -> kernels -> engine -> reliable exchange fingerprint "
         "identical across reruns",
         propDeterminismRerun},
        {"exchange_faultfree",
         "reliable exchange with no faults reproduces the ideal "
         "simulator bit for bit",
         propExchangeFaultFree},
        {"exchange_faulty",
         "faulty reliable exchange is rerun-deterministic and conserves "
         "message counts",
         propExchangeFaulty},
        {"reject_invalid",
         "invalid specs/schedules/configs raise FatalError at every "
         "entry point",
         propRejectInvalid},
        {"adversarial_meshes",
         "slivers, disconnected graphs, single elements, and "
         "pathological grading survive all paths",
         propAdversarialMeshes},
        {"telemetry_transparent",
         "tracing on vs off is bitwise identical with 0 steady-state "
         "allocations",
         propTelemetryTransparent},
        {"checkpoint_roundtrip",
         "checkpoint snapshots round-trip bitwise, leave the run "
         "unperturbed, and refuse any corrupted byte or fingerprint skew",
         propCheckpointRoundtrip},
        {"checkpoint_kill_resume",
         "a run killed at a random step and resumed from its checkpoint "
         "is bitwise identical to one that never stopped",
         propCheckpointKillResume},
        {"sliced_ell3_differential",
         "sliced-ELL conversion round-trips BCSR3 at every slice "
         "height; multiply matches CSR; fused path bitwise",
         propSlicedEll3Differential},
        {"service_scenario_bitwise",
         "a scenario served through the multi-tenant service (queue, "
         "prefix cache, single-flight, packing) is bitwise identical "
         "to the same request run standalone",
         propServiceScenarioBitwise},
        {"arch_replay_deterministic",
         "MESI co-sim replay is bit-identical across reruns and across "
         "trace container orders (canonical schedule)",
         propArchReplayDeterministic},
        {"arch_hierarchy_sane",
         "miss pyramid monotone, classification conserved, zero "
         "coherence at 1 PE, useful flops format-invariant",
         propArchHierarchySane},
    };
    return kProps;
}

const Property *
findProperty(const std::string &name)
{
    for (const Property &p : allProperties())
        if (p.name == name)
            return &p;
    return nullptr;
}

PropertyResult
runProperty(const Property &prop, const TrialConfig &cfg)
{
    try
    {
        return prop.run(cfg);
    }
    catch (const common::FatalError &e)
    {
        return PropertyResult::fail(std::string("unexpected FatalError: ") +
                                    e.what());
    }
    catch (const std::exception &e)
    {
        return PropertyResult::fail(std::string("unexpected exception: ") +
                                    e.what());
    }
}

} // namespace quake::verify

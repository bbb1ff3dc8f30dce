/**
 * @file
 * Tests for the telemetry subsystem (DESIGN.md §9): histogram bin
 * edges and percentile math against closed-form cases, deterministic
 * merging, the Chrome-trace golden export under a fake clock, trace
 * coverage, the metrics JSON, the Eq. (1) model-validation math, and
 * the two contracts instrumentation must not break — bitwise-identical
 * simulation results and zero steady-state allocations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/allocation_counter.h"
#include "common/error.h"
#include "mesh/generator.h"
#include "parallel/parallel_smvp.h"
#include "partition/geometric_bisection.h"
#include "quake/time_stepper.h"
#include "sparse/assembly.h"
#include "telemetry/collector.h"
#include "telemetry/export.h"
#include "telemetry/report.h"

namespace
{

using namespace quake::telemetry;
using quake::common::FatalError;
namespace mesh = quake::mesh;
namespace sparse = quake::sparse;
namespace parallel = quake::parallel;
namespace partition = quake::partition;
namespace core = quake::core;
namespace sim = quake::sim;

// ---------------------------------------------------------------------
// Histogram: bin edges and percentiles, closed form.
// ---------------------------------------------------------------------

TEST(Histogram, BinIndexClosedForm)
{
    // Bin 0 = {0}; bin b >= 1 = [2^(b-1), 2^b).
    EXPECT_EQ(Histogram::binIndex(0), 0);
    EXPECT_EQ(Histogram::binIndex(1), 1);
    EXPECT_EQ(Histogram::binIndex(2), 2);
    EXPECT_EQ(Histogram::binIndex(3), 2);
    EXPECT_EQ(Histogram::binIndex(4), 3);
    EXPECT_EQ(Histogram::binIndex(7), 3);
    EXPECT_EQ(Histogram::binIndex(8), 4);
    EXPECT_EQ(Histogram::binIndex(1023), 10);
    EXPECT_EQ(Histogram::binIndex(1024), 11);
    EXPECT_EQ(Histogram::binIndex(~std::uint64_t{0}),
              Histogram::kBins - 1);
}

TEST(Histogram, BinEdgesClosedForm)
{
    EXPECT_EQ(Histogram::binLowerEdge(0), 0u);
    EXPECT_EQ(Histogram::binUpperEdge(0), 0u);
    EXPECT_EQ(Histogram::binLowerEdge(1), 1u);
    EXPECT_EQ(Histogram::binUpperEdge(1), 1u);
    EXPECT_EQ(Histogram::binLowerEdge(2), 2u);
    EXPECT_EQ(Histogram::binUpperEdge(2), 3u);
    EXPECT_EQ(Histogram::binLowerEdge(10), 512u);
    EXPECT_EQ(Histogram::binUpperEdge(10), 1023u);

    // Every value lands in the bin whose edges bracket it.
    for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull,
                                  65535ull, 65536ull, 1ull << 40}) {
        const int b = Histogram::binIndex(v);
        EXPECT_GE(v, Histogram::binLowerEdge(b)) << v;
        EXPECT_LE(v, Histogram::binUpperEdge(b)) << v;
    }
}

TEST(Histogram, PercentileClosedForm)
{
    Histogram h;
    EXPECT_EQ(h.percentile(50.0), 0.0); // empty

    // Four values: 0, 1, 5, 100 — one per distinct bin (0, 1, 3, 7).
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(100);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 106u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 26.5);

    // p0 -> rank max(1, 0) = 1 -> bin 0 -> upper edge 0.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    // p50 -> rank 2 -> bin 1 -> upper edge 1.
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 1.0);
    // p75 -> rank 3 -> bin 3 -> upper edge 7.
    EXPECT_DOUBLE_EQ(h.percentile(75.0), 7.0);
    // p95/p100 -> rank 4 -> bin 7, upper edge 127 clamped to max 100.
    EXPECT_DOUBLE_EQ(h.percentile(95.0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 100.0);

    EXPECT_THROW(h.percentile(-1.0), FatalError);
    EXPECT_THROW(h.percentile(101.0), FatalError);
}

TEST(Histogram, MergeAccumulatesBinwise)
{
    Histogram a, b;
    a.record(1);
    a.record(1000);
    b.record(1);
    b.record(7);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.sum(), 1009u);
    EXPECT_EQ(a.max(), 1000u);
    EXPECT_EQ(a.binCount(Histogram::binIndex(1)), 2u);
    EXPECT_EQ(a.binCount(Histogram::binIndex(7)), 1u);
}

// ---------------------------------------------------------------------
// Collector basics: disabled no-op, slots, sampling, drop accounting.
// ---------------------------------------------------------------------

TEST(Collector, DisabledCollectorRecordsNothing)
{
    CollectorConfig cfg;
    cfg.enabled = false;
    Collector c(cfg);
    EXPECT_FALSE(c.enabled());

    c.ensureSlots(4); // no-op when disabled
    EXPECT_EQ(c.numSlots(), 0);

    // All record paths must be safe single-branch no-ops.
    c.setStep(3);
    EXPECT_FALSE(c.sampledStep());
    c.recordSpan(0, Span::kStep, -1, 0, 1);
    c.add(0, Counter::kSmvpCalls, 1);
    c.observe(0, Hist::kStepNanos, 42);
    { ScopedSpan s(&c, 0, Span::kSmvp); }
    EXPECT_EQ(c.spansRecorded(), 0u);
    EXPECT_EQ(c.counterTotal(Counter::kSmvpCalls), 0u);
}

TEST(Collector, StepSamplingEveryN)
{
    CollectorConfig cfg;
    cfg.sampleEvery = 4;
    Collector c(cfg);
    c.ensureSlots(1);

    int sampled = 0;
    for (int step = 0; step < 9; ++step) {
        c.setStep(step);
        EXPECT_EQ(c.sampledStep(), step % 4 == 0) << "step " << step;
        if (c.sampledStep())
            ++sampled;
    }
    EXPECT_EQ(sampled, 3); // steps 0, 4, 8
    EXPECT_EQ(c.counterTotal(Counter::kStepsSampled), 3u);
    EXPECT_EQ(c.step(), 8);
}

TEST(Collector, SpanBufferDropsWhenFullAndCountsDrops)
{
    CollectorConfig cfg;
    cfg.spanCapacity = 2;
    Collector c(cfg);
    c.ensureSlots(1);

    c.recordSpan(0, Span::kStep, 0, 0, 1);
    c.recordSpan(0, Span::kStep, 1, 1, 2);
    c.recordSpan(0, Span::kStep, 2, 2, 3); // buffer full: dropped
    EXPECT_EQ(c.spansRecorded(), 2u);
    EXPECT_EQ(c.spansDropped(), 1u);
    EXPECT_EQ(c.slot(0).spanCount, 2u);
    EXPECT_EQ(c.slot(0).spans[1].arg, 1);
}

TEST(Collector, EnsureSlotsGrowsAndPreservesExistingSlots)
{
    Collector c;
    c.ensureSlots(1);
    c.add(0, Counter::kPoolRuns, 7);
    c.ensureSlots(3);
    EXPECT_EQ(c.numSlots(), 3);
    c.ensureSlots(2); // never shrinks
    EXPECT_EQ(c.numSlots(), 3);
    EXPECT_EQ(c.counterTotal(Counter::kPoolRuns), 7u);
}

TEST(Collector, MergesCountersAndHistogramsAcrossSlots)
{
    Collector c;
    c.ensureSlots(3);
    c.add(0, Counter::kSmvpCalls, 1);
    c.add(1, Counter::kSmvpCalls, 10);
    c.add(2, Counter::kSmvpCalls, 100);
    EXPECT_EQ(c.counterTotal(Counter::kSmvpCalls), 111u);

    c.observe(0, Hist::kLocalPhaseNanos, 5);
    c.observe(1, Hist::kLocalPhaseNanos, 50);
    c.observe(2, Hist::kLocalPhaseNanos, 500);
    const Histogram merged = c.mergedHistogram(Hist::kLocalPhaseNanos);
    EXPECT_EQ(merged.count(), 3u);
    EXPECT_EQ(merged.sum(), 555u);
    EXPECT_EQ(merged.max(), 500u);
}

// ---------------------------------------------------------------------
// Fake clock + ScopedSpan.
// ---------------------------------------------------------------------

std::uint64_t g_fake_now = 0;

std::uint64_t
fakeNow()
{
    return g_fake_now += 100;
}

TEST(Collector, ScopedSpanUsesConfiguredClock)
{
    g_fake_now = 0;
    CollectorConfig cfg;
    cfg.now = &fakeNow;
    Collector c(cfg);
    c.ensureSlots(1);

    { ScopedSpan span(&c, 0, Span::kSmvp, 9); }
    ASSERT_EQ(c.slot(0).spanCount, 1u);
    const SpanEvent &ev = c.slot(0).spans[0];
    EXPECT_EQ(ev.begin, 100u);
    EXPECT_EQ(ev.end, 200u);
    EXPECT_EQ(ev.arg, 9);
    EXPECT_EQ(ev.cat, Span::kSmvp);

    // Null collector: no clock reads, no records.
    const std::uint64_t before = g_fake_now;
    { ScopedSpan span(nullptr, 0, Span::kSmvp); }
    EXPECT_EQ(g_fake_now, before);
}

// ---------------------------------------------------------------------
// Chrome trace export: golden test with known timestamps.
// ---------------------------------------------------------------------

TEST(TraceExport, GoldenChromeTraceJson)
{
    Collector c;
    c.ensureSlots(2);
    c.recordSpan(0, Span::kStep, 3, 1000, 5000);
    c.recordSpan(0, Span::kSmvp, -1, 1500, 3500);
    c.recordSpan(1, Span::kExchange, 2, 2000, 2250);

    std::ostringstream out;
    writeChromeTrace(c, out);

    const std::string golden =
        "{\n"
        "\"displayTimeUnit\": \"ms\",\n"
        "\"traceEvents\": [\n"
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
        "\"thread_name\", \"args\": {\"name\": \"control\"}},\n"
        "{\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": "
        "\"thread_name\", \"args\": {\"name\": \"worker-0\"}},\n"
        "{\"name\": \"step\", \"cat\": \"quake\", \"ph\": \"X\", "
        "\"pid\": 0, \"tid\": 0, \"ts\": 1, \"dur\": 4, "
        "\"args\": {\"arg\": 3}},\n"
        "{\"name\": \"smvp\", \"cat\": \"quake\", \"ph\": \"X\", "
        "\"pid\": 0, \"tid\": 0, \"ts\": 1.5, \"dur\": 2},\n"
        "{\"name\": \"exchange\", \"cat\": \"quake\", \"ph\": \"X\", "
        "\"pid\": 0, \"tid\": 1, \"ts\": 2, \"dur\": 0.25, "
        "\"args\": {\"arg\": 2}}\n"
        "]\n"
        "}\n";
    EXPECT_EQ(out.str(), golden);
}

TEST(TraceExport, OrderingIsAscendingSlotThenRecordingOrder)
{
    // Record out of "natural" time order; the export must follow slot
    // then recording order, not timestamps.
    Collector c;
    c.ensureSlots(2);
    c.recordSpan(1, Span::kExchange, 0, 777000, 800000);
    c.recordSpan(0, Span::kStep, 1, 500000, 600000);
    c.recordSpan(0, Span::kStep, 0, 100000, 200000);

    std::ostringstream out;
    writeChromeTrace(c, out);
    const std::string s = out.str();
    const std::size_t step_late = s.find("\"ts\": 500,");
    const std::size_t step_early = s.find("\"ts\": 100,");
    const std::size_t exch = s.find("\"ts\": 777,");
    ASSERT_NE(step_late, std::string::npos);
    ASSERT_NE(step_early, std::string::npos);
    ASSERT_NE(exch, std::string::npos);
    EXPECT_LT(step_late, step_early); // slot 0 keeps recording order
    EXPECT_LT(step_early, exch);      // slot 0 before slot 1
}

TEST(TraceExport, CoverageIsStepSpanShareOfWindow)
{
    Collector c;
    c.ensureSlots(2);
    EXPECT_EQ(traceCoverage(c), 0.0); // nothing recorded

    c.recordSpan(0, Span::kStep, 0, 0, 80);
    c.recordSpan(0, Span::kStep, 1, 80, 100);
    EXPECT_DOUBLE_EQ(traceCoverage(c), 1.0);

    // A worker span stretching the window dilutes coverage; non-step
    // control spans never count as covered.
    c.recordSpan(1, Span::kExchange, 0, 0, 200);
    EXPECT_DOUBLE_EQ(traceCoverage(c), 0.5);
    c.recordSpan(0, Span::kSmvp, -1, 100, 200);
    EXPECT_DOUBLE_EQ(traceCoverage(c), 0.5);
}

// ---------------------------------------------------------------------
// Metrics JSON export.
// ---------------------------------------------------------------------

TEST(MetricsExport, WritesHistogramAndCounterRecords)
{
    Collector c;
    c.ensureSlots(2);
    c.add(0, Counter::kSmvpCalls, 12);
    c.add(1, Counter::kRetransmissions, 3);
    c.observe(0, Hist::kSmvpNanos, 1000);
    c.observe(1, Hist::kSmvpNanos, 3000);
    c.recordSpan(0, Span::kStep, 0, 0, 1);

    const std::string path = "test_telemetry_metrics.json";
    writeMetricsBenchJson(c, "telemetry_unit", {{"mesh", "none"}}, path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string json = buf.str();

    EXPECT_NE(json.find("\"bench\": \"telemetry_unit\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mesh\": \"none\""), std::string::npos);
    EXPECT_NE(json.find("hist:smvp_nanos"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"sum_ns\": 4000"), std::string::npos);
    EXPECT_NE(json.find("\"p95_ns\":"), std::string::npos);
    EXPECT_NE(json.find("counter:smvp_calls"), std::string::npos);
    EXPECT_NE(json.find("counter:retransmissions"), std::string::npos);
    EXPECT_NE(json.find("counter:spans_recorded"), std::string::npos);
    EXPECT_NE(json.find("counter:spans_dropped"), std::string::npos);
    // Zero counters other than smvp_calls are suppressed.
    EXPECT_EQ(json.find("counter:timeouts_fired"), std::string::npos);
    // Balanced braces (cheap well-formedness check on top of the
    // substring asserts; the trace golden covers exact syntax).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Model validation: Eq. (1) math on synthetic histograms.
// ---------------------------------------------------------------------

TEST(ModelValidation, ClosedFormOnSyntheticPhaseSplit)
{
    Collector c;
    c.ensureSlots(1);
    c.add(0, Counter::kSmvpCalls, 10);
    // 10 SMVPs: 0.9 s compute each, 0.1 s exchange each (sums are
    // exact; binning only affects percentiles, not sums).
    for (int i = 0; i < 10; ++i) {
        c.observe(0, Hist::kLocalPhaseNanos, 900000000ull);
        c.observe(0, Hist::kExchangeNanos, 100000000ull);
    }

    ModelReportInputs in;
    in.shape.flops = 1000.0;
    in.shape.wordsMax = 50.0;
    in.shape.blocksMax = 5.0;
    in.totalFlops = 2000.0;
    in.totalWords = 100.0;
    in.assumedE = 0.75;

    const ModelValidation v = validateModel(c, in);
    EXPECT_EQ(v.smvpCalls, 10);
    EXPECT_DOUBLE_EQ(v.computeSecondsPerSmvp, 0.9);
    EXPECT_DOUBLE_EQ(v.exchangeSecondsPerSmvp, 0.1);
    EXPECT_DOUBLE_EQ(v.measuredE, 0.9);
    EXPECT_DOUBLE_EQ(v.measuredTf, 0.9 / 2000.0);
    EXPECT_DOUBLE_EQ(v.measuredTc, 0.1 / 100.0);

    // Eq. (1): T_c = (F / C_max) * ((1 - E) / E) * T_f.
    const double tf = 0.9 / 2000.0;
    const double required = (1000.0 / 50.0) * (0.25 / 0.75) * tf;
    EXPECT_NEAR(v.requiredTc, required, 1e-15);
    EXPECT_NEAR(v.predictedExchangeSecondsPerSmvp, 50.0 * required,
                1e-12);
    // E implied by the measured pair: F*tf / (F*tf + C_max*tc).
    const double tcomp = 1000.0 * tf;
    const double tcomm = 50.0 * (0.1 / 100.0);
    EXPECT_NEAR(v.modelImpliedE, tcomp / (tcomp + tcomm), 1e-12);

    std::ostringstream out;
    printModelValidation(v, out);
    EXPECT_NE(out.str().find("measured E = 0.900"), std::string::npos);
    EXPECT_NE(out.str().find("Eq. (1)"), std::string::npos);
}

TEST(ModelValidation, RejectsEmptyOrDegenerateInputs)
{
    Collector c;
    c.ensureSlots(1);
    ModelReportInputs in;
    in.shape.flops = 1.0;
    in.shape.wordsMax = 1.0;
    in.totalFlops = 1.0;
    in.totalWords = 1.0;
    EXPECT_THROW(validateModel(c, in), FatalError); // no SMVPs

    c.add(0, Counter::kSmvpCalls, 1);
    EXPECT_THROW(validateModel(c, in), FatalError); // no phase time

    c.observe(0, Hist::kLocalPhaseNanos, 1000);
    in.totalFlops = 0.0;
    EXPECT_THROW(validateModel(c, in), FatalError); // zero totals
    in.totalFlops = 1.0;
    in.assumedE = 1.0;
    EXPECT_THROW(validateModel(c, in), FatalError); // E out of (0, 1)
}

// ---------------------------------------------------------------------
// Instrumented engine: telemetry must not change a single bit, and the
// steady-state loop must not allocate.
// ---------------------------------------------------------------------

struct EngineFixture
{
    mesh::TetMesh tet;
    sparse::Bcsr3Matrix k;
    std::vector<double> mass;
    double dt;
    parallel::DistributedProblem problem;
    std::vector<double> x;

    EngineFixture()
        : tet(mesh::buildKuhnLattice(mesh::Aabb{{0, 0, 0}, {4, 4, 4}}, 3,
                                     3, 3)),
          k([this] {
              const mesh::UniformModel model(
                  mesh::Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0, 1.0);
              return sparse::assembleStiffness(tet, model);
          }()),
          mass([this] {
              const mesh::UniformModel model(
                  mesh::Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0, 1.0);
              return sparse::assembleLumpedMass(tet, model);
          }()),
          dt([this] {
              const mesh::UniformModel model(
                  mesh::Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0, 1.0);
              return sim::stableTimeStep(tet, model);
          }()),
          problem([this] {
              const mesh::UniformModel model(
                  mesh::Aabb{{0, 0, 0}, {4, 4, 4}}, 1.0, 1.0);
              const partition::GeometricBisection partitioner;
              return parallel::distribute(
                  tet, model, partitioner.partition(tet, 4));
          }())
    {
        x.resize(mass.size());
        for (std::size_t i = 0; i < x.size(); ++i)
            x[i] = std::sin(0.37 * static_cast<double>(i) + 0.11);
    }

    sim::ExplicitTimeStepper
    makeFused(parallel::ParallelSmvp &engine) const
    {
        sim::SmvpFn smvp = [&engine](const std::vector<double> &in,
                                     std::vector<double> &out) {
            engine.multiplyInto(in, out);
        };
        sim::ExplicitTimeStepper stepper(std::move(smvp), mass, dt);
        sim::RickerWavelet w;
        w.peakFrequencyHz = 0.8;
        w.delaySeconds = 0.3;
        stepper.addSource(
            sim::makePointSource(tet, {2, 2, 2}, {0.3, 0.2, 1.0}, w));
        stepper.setFusedStep([&engine](const sparse::StepUpdate &su) {
            return engine.stepFused(su);
        });
        return stepper;
    }
};

TEST(TelemetryDeterminism, SmvpResultBitwiseIdenticalWithTelemetry)
{
    const EngineFixture f;
    const parallel::ParallelSmvp plain(f.problem, 2);
    const std::vector<double> y_ref = plain.multiply(f.x);

    CollectorConfig cfg;
    cfg.sampleEvery = 1; // record fine-grained spans on every call
    Collector collector(cfg);
    parallel::ParallelSmvp traced(f.problem, 2);
    traced.setCollector(&collector);
    collector.setStep(0);

    const std::vector<double> y = traced.multiply(f.x);
    ASSERT_EQ(y.size(), y_ref.size());
    EXPECT_EQ(0, std::memcmp(y.data(), y_ref.data(),
                             y.size() * sizeof(double)));
    // The run actually recorded something — the hooks were live.
    EXPECT_GT(collector.counterTotal(Counter::kSmvpCalls), 0u);
    EXPECT_GT(collector.spansRecorded(), 0u);
    EXPECT_GT(collector.mergedHistogram(Hist::kLocalPhaseNanos).count(),
              0u);
}

TEST(TelemetryDeterminism, FusedStepDisplacementBitwiseIdentical)
{
    const EngineFixture f;
    const int steps = 120;

    parallel::ParallelSmvp plain_engine(f.problem, 2);
    sim::ExplicitTimeStepper plain = f.makeFused(plain_engine);
    for (int s = 0; s < steps; ++s)
        plain.step();

    CollectorConfig cfg;
    cfg.sampleEvery = 4;
    Collector collector(cfg);
    parallel::ParallelSmvp traced_engine(f.problem, 2);
    traced_engine.setCollector(&collector);
    sim::ExplicitTimeStepper traced = f.makeFused(traced_engine);
    traced.setCollector(&collector);
    for (int s = 0; s < steps; ++s)
        traced.step();

    const std::vector<double> &u_ref = plain.displacement();
    const std::vector<double> &u = traced.displacement();
    ASSERT_EQ(u.size(), u_ref.size());
    EXPECT_EQ(0, std::memcmp(u.data(), u_ref.data(),
                             u.size() * sizeof(double)));
    EXPECT_EQ(plain.peakDisplacement(), traced.peakDisplacement());
    EXPECT_EQ(plain.kineticEnergy(), traced.kineticEnergy());
    // Step spans fire every step; per-PE spans only on sampled steps.
    EXPECT_EQ(collector.counterTotal(Counter::kSmvpCalls),
              static_cast<std::uint64_t>(steps));
    EXPECT_EQ(collector.counterTotal(Counter::kStepsSampled),
              static_cast<std::uint64_t>(steps / 4));
    EXPECT_EQ(collector.mergedHistogram(Hist::kStepNanos).count(),
              static_cast<std::uint64_t>(steps));
}

TEST(TelemetryOverhead, SteadyStateRecordsWithoutAllocating)
{
    const EngineFixture f;
    Collector collector; // defaults: enabled, sampleEvery 16
    parallel::ParallelSmvp engine(f.problem, 2);
    engine.setCollector(&collector);
    sim::ExplicitTimeStepper stepper = f.makeFused(engine);
    stepper.setCollector(&collector);

    // Warm up past any lazy setup (first dispatch, first sample step).
    for (int s = 0; s < 20; ++s)
        stepper.step();

    const std::atomic<std::int64_t> &allocations =
        quake::common::allocationCounter();
    const std::int64_t before =
        allocations.load(std::memory_order_relaxed);
    for (int s = 0; s < 64; ++s)
        stepper.step();
    const std::int64_t allocated =
        allocations.load(std::memory_order_relaxed) - before;

    EXPECT_EQ(allocated, 0)
        << "instrumented fused loop heap-allocated in steady state";
    // The loop crossed sampled steps, so fine-grained recording (the
    // preallocated span path) was exercised, not just counters.
    EXPECT_GT(collector.counterTotal(Counter::kStepsSampled), 1u);
    EXPECT_EQ(collector.spansDropped(), 0u);
}

} // namespace

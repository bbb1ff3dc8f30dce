/**
 * @file
 * The telemetry collector: zero-steady-state-allocation runtime
 * observability for the SMVP engine (DESIGN.md §9).
 *
 * The paper's argument is a time accounting — where do the two phases
 * of the SMVP loop spend their cycles (Eq. 1/2, §4.4)?  The collector
 * makes that accounting measurable from inside the engine instead of
 * inferred from whole-run wall clocks:
 *
 *  - per-thread, cache-line-padded slots so recording never contends or
 *    false-shares between workers;
 *  - begin/end span events (thread, category, argument) appended to
 *    buffers preallocated at setup — when a buffer fills, events are
 *    dropped and counted, never reallocated;
 *  - named counters and log-binned latency histograms (p50/p95/p99/max)
 *    merged deterministically in ascending thread-slot order;
 *  - a step register so fine-grained instrumentation (per-PE phase
 *    spans) can be sampled every N steps while cheap aggregates
 *    (histograms, counters) accumulate on every step.
 *
 * Everything is compiled in but off by default: a disabled collector
 * allocates nothing and every record call is a single predictable
 * branch.  Recording performs no arithmetic on simulation data, so
 * enabling telemetry cannot change y = Kx or the fused-step
 * displacement bitwise (tested in test_telemetry.cc).
 */

#ifndef QUAKE98_TELEMETRY_COLLECTOR_H_
#define QUAKE98_TELEMETRY_COLLECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "telemetry/clock.h"

namespace quake::telemetry
{

/** Span categories: what a begin/end interval measured. */
enum class Span : std::uint8_t
{
    kStep,          ///< one whole time step (stepper, every step)
    kSmvp,          ///< the SMVP (or fused SMVP+update) inside a step
    kLocalPhase,    ///< a worker's full local phase of one multiply
    kBoundaryPhase, ///< one PE's gather + boundary rows + publish
    kExchange,      ///< one PE's receive + ascending-peer sum
    kAcquireSpin,   ///< waiting for a peer's buffer to publish
    kForkJoin,      ///< one WorkerPool::run dispatch round trip
    kCount
};

/** Stable display name of a span category (trace export). */
const char *spanName(Span s);

/** Monotonically accumulating named counters. */
enum class Counter : std::uint8_t
{
    kSmvpCalls,        ///< multiplies / fused steps issued
    kStepsSampled,     ///< steps on which fine-grained spans fired
    kPoolRuns,         ///< WorkerPool fork/join dispatches
    kWorkerWaitNanos,  ///< workers waiting between tasks (see WorkerPool)
    kPoolParks,        ///< pool waits that outlasted the spin and parked
    kAcquireSpinNanos, ///< time spent spinning on unpublished buffers
    kAcquireSpins,     ///< number of spins that actually waited
    // Reliable-exchange protocol counters (reliable_exchange.h).
    kRetransmissions,
    kSpuriousRetransmissions,
    kTimeoutsFired,
    kAcksSent,
    kAcksDropped,
    kDataSent,
    kDataDropped,
    kBackoffWaitNanos, ///< sender wait represented by fired timers
    // Resilience counters (resilience/supervisor.h).
    kCheckpointsWritten, ///< checkpoints committed to disk
    kCheckpointBytes,    ///< serialized checkpoint bytes written
    kRunRestarts,        ///< attempts that resumed from a checkpoint
    kRunDegradations,    ///< thread-budget halvings after stalls
    // Per-kernel backend counters (sliced-ELL engine, DESIGN.md §12).
    kEllSliceMultiplies, ///< sliced-ELL slice kernels executed
    kEllPaddedBlocks,    ///< zero-padding blocks streamed by those slices
    // Thread placement (DESIGN.md §13).
    kPinFailures, ///< advisory thread pins that failed
    // Scenario-service counters (service/service.h, DESIGN.md §14).
    kScenariosSubmitted,     ///< requests accepted into the queue
    kScenariosCompleted,     ///< scenarios that ran to completion
    kScenariosShed,          ///< requests shed (queue or admission)
    kScenarioDeadlineMisses, ///< runs aborted at an SLO deadline
    kScenarioCacheHits,      ///< prefix-cache stage hits
    kScenarioCacheMisses,    ///< prefix-cache stage misses (computed)
    kScenarioCacheEvictions, ///< LRU entries evicted for byte budget
    kScenarioResultBytes,    ///< result-record bytes streamed to disk
    kCount
};

/** Stable display name of a counter (metrics export). */
const char *counterName(Counter c);

/** Log-binned latency histograms (nanoseconds). */
enum class Hist : std::uint8_t
{
    kStepNanos,        ///< whole-step latency
    kSmvpNanos,        ///< SMVP (or fused pass) latency
    kLocalPhaseNanos,  ///< per-thread local-phase (compute) time
    kExchangeNanos,    ///< per-thread exchange-phase time
    kAcquireSpinNanos, ///< individual publish waits
    kForkJoinNanos,    ///< pool dispatch round trips
    kCount
};

/** Stable display name of a histogram (metrics export). */
const char *histName(Hist h);

/** One recorded begin/end interval. */
struct SpanEvent
{
    std::uint64_t begin = 0; ///< clock nanos at entry
    std::uint64_t end = 0;   ///< clock nanos at exit
    std::int32_t arg = -1;   ///< PE id or step number; -1 = none
    Span cat = Span::kStep;
};

/**
 * A power-of-two log-binned histogram over nonnegative nanosecond
 * values.  Bin 0 holds exactly {0}; bin b >= 1 holds [2^(b-1), 2^b).
 * Percentiles are reported as the upper edge of the bin containing the
 * requested rank, clamped to the exact observed maximum — closed-form
 * and therefore unit-testable (test_telemetry.cc).
 */
class Histogram
{
  public:
    static constexpr int kBins = 64;

    /** Bin index of value v (see class comment for the edges). */
    static int binIndex(std::uint64_t v);

    /** Inclusive lower edge of bin b. */
    static std::uint64_t binLowerEdge(int b);

    /** Inclusive upper edge of bin b (0 for bin 0). */
    static std::uint64_t binUpperEdge(int b);

    /** Record one value. */
    void
    record(std::uint64_t v)
    {
        bins_[binIndex(v)] += 1;
        count_ += 1;
        sum_ += v;
        if (v > max_)
            max_ = v;
    }

    /** Fold `other` into this histogram (bin-wise; max of maxima). */
    void merge(const Histogram &other);

    /**
     * Value at percentile p in [0, 100]: the upper edge of the bin
     * where the cumulative count first reaches ceil(p/100 * count),
     * clamped to the exact maximum.  Returns 0 on an empty histogram.
     */
    double percentile(double p) const;

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }

    /** Mean of the recorded values (exact: sum / count). */
    double
    mean() const
    {
        return count_ > 0
                   ? static_cast<double>(sum_) / static_cast<double>(count_)
                   : 0.0;
    }

    /** Raw count in bin b (tests and exporters). */
    std::uint64_t binCount(int b) const { return bins_[b]; }

  private:
    std::array<std::uint64_t, kBins> bins_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Everything one thread records, padded so two slots never share a
 * cache line.  Slot 0 is the control (main) thread; slot 1 + tid is
 * worker tid of the engine's pool.
 */
struct alignas(64) ThreadSlot
{
    std::vector<SpanEvent> spans; ///< preallocated; spanCount live
    std::size_t spanCount = 0;
    std::uint64_t spansDropped = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
        counters{};
    std::array<Histogram, static_cast<std::size_t>(Hist::kCount)> hists{};
};

/** Construction-time configuration of a Collector. */
struct CollectorConfig
{
    /** Master switch; a disabled collector allocates and records nothing. */
    bool enabled = true;

    /**
     * Thread slots preallocated up front (0 = grow on demand via
     * ensureSlots, which instrumented components call at setup).
     */
    int threadSlots = 0;

    /** Span events preallocated per thread slot. */
    std::size_t spanCapacity = 1 << 16;

    /** Record fine-grained per-PE spans every this many steps (>= 1). */
    std::int64_t sampleEvery = 16;

    /** Time source; tests substitute a deterministic fake. */
    Clock::NowFn now = &Clock::steadyNanos;
};

/**
 * The collector.  Setup (construction, ensureSlots, setStep from the
 * control thread) allocates; steady-state recording never does.
 * Recording methods are wait-free: each thread writes only its own
 * padded slot, so no locks and no false sharing.
 */
class Collector
{
  public:
    explicit Collector(CollectorConfig config = {});

    bool enabled() const { return enabled_; }

    /** Read the configured clock. */
    std::uint64_t now() const { return now_(); }

    /** The fine-grained sampling period. */
    std::int64_t sampleEvery() const { return sample_every_; }

    /** Allocated thread slots (0 on a disabled collector). */
    int
    numSlots() const
    {
        return static_cast<int>(slots_.size());
    }

    /**
     * Grow to at least n slots.  Setup-time only: must not race with
     * recording.  No-op on a disabled collector.
     */
    void ensureSlots(int n);

    /**
     * Publish the current step number (control thread, once per step).
     * Fine-grained span recording fires on steps where
     * step % sampleEvery == 0.
     */
    void setStep(std::int64_t step);

    /** Latest published step. */
    std::int64_t
    step() const
    {
        return step_.load(std::memory_order_relaxed);
    }

    /** Whether fine-grained spans should be recorded right now. */
    bool
    sampledStep() const
    {
        return enabled_ && sampled_.load(std::memory_order_relaxed);
    }

    /** Append a span event to `slot`'s buffer (drops when full). */
    void
    recordSpan(int slot, Span cat, std::int32_t arg, std::uint64_t begin,
               std::uint64_t end)
    {
        if (!enabled_)
            return;
        ThreadSlot &s = *slots_[static_cast<std::size_t>(slot)];
        if (s.spanCount < s.spans.size()) {
            s.spans[s.spanCount++] = SpanEvent{begin, end, arg, cat};
        } else {
            s.spansDropped += 1;
        }
    }

    /** Add n to a counter in `slot`. */
    void
    add(int slot, Counter c, std::uint64_t n)
    {
        if (!enabled_)
            return;
        slots_[static_cast<std::size_t>(slot)]
            ->counters[static_cast<std::size_t>(c)] += n;
    }

    /** Record a nanosecond observation into a histogram in `slot`. */
    void
    observe(int slot, Hist h, std::uint64_t nanos)
    {
        if (!enabled_)
            return;
        slots_[static_cast<std::size_t>(slot)]
            ->hists[static_cast<std::size_t>(h)]
            .record(nanos);
    }

    /** Read-only view of one slot (exporters, tests). */
    const ThreadSlot &
    slot(int i) const
    {
        return *slots_[static_cast<std::size_t>(i)];
    }

    /** Sum of a counter over all slots, ascending slot order. */
    std::uint64_t counterTotal(Counter c) const;

    /** Histogram merged over all slots, ascending slot order. */
    Histogram mergedHistogram(Hist h) const;

    /** Total span events dropped across all slots. */
    std::uint64_t spansDropped() const;

    /** Total span events recorded across all slots. */
    std::uint64_t spansRecorded() const;

  private:
    bool enabled_;
    Clock::NowFn now_;
    std::int64_t sample_every_;
    std::size_t span_capacity_;
    std::atomic<std::int64_t> step_{0};
    std::atomic<bool> sampled_{true}; ///< step 0 is always sampled

    /** unique_ptr so slot addresses stay stable across ensureSlots. */
    std::vector<std::unique_ptr<ThreadSlot>> slots_;
};

/**
 * RAII span: reads the clock at construction and records on
 * destruction.  All cost collapses to one branch when the collector is
 * null or disabled.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Collector *c, int slot, Span cat, std::int32_t arg = -1)
        : c_(c != nullptr && c->enabled() ? c : nullptr), slot_(slot),
          cat_(cat), arg_(arg), begin_(c_ != nullptr ? c_->now() : 0)
    {}

    ~ScopedSpan()
    {
        if (c_ != nullptr)
            c_->recordSpan(slot_, cat_, arg_, begin_, c_->now());
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Collector *c_;
    int slot_;
    Span cat_;
    std::int32_t arg_;
    std::uint64_t begin_;
};

} // namespace quake::telemetry

#endif // QUAKE98_TELEMETRY_COLLECTOR_H_

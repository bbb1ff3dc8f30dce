#include "telemetry/collector.h"

#include <bit>
#include <cmath>

#include "common/error.h"

namespace quake::telemetry
{

const char *
spanName(Span s)
{
    switch (s) {
      case Span::kStep: return "step";
      case Span::kSmvp: return "smvp";
      case Span::kLocalPhase: return "local_phase";
      case Span::kBoundaryPhase: return "boundary_phase";
      case Span::kExchange: return "exchange";
      case Span::kAcquireSpin: return "acquire_spin";
      case Span::kForkJoin: return "fork_join";
      case Span::kCount: break;
    }
    return "unknown";
}

const char *
counterName(Counter c)
{
    switch (c) {
      case Counter::kSmvpCalls: return "smvp_calls";
      case Counter::kStepsSampled: return "steps_sampled";
      case Counter::kPoolRuns: return "pool_runs";
      case Counter::kWorkerWaitNanos: return "worker_wait_nanos";
      case Counter::kPoolParks: return "pool_parks";
      case Counter::kAcquireSpinNanos: return "acquire_spin_nanos";
      case Counter::kAcquireSpins: return "acquire_spins";
      case Counter::kRetransmissions: return "retransmissions";
      case Counter::kSpuriousRetransmissions:
          return "spurious_retransmissions";
      case Counter::kTimeoutsFired: return "timeouts_fired";
      case Counter::kAcksSent: return "acks_sent";
      case Counter::kAcksDropped: return "acks_dropped";
      case Counter::kDataSent: return "data_sent";
      case Counter::kDataDropped: return "data_dropped";
      case Counter::kBackoffWaitNanos: return "backoff_wait_nanos";
      case Counter::kCheckpointsWritten: return "checkpoints_written";
      case Counter::kCheckpointBytes: return "checkpoint_bytes";
      case Counter::kRunRestarts: return "run_restarts";
      case Counter::kRunDegradations: return "run_degradations";
      case Counter::kEllSliceMultiplies: return "ell_slice_multiplies";
      case Counter::kEllPaddedBlocks: return "ell_padded_blocks";
      case Counter::kPinFailures: return "pin_failures";
      case Counter::kScenariosSubmitted: return "scenarios_submitted";
      case Counter::kScenariosCompleted: return "scenarios_completed";
      case Counter::kScenariosShed: return "scenarios_shed";
      case Counter::kScenarioDeadlineMisses:
          return "scenario_deadline_misses";
      case Counter::kScenarioCacheHits: return "scenario_cache_hits";
      case Counter::kScenarioCacheMisses: return "scenario_cache_misses";
      case Counter::kScenarioCacheEvictions:
          return "scenario_cache_evictions";
      case Counter::kScenarioResultBytes:
          return "scenario_result_bytes";
      case Counter::kCount: break;
    }
    return "unknown";
}

const char *
histName(Hist h)
{
    switch (h) {
      case Hist::kStepNanos: return "step_nanos";
      case Hist::kSmvpNanos: return "smvp_nanos";
      case Hist::kLocalPhaseNanos: return "local_phase_nanos";
      case Hist::kExchangeNanos: return "exchange_nanos";
      case Hist::kAcquireSpinNanos: return "acquire_spin_nanos";
      case Hist::kForkJoinNanos: return "fork_join_nanos";
      case Hist::kCount: break;
    }
    return "unknown";
}

int
Histogram::binIndex(std::uint64_t v)
{
    if (v == 0)
        return 0;
    // bit_width(v) = floor(log2 v) + 1, so bin b >= 1 holds
    // [2^(b-1), 2^b).  Values >= 2^62 share the last bin.
    const int b = std::bit_width(v);
    return b < kBins ? b : kBins - 1;
}

std::uint64_t
Histogram::binLowerEdge(int b)
{
    if (b <= 0)
        return 0;
    return std::uint64_t{1} << (b - 1);
}

std::uint64_t
Histogram::binUpperEdge(int b)
{
    if (b <= 0)
        return 0;
    if (b >= kBins - 1)
        return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
}

void
Histogram::merge(const Histogram &other)
{
    for (int b = 0; b < kBins; ++b)
        bins_[b] += other.bins_[b];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_)
        max_ = other.max_;
}

double
Histogram::percentile(double p) const
{
    QUAKE_EXPECT(p >= 0.0 && p <= 100.0,
                 "percentile must be in [0, 100], got " << p);
    if (count_ == 0)
        return 0.0;
    // Rank of the requested percentile, at least 1 so p = 0 returns the
    // smallest occupied bin.
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    if (target < 1)
        target = 1;
    std::uint64_t cum = 0;
    for (int b = 0; b < kBins; ++b) {
        cum += bins_[b];
        if (cum >= target) {
            const double upper =
                static_cast<double>(binUpperEdge(b));
            const double mx = static_cast<double>(max_);
            return upper < mx ? upper : mx;
        }
    }
    return static_cast<double>(max_);
}

Collector::Collector(CollectorConfig config)
    : enabled_(config.enabled), now_(config.now),
      sample_every_(config.sampleEvery),
      span_capacity_(config.spanCapacity)
{
    QUAKE_EXPECT(config.sampleEvery >= 1,
                 "sampleEvery must be >= 1, got " << config.sampleEvery);
    QUAKE_EXPECT(config.now != nullptr, "clock function must be set");
    if (enabled_)
        ensureSlots(config.threadSlots);
}

void
Collector::ensureSlots(int n)
{
    if (!enabled_)
        return;
    while (static_cast<int>(slots_.size()) < n) {
        auto slot = std::make_unique<ThreadSlot>();
        slot->spans.resize(span_capacity_);
        slots_.push_back(std::move(slot));
    }
}

void
Collector::setStep(std::int64_t step)
{
    if (!enabled_)
        return;
    step_.store(step, std::memory_order_relaxed);
    const bool sampled = step % sample_every_ == 0;
    sampled_.store(sampled, std::memory_order_relaxed);
    if (sampled && !slots_.empty())
        slots_[0]->counters[static_cast<std::size_t>(
            Counter::kStepsSampled)] += 1;
}

std::uint64_t
Collector::counterTotal(Counter c) const
{
    std::uint64_t total = 0;
    for (const auto &slot : slots_)
        total += slot->counters[static_cast<std::size_t>(c)];
    return total;
}

Histogram
Collector::mergedHistogram(Hist h) const
{
    Histogram merged;
    for (const auto &slot : slots_)
        merged.merge(slot->hists[static_cast<std::size_t>(h)]);
    return merged;
}

std::uint64_t
Collector::spansDropped() const
{
    std::uint64_t total = 0;
    for (const auto &slot : slots_)
        total += slot->spansDropped;
    return total;
}

std::uint64_t
Collector::spansRecorded() const
{
    std::uint64_t total = 0;
    for (const auto &slot : slots_)
        total += slot->spanCount;
    return total;
}

} // namespace quake::telemetry

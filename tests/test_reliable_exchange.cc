/**
 * @file
 * Tests for the reliable exchange protocol: bit-for-bit equivalence
 * with the baseline event simulator when no faults are injected,
 * determinism under a fixed seed, recovery from drops/duplicates/ack
 * losses, graceful degradation when the retry budget is exhausted, and
 * rejection of malformed schedules and options.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "mesh/generator.h"
#include "parallel/event_sim.h"
#include "parallel/reliable_exchange.h"
#include "partition/geometric_bisection.h"

namespace
{

using namespace quake::parallel;
using namespace quake::mesh;
using namespace quake::partition;
using quake::common::FatalError;

CommSchedule
latticeSchedule(int parts)
{
    const TetMesh m =
        buildKuhnLattice(Aabb{{0, 0, 0}, {1, 1, 1}}, 5, 5, 5);
    const GeometricBisection partitioner;
    return CommSchedule::build(m, partitioner.partition(m, parts));
}

std::int64_t
totalDirectedMessages(const CommSchedule &s)
{
    std::int64_t n = 0;
    for (int pe = 0; pe < s.numPes(); ++pe)
        n += static_cast<std::int64_t>(s.pe(pe).exchanges.size());
    return n;
}

class ReliableExchangePeCounts : public ::testing::TestWithParam<int>
{
};

TEST_P(ReliableExchangePeCounts, ZeroFaultsMatchBaselineBitForBit)
{
    const CommSchedule schedule = latticeSchedule(GetParam());
    for (bool duplex : {true, false}) {
        const EventSimResult base = simulateExchange(
            schedule, crayT3e(), EventSimOptions{0.0, duplex});

        ReliableExchangeOptions options;
        options.fullDuplex = duplex;
        const ReliableExchangeResult r =
            simulateReliableExchange(schedule, crayT3e(), options);

        // Bit-for-bit: exact double equality, not approximate.
        EXPECT_EQ(r.peFinishTime, base.peFinishTime);
        EXPECT_EQ(r.tComm, base.tComm);
        EXPECT_EQ(r.totalIdle, base.totalIdle);
        EXPECT_EQ(r.criticalPe, base.criticalPe);

        EXPECT_EQ(r.retransmissions, 0);
        EXPECT_EQ(r.timeoutsFired, 0);
        EXPECT_EQ(r.dataDropped, 0);
        EXPECT_EQ(r.duplicatesDelivered, 0);
        EXPECT_TRUE(r.lostExchanges.empty());
        EXPECT_EQ(r.staleWords, 0);
        EXPECT_FALSE(r.degraded);
        EXPECT_EQ(r.dataSent, totalDirectedMessages(schedule));
        EXPECT_EQ(r.acksSent, r.dataSent);
        EXPECT_GE(r.tProtocolQuiesce, r.tComm);
    }
}

TEST_P(ReliableExchangePeCounts, DeterministicUnderFaults)
{
    const CommSchedule schedule = latticeSchedule(GetParam());
    ReliableExchangeOptions options;
    options.faults.seed = 0xabcdef;
    options.faults.dropProbability = 0.1;
    options.faults.duplicateProbability = 0.05;
    options.faults.ackDropProbability = 0.05;
    options.faults.jitterMeanSeconds = 3e-6;
    options.faults.stragglerProbability = 0.2;
    options.faults.stragglerDelaySeconds = 50e-6;
    options.faults.degradedLinkProbability = 0.2;
    options.faults.degradedBandwidthFactor = 3.0;

    const ReliableExchangeResult a =
        simulateReliableExchange(schedule, crayT3e(), options);
    const ReliableExchangeResult b =
        simulateReliableExchange(schedule, crayT3e(), options);

    EXPECT_EQ(a.tComm, b.tComm);
    EXPECT_EQ(a.peFinishTime, b.peFinishTime);
    EXPECT_EQ(a.totalIdle, b.totalIdle);
    EXPECT_EQ(a.dataSent, b.dataSent);
    EXPECT_EQ(a.dataDelivered, b.dataDelivered);
    EXPECT_EQ(a.dataDropped, b.dataDropped);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.spuriousRetransmissions, b.spuriousRetransmissions);
    EXPECT_EQ(a.acksDropped, b.acksDropped);
    EXPECT_EQ(a.timeoutsFired, b.timeoutsFired);
    EXPECT_EQ(a.timeoutWaitSeconds, b.timeoutWaitSeconds);
    EXPECT_EQ(a.staleWords, b.staleWords);
    EXPECT_EQ(a.lostExchanges.size(), b.lostExchanges.size());
    EXPECT_EQ(a.peStartDelay, b.peStartDelay);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, ReliableExchangePeCounts,
                         ::testing::Values(2, 4, 8, 16));

TEST(ReliableExchange, ModerateDropsRecoverEverything)
{
    const CommSchedule schedule = latticeSchedule(8);
    ReliableExchangeOptions options;
    options.faults.seed = 7;
    options.faults.dropProbability = 0.05;
    options.maxRetries = 20;

    const EventSimResult base = simulateExchange(schedule, crayT3e());
    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e(), options);

    EXPECT_GT(r.dataDropped, 0);
    EXPECT_GT(r.retransmissions, 0);
    EXPECT_GT(r.timeoutsFired, 0);
    EXPECT_GT(r.timeoutWaitSeconds, 0.0);
    EXPECT_TRUE(r.lostExchanges.empty());
    EXPECT_EQ(r.staleWords, 0);
    EXPECT_FALSE(r.degraded);
    // Recovery costs time: retransmitted data re-occupies links and the
    // sender waited out at least one timeout.
    EXPECT_GT(r.tComm, base.tComm);
}

TEST(ReliableExchange, TotalLossDegradesGracefully)
{
    const CommSchedule schedule = latticeSchedule(4);
    const std::int64_t messages = totalDirectedMessages(schedule);
    ReliableExchangeOptions options;
    options.faults.dropProbability = 1.0;
    options.maxRetries = 2;

    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e(), options);

    // The phase completes (no hang) with every exchange given up after
    // exactly 1 + maxRetries attempts.
    EXPECT_EQ(static_cast<std::int64_t>(r.lostExchanges.size()),
              messages);
    EXPECT_EQ(r.dataSent, messages * 3);
    EXPECT_EQ(r.retransmissions, messages * 2);
    EXPECT_EQ(r.timeoutsFired, messages * 3);
    EXPECT_EQ(r.dataDelivered, 0);
    EXPECT_EQ(r.staleWords, schedule.totalWords());
    EXPECT_DOUBLE_EQ(r.staleFraction, 1.0);
    EXPECT_TRUE(r.degraded);
    for (const LostExchange &lost : r.lostExchanges)
        EXPECT_EQ(lost.attempts, 3);
}

TEST(ReliableExchange, DuplicatesAreReceivedButSummedOnce)
{
    const CommSchedule schedule = latticeSchedule(4);
    const std::int64_t messages = totalDirectedMessages(schedule);
    ReliableExchangeOptions options;
    options.faults.duplicateProbability = 1.0;

    const EventSimResult base = simulateExchange(schedule, crayT3e());
    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e(), options);

    EXPECT_EQ(r.duplicatesDelivered, messages);
    EXPECT_EQ(r.dataDelivered, 2 * messages);
    EXPECT_EQ(r.redundantDeliveries, messages);
    EXPECT_TRUE(r.lostExchanges.empty());
    EXPECT_EQ(r.staleWords, 0);
    // Wasted receptions occupy input links: the phase cannot be faster.
    EXPECT_GE(r.tComm, base.tComm);
}

TEST(ReliableExchange, AckLossCausesSpuriousRetransmissions)
{
    const CommSchedule schedule = latticeSchedule(8);
    ReliableExchangeOptions options;
    options.faults.seed = 21;
    options.faults.ackDropProbability = 0.5;
    options.maxRetries = 30;

    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e(), options);

    // Data is never dropped, so everything is delivered; the lost acks
    // force retransmissions of already-delivered data.
    EXPECT_EQ(r.dataDropped, 0);
    EXPECT_GT(r.acksDropped, 0);
    EXPECT_GT(r.retransmissions, 0);
    EXPECT_EQ(r.spuriousRetransmissions, r.retransmissions);
    EXPECT_GT(r.redundantDeliveries, 0);
    EXPECT_EQ(r.staleWords, 0);
    EXPECT_TRUE(r.lostExchanges.empty());
}

TEST(ReliableExchange, UniformStragglerShiftsThePhase)
{
    const CommSchedule schedule = latticeSchedule(8);
    const double delay = 100e-6;
    ReliableExchangeOptions options;
    options.faults.stragglerProbability = 1.0;
    options.faults.stragglerDelaySeconds = delay;

    const EventSimResult base = simulateExchange(schedule, crayT3e());
    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e(), options);

    for (double d : r.peStartDelay)
        EXPECT_DOUBLE_EQ(d, delay);
    EXPECT_NEAR(r.tComm, base.tComm + delay, 1e-12);
    EXPECT_TRUE(r.lostExchanges.empty());
}

TEST(ReliableExchange, DegradedLinksScaleTheWordTime)
{
    const CommSchedule schedule = latticeSchedule(8);
    // Zero block latency isolates the word-time term, which a uniform
    // 4x degradation must scale exactly (power-of-two scaling is exact
    // in floating point).
    const MachineModel machine{"zero-latency", 1e-9, 0.0, 100e-9};
    ReliableExchangeOptions options;
    options.faults.degradedLinkProbability = 1.0;
    options.faults.degradedBandwidthFactor = 4.0;

    const EventSimResult base = simulateExchange(
        schedule, machine, EventSimOptions{0.0, true});
    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, machine, options);

    EXPECT_DOUBLE_EQ(r.tComm, 4.0 * base.tComm);
}

TEST(ReliableExchange, JitterDelaysButDelivers)
{
    const CommSchedule schedule = latticeSchedule(8);
    ReliableExchangeOptions options;
    options.faults.seed = 5;
    options.faults.jitterMeanSeconds = 10e-6;

    const EventSimResult base = simulateExchange(schedule, crayT3e());
    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e(), options);

    EXPECT_EQ(r.dataDropped, 0);
    EXPECT_EQ(r.retransmissions, 0);
    EXPECT_EQ(r.staleWords, 0);
    EXPECT_GE(r.tComm, base.tComm);
}

TEST(ReliableExchange, EmptyScheduleIsTrivial)
{
    const CommSchedule schedule;
    const ReliableExchangeResult r =
        simulateReliableExchange(schedule, crayT3e());
    EXPECT_DOUBLE_EQ(r.tComm, 0.0);
    EXPECT_EQ(r.dataSent, 0);
    EXPECT_FALSE(r.degraded);
    EXPECT_DOUBLE_EQ(r.staleFraction, 0.0);
}

TEST(ReliableExchange, RejectsMalformedSchedules)
{
    // Self-send.
    {
        PeSchedule pe;
        Exchange ex;
        ex.peer = 0;
        ex.nodes = {1, 2};
        pe.exchanges.push_back(ex);
        const CommSchedule bad =
            CommSchedule::fromPeSchedules({pe}, false);
        EXPECT_THROW(simulateReliableExchange(bad, crayT3e()),
                     FatalError);
        EXPECT_THROW(simulateExchange(bad, crayT3e()), FatalError);
    }
    // Out-of-range peer.
    {
        PeSchedule pe;
        Exchange ex;
        ex.peer = 7;
        ex.nodes = {1};
        pe.exchanges.push_back(ex);
        const CommSchedule bad =
            CommSchedule::fromPeSchedules({pe, PeSchedule{}}, false);
        EXPECT_THROW(simulateReliableExchange(bad, crayT3e()),
                     FatalError);
    }
    // Asymmetric pair: 0 sends to 1, but 1 does not send to 0.
    {
        PeSchedule pe0;
        Exchange ex;
        ex.peer = 1;
        ex.nodes = {3, 4};
        pe0.exchanges.push_back(ex);
        const CommSchedule bad =
            CommSchedule::fromPeSchedules({pe0, PeSchedule{}}, false);
        EXPECT_THROW(simulateReliableExchange(bad, crayT3e()),
                     FatalError);
    }
    // Mirrored exchange with a different node set.
    {
        PeSchedule pe0, pe1;
        Exchange fwd, bwd;
        fwd.peer = 1;
        fwd.nodes = {3, 4};
        bwd.peer = 0;
        bwd.nodes = {3, 5};
        pe0.exchanges.push_back(fwd);
        pe1.exchanges.push_back(bwd);
        const CommSchedule bad =
            CommSchedule::fromPeSchedules({pe0, pe1}, false);
        EXPECT_THROW(simulateReliableExchange(bad, crayT3e()),
                     FatalError);
    }
    // fromPeSchedules validates eagerly by default.
    {
        PeSchedule pe;
        Exchange ex;
        ex.peer = 0;
        ex.nodes = {1};
        pe.exchanges.push_back(ex);
        EXPECT_THROW(CommSchedule::fromPeSchedules({pe}), FatalError);
    }
}

TEST(ReliableExchange, RejectsMalformedOptions)
{
    const CommSchedule schedule = latticeSchedule(2);
    ReliableExchangeOptions options;
    options.backoffFactor = 0.5;
    EXPECT_THROW(simulateReliableExchange(schedule, crayT3e(), options),
                 FatalError);

    options = ReliableExchangeOptions{};
    options.maxRetries = -1;
    EXPECT_THROW(simulateReliableExchange(schedule, crayT3e(), options),
                 FatalError);

    options = ReliableExchangeOptions{};
    options.timeoutSeconds = -1e-6;
    EXPECT_THROW(simulateReliableExchange(schedule, crayT3e(), options),
                 FatalError);

    options = ReliableExchangeOptions{};
    options.faults.dropProbability = 1.5;
    EXPECT_THROW(simulateReliableExchange(schedule, crayT3e(), options),
                 FatalError);
}

} // namespace

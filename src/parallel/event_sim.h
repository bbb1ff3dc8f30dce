/**
 * @file
 * Discrete-event simulation of the SMVP communication phase.
 *
 * The closed-form model (Equation 2) charges each PE B_i block
 * latencies plus C_i word times, assuming its sends and receives
 * serialize through one interface.  This simulator executes the actual
 * pairwise exchange schedule event by event against the Figure 5 PE
 * model — an output link and an input link per PE, a constant-latency
 * infinite-capacity network between them — and reports the resulting
 * per-PE timelines.  It sits between the closed-form model and a real
 * machine: scheduling effects the model ignores (a receiver whose
 * input link is busy, idle gaps waiting for senders) appear here.
 *
 * Semantics:
 *  - each PE issues its sends in schedule order; a send occupies the
 *    output link for T_l + k * T_w seconds;
 *  - the message then spends `wireLatency` in the network;
 *  - reception occupies the input link for T_l + k * T_w seconds;
 *    messages that find the link busy queue in arrival order;
 *  - a PE's phase ends when both links are finally idle.
 *
 * The network here is ideal: every message arrives exactly once.
 * Faults and their recovery live in reliable_exchange.h, whose
 * fault-free timeline equals this one bit for bit.
 */

#ifndef QUAKE98_PARALLEL_EVENT_SIM_H_
#define QUAKE98_PARALLEL_EVENT_SIM_H_

#include <cstdint>
#include <vector>

#include "parallel/comm_schedule.h"
#include "parallel/machine.h"

namespace quake::parallel
{

/** Options for the event-driven exchange simulation. */
struct EventSimOptions
{
    /** Constant network transit time (the paper assumes ~0). */
    double wireLatency = 0.0;

    /**
     * When true, the input and output links operate concurrently
     * (full duplex, the literal Figure 5 picture); when false the two
     * links share the interface, serializing sends and receives — the
     * paper's Equation (2) accounting.
     */
    bool fullDuplex = true;
};

/** Result of simulating one communication phase. */
struct EventSimResult
{
    /** Time at which each PE finished all sends and receives. */
    std::vector<double> peFinishTime;

    /** Phase time: max over PEs. */
    double tComm = 0.0;

    /** Total idle time across PEs (waiting for messages to arrive). */
    double totalIdle = 0.0;

    /** Index of the finishing (slowest) PE. */
    int criticalPe = 0;

    /** Data transmissions issued (one per directed exchange). */
    std::int64_t messagesSent = 0;

    /** Messages that reached their receiver (== messagesSent). */
    std::int64_t messagesDelivered = 0;
};

/**
 * Simulate the exchange phase of `schedule` on `machine`.
 *
 * All PEs begin at time zero (the phase starts at a barrier).  The
 * simulation is deterministic: sends are issued in exchange order
 * (ascending peer), receptions are processed in arrival-time order
 * with ties broken by sender id.  The schedule and machine are
 * validated on entry; malformed input raises common::FatalError.
 */
EventSimResult simulateExchange(const CommSchedule &schedule,
                                const MachineModel &machine,
                                const EventSimOptions &options = {});

} // namespace quake::parallel

#endif // QUAKE98_PARALLEL_EVENT_SIM_H_

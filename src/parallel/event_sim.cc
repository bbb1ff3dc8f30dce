#include "parallel/event_sim.h"

#include <algorithm>
#include <queue>
#include <tuple>

#include "common/error.h"

namespace quake::parallel
{

namespace
{

/** A message queued at a receiver. */
struct QueuedArrival
{
    double time;
    int src;
    std::int64_t words;

    bool
    operator>(const QueuedArrival &o) const
    {
        return std::tie(time, src) > std::tie(o.time, o.src);
    }
};

/** Global simulation events, ordered by (time, kind, pe, src). */
struct Event
{
    enum Kind : int
    {
        kArrival = 0,  ///< a message reaches its receiver
        kLinkFree = 1, ///< a link finishes its current task
    };

    double time;
    Kind kind;
    int pe;
    int src;            ///< sender (arrivals only)
    std::int64_t words; ///< payload (arrivals only)
    int link;           ///< 0 = out / shared, 1 = in (link-free only)

    bool
    operator>(const Event &o) const
    {
        return std::tie(time, kind, pe, src) >
               std::tie(o.time, o.kind, o.pe, o.src);
    }
};

struct PeState
{
    const PeSchedule *schedule = nullptr;
    std::size_t nextSend = 0;
    std::priority_queue<QueuedArrival, std::vector<QueuedArrival>,
                        std::greater<QueuedArrival>>
        arrivals;
    bool linkBusy[2] = {false, false};
    double linkBusyTime[2] = {0.0, 0.0};
    double linkLastDone[2] = {0.0, 0.0};
    double finish = 0.0;
};

} // namespace

EventSimResult
simulateExchange(const CommSchedule &schedule, const MachineModel &machine,
                 const EventSimOptions &options)
{
    machine.validate();
    schedule.validate();
    QUAKE_EXPECT(options.wireLatency >= 0,
                 "wire latency must be nonnegative");

    const int p = schedule.numPes();

    EventSimResult result;
    std::vector<PeState> pes(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i)
        pes[i].schedule = &schedule.pe(i);

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;

    auto transferTime = [&](std::int64_t words) {
        return machine.tl + static_cast<double>(words) * machine.tw;
    };

    // In half-duplex mode both roles share link 0.
    const int in_link = options.fullDuplex ? 1 : 0;

    // Try to start the next task on a link.
    auto tryStart = [&](int pe, int link, double now) {
        PeState &state = pes[pe];
        if (state.linkBusy[link])
            return;

        // Sends are served first (they are ready from the PE's phase
        // start); the input role serves the earliest queued arrival.
        const bool can_send =
            (link == 0) && state.nextSend < state.schedule->exchanges.size();
        const bool can_recv = (link == in_link) &&
                              !state.arrivals.empty() &&
                              state.arrivals.top().time <= now;

        if (can_send) {
            const std::size_t msg = state.nextSend++;
            const Exchange &ex = state.schedule->exchanges[msg];
            const double duration = transferTime(ex.words());
            state.linkBusy[link] = true;
            state.linkBusyTime[link] += duration;
            state.linkLastDone[link] = now + duration;
            events.push(
                Event{now + duration, Event::kLinkFree, pe, -1, 0, link});
            ++result.messagesSent;
            // The message is fully on the wire when the send ends.
            events.push(Event{now + duration + options.wireLatency,
                              Event::kArrival, ex.peer, pe, ex.words(),
                              0});
        } else if (can_recv) {
            const QueuedArrival arrival = state.arrivals.top();
            state.arrivals.pop();
            const double duration = transferTime(arrival.words);
            state.linkBusy[link] = true;
            state.linkBusyTime[link] += duration;
            state.linkLastDone[link] = now + duration;
            events.push(Event{now + duration, Event::kLinkFree, pe,
                              arrival.src, 0, link});
        }
    };

    for (int i = 0; i < p; ++i)
        tryStart(i, 0, 0.0);

    while (!events.empty()) {
        const Event ev = events.top();
        events.pop();
        PeState &state = pes[ev.pe];
        if (ev.kind == Event::kArrival) {
            ++result.messagesDelivered;
            state.arrivals.push(QueuedArrival{ev.time, ev.src, ev.words});
            tryStart(ev.pe, in_link, ev.time);
        } else {
            state.linkBusy[ev.link] = false;
            state.finish = std::max(state.finish, ev.time);
            // The freed link may pick up a send or a queued arrival.
            tryStart(ev.pe, ev.link, ev.time);
        }
    }

    // Every send must have been issued and every arrival consumed.
    for (int i = 0; i < p; ++i) {
        QUAKE_REQUIRE(pes[i].nextSend ==
                          pes[i].schedule->exchanges.size(),
                      "simulation ended with unsent messages");
        QUAKE_REQUIRE(pes[i].arrivals.empty(),
                      "simulation ended with unconsumed arrivals");
    }
    QUAKE_REQUIRE(result.messagesDelivered == result.messagesSent,
                  "message conservation violated");

    result.peFinishTime.resize(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
        result.peFinishTime[i] = pes[i].finish;
        if (pes[i].finish > result.tComm) {
            result.tComm = pes[i].finish;
            result.criticalPe = i;
        }
        // Idle: time each active link spent not transferring before it
        // completed its last task.
        for (int link = 0; link < (options.fullDuplex ? 2 : 1); ++link) {
            if (pes[i].linkBusyTime[link] > 0)
                result.totalIdle += pes[i].linkLastDone[link] -
                                    pes[i].linkBusyTime[link];
        }
    }
    return result;
}

} // namespace quake::parallel

/**
 * @file
 * Tick-ordered event queue driving everything that is not stepped
 * cycle-by-cycle (disk request completion, spin-up timers, sampling).
 */

#ifndef SOFTWATT_SIM_EVENT_QUEUE_HH
#define SOFTWATT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "types.hh"

namespace softwatt
{

class ChunkWriter;
class ChunkReader;

/**
 * Time-ordered queue of callbacks.
 *
 * Events are closures scheduled at an absolute tick. The queue owns the
 * notion of "now"; the top-level simulation loop advances time either
 * cycle-by-cycle (detailed execution) or by jumping to the next event
 * (idle fast-forward).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Opaque handle used to cancel a scheduled event. */
    using EventId = std::uint64_t;

    EventQueue() = default;

    /** Current simulated time in ticks. */
    Tick now() const { return currentTick; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick, must be >= now().
     * @param cb Callback invoked when time reaches @p when.
     * @return Handle usable with cancel().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule a callback @p delta ticks in the future. */
    EventId scheduleIn(Cycles delta, Callback cb);

    /** Cancel a previously scheduled event; idempotent. */
    void cancel(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveCount == 0; }

    /** Tick of the earliest live event; maxTick if none. */
    Tick nextEventTick() const;

    /**
     * Advance time to @p target, running every event scheduled at or
     * before it in timestamp order. Time never moves backwards.
     */
    void advanceTo(Tick target);

    /**
     * Run events until the queue drains or @p limit is reached.
     * @return Final value of now().
     */
    Tick runUntil(Tick limit = maxTick);

    /** Number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return executedCount; }

    /**
     * Checkpointing. Callbacks are opaque closures, so the queue
     * serializes only its clock and id counters; each component that
     * had a live event at the checkpoint re-registers it afterwards
     * with restoreEvent(), quoting the original id so the heap's
     * same-tick tie-breaking (smaller id first) is preserved exactly.
     */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

    /**
     * Re-register an event captured in a checkpoint under its
     * original id. @p when must be >= now() and @p id must predate
     * the saved id counter.
     */
    void restoreEvent(Tick when, EventId id, Callback cb);

  private:
    struct Entry
    {
        Tick when;
        EventId id;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };

    Tick currentTick = 0;
    EventId nextId = 1;
    std::uint64_t liveCount = 0;
    std::uint64_t executedCount = 0;
    // ckpt:derived: drained with the heap at quiescent points
    std::unordered_set<EventId> cancelled;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap;

    /** Drop cancelled entries sitting at the top of the heap. */
    void skipCancelled();

    /** Run, in order, every live entry due at or before @p limit,
     *  dropping the cancelled ones among them. */
    void runDue(Tick limit);
};

} // namespace softwatt

#endif // SOFTWATT_SIM_EVENT_QUEUE_HH

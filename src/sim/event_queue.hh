/**
 * @file
 * Discrete-event simulation kernel.
 *
 * An EventQueue orders Events by tick; ties are broken by schedule
 * order (FIFO among same-tick events) so runs are deterministic.
 * Components own their recurring Event objects and schedule them
 * against the queue; one-shot callbacks can be scheduled directly
 * and are owned by the queue.
 *
 * Descheduling and rescheduling are supported via generation
 * counters: every schedule() stamps the event with a fresh token and
 * stale heap entries are discarded lazily when popped.
 *
 * One-shot callbacks are stored in a slot pool: each scheduleFn()
 * reuses a previously-dispatched wrapper slot instead of allocating,
 * and the callable's captures live in the slot's SmallFn inline
 * buffer.  A slot is released only after its callback returns, so a
 * callback may schedule further callbacks (including at the same
 * tick) without ever being handed its own still-running slot.
 *
 * Pending events live in a calendar queue: a timing wheel of
 * per-tick buckets covering the near future (where nearly all
 * protocol events land — message deliveries and retry windows are
 * all well under the wheel span), with a 4-ary min-heap overflow for
 * far-future events (migration epochs, periodic scans).  Insert and
 * extract are O(1) on the wheel path, and dispatch order is exactly
 * the (tick, sequence) total order a comparison heap would produce:
 * a bucket only ever holds entries for a single tick and stays
 * sorted by sequence number.  Ordinary schedules append (their
 * sequence number is the newest); overflow entries for a tick are
 * migrated into its bucket, in heap order, before any direct insert
 * can target it; and a late insert (scheduleFnAt(), at a sequence
 * number reserved earlier with takeSeqs()) goes to its upper_bound
 * position behind the bucket's head.
 */

#ifndef VSNOOP_SIM_EVENT_QUEUE_HH_
#define VSNOOP_SIM_EVENT_QUEUE_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.hh"
#include "sim/types.hh"

namespace vsnoop
{

class EventQueue;
struct EventQueuePerf;

/**
 * Base class for anything that can be scheduled on an EventQueue.
 */
class Event
{
  public:
    virtual ~Event() = default;

    /** Invoked by the queue when simulated time reaches the event. */
    virtual void process() = 0;

    /** True while the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return scheduled_; }

    /** Tick the event is currently scheduled for (kMaxTick if none). */
    Tick when() const { return scheduled_ ? when_ : kMaxTick; }

  private:
    friend class EventQueue;

    bool scheduled_ = false;
    Tick when_ = kMaxTick;
    std::uint64_t token_ = 0;
};

/**
 * The simulation clock and pending-event heap.
 */
class EventQueue
{
  public:
    /** One-shot callback type accepted by scheduleFn(). */
    using Callback = SmallFn<void()>;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Number of events dispatched since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** True when no events remain pending. */
    bool empty() const { return live_ == 0; }

    /**
     * Schedule a component-owned event at an absolute tick.
     * Rescheduling an already-scheduled event moves it.
     *
     * @param event Event to dispatch; must outlive dispatch.
     * @param when Absolute tick, not before now().
     */
    void schedule(Event &event, Tick when);

    /** Schedule a component-owned event @p delay ticks from now. */
    void scheduleIn(Event &event, Tick delay) {
        schedule(event, now_ + delay);
    }

    /** Remove a pending event from the queue (no-op if idle). */
    void deschedule(Event &event);

    /**
     * Schedule a one-shot callback at an absolute tick.  The queue
     * owns the wrapper and recycles it after dispatch.
     */
    void scheduleFn(Tick when, Callback fn);

    /** Schedule a one-shot callback @p delay ticks from now. */
    void scheduleFnIn(Tick delay, Callback fn) {
        scheduleFn(now_ + delay, std::move(fn));
    }

    /**
     * Reserve the @p n sequence numbers the next @p n schedules
     * would take, without scheduling anything; returns the first.
     * A caller that decides not to schedule an event yet keeps its
     * place in the (tick, sequence) order this way, and can still
     * schedule it there later with scheduleFnAt().  Scheduling part
     * of a block in increasing sequence order right away dispatches
     * exactly like the eager schedules it stands for.
     */
    std::uint64_t
    takeSeqs(std::uint64_t n)
    {
        std::uint64_t first = seq_;
        seq_ += n;
        return first;
    }

    /**
     * Schedule a one-shot callback at the position (@p when, @p seq)
     * reserved earlier with takeSeqs(): it dispatches exactly where
     * an event scheduled at reservation time would have.  Panics
     * when that position has already been dispatched (see passed()).
     */
    void scheduleFnAt(Tick when, std::uint64_t seq, Callback fn);

    /**
     * True when an event at (@p when, @p seq) would already have
     * been dispatched: the clock is past @p when, or the last event
     * dispatched sits at @p when with a sequence number of at least
     * @p seq.
     */
    bool
    passed(Tick when, std::uint64_t seq) const
    {
        return when < now_ || (when == lastWhen_ && seq <= lastSeq_);
    }

    /**
     * Dispatch pending events in order until the queue drains or
     * the limit is hit.
     *
     * @param limit Maximum events to dispatch (guards against
     *        accidental infinite event chains).
     * @return Number of events dispatched.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /**
     * Dispatch events with tick <= until, then set now() to
     * @p until even if the queue drained early.
     *
     * @return Number of events dispatched.
     */
    std::uint64_t runUntil(Tick until);

    /** Dispatch exactly one event if any is pending. */
    bool step();

    /**
     * Attach an internals counter block (sim/perfmon.hh); nullptr
     * detaches.  Every hook is branch-on-null, so it costs one
     * predictable branch when detached.
     */
    void setPerf(EventQueuePerf *perf) { perf_ = perf; }

    /** @{
     * Live structure occupancy, read by the perfmon interval
     * sampler (and anyone else curious).
     */
    std::uint64_t wheelEntries() const { return wheelCount_; }
    std::uint64_t overflowEntries() const { return overflow_.size(); }
    std::uint64_t poolSlots() const { return pool_.size(); }
    /** @} */

  private:
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Event *event;
        std::uint64_t token;

        bool
        operator>(const HeapEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    /**
     * A pooled wrapper for one-shot callbacks.  Slots live at stable
     * addresses (behind unique_ptr) for the queue's lifetime and are
     * recycled through freeSlots_ once their callback has returned.
     */
    class OwnedEvent : public Event
    {
      public:
        OwnedEvent(EventQueue &eq, std::uint32_t slot)
            : eq_(eq), slot_(slot)
        {
        }

        void process() override;

        Callback fn;

      private:
        EventQueue &eq_;
        std::uint32_t slot_;
    };

    /**
     * One wheel slot.  While a tick is within the wheel's window its
     * bucket is sorted by sequence number: entries drain from head,
     * and are inserted at the back or, late, behind head.
     * head-consumed prefixes are reclaimed lazily when the bucket
     * empties (capacity is kept for reuse).
     */
    struct Bucket
    {
        std::vector<HeapEntry> entries;
        std::size_t head = 0;
    };

    /** Wheel span in ticks (power of two). */
    static constexpr std::size_t kWheelBits = 12;
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;

    /**
     * Find the next valid (non-stale) entry without consuming it.
     * Stale entries encountered on the way are discarded.
     */
    bool peekNext(HeapEntry &out);

    /** Consume the entry peekNext() just returned. */
    void consumePeeked();

    /** peekNext + consumePeeked in one step. */
    bool popNext(HeapEntry &out);

    /** Dispatch one popped entry. */
    void dispatch(HeapEntry &entry);

    /** Stamp @p event and queue it at (@p when, @p seq). */
    void scheduleAt(Event &event, Tick when, std::uint64_t seq);

    /** A free one-shot slot holding @p fn. */
    OwnedEvent &ownedSlot(Callback fn);

    /**
     * Insert into the wheel bucket for entry.when at its sequence
     * position: an append, except for late inserts.
     */
    void wheelInsert(const HeapEntry &entry);

    /**
     * Advance the clock and slide the wheel window: overflow entries
     * that fall inside the new window move into their buckets.  Must
     * run at every now_ change so buckets stay sequence-sorted (see
     * file comment).
     */
    void advanceTo(Tick t);

    /** @{
     * 4-ary min-heap over (when, seq) for beyond-the-window events.
     */
    void heapPush(const HeapEntry &entry);
    void heapPopTop();
    /** @} */

    std::vector<Bucket> wheel_{kWheelSize};
    /** Entries (valid + stale) currently in wheel buckets. */
    std::uint64_t wheelCount_ = 0;
    /**
     * No wheel entry lives at a tick below peekCursor_; scans resume
     * here instead of at now_.  Pulled back on any insert below it.
     */
    Tick peekCursor_ = 0;
    /** The entry peekNext() found came from overflow_, not the wheel. */
    bool peekFromOverflow_ = false;
    std::vector<HeapEntry> overflow_;
    EventQueuePerf *perf_ = nullptr;
    std::vector<std::unique_ptr<OwnedEvent>> pool_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    /** Position of the last dispatched event (see passed()). */
    Tick lastWhen_ = kMaxTick;
    std::uint64_t lastSeq_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t nextToken_ = 1;
    std::uint64_t processed_ = 0;
    std::uint64_t live_ = 0;
};

} // namespace vsnoop

#endif // VSNOOP_SIM_EVENT_QUEUE_HH_

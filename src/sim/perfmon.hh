/**
 * @file
 * Simulator-internals performance monitor (perfmon).
 *
 * The hot-path machinery — the calendar event queue, the FlatMap
 * protocol tables, the pooled one-shot events, the mesh send loop —
 * is tuned blind without occupancy and health counters: a probe
 * chain that degrades, a wheel bucket that deepens, or a pool that
 * keeps refilling shows up only as a mysterious runs/s regression.
 * Perfmon gives those structures the same self-measurement
 * discipline the simulated protocol already has.
 *
 * The hooks follow the repository's branch-on-null contract
 * (trace/trace.hh, trace/critpath.hh): every instrumented component
 * holds a nullable pointer to its counter block and pays one
 * predictable branch per site when monitoring is off.  Counters are
 * plain (non-atomic) and thread-confined to the owning SimSystem,
 * like every other per-run statistic.
 *
 * Everything recorded here is a deterministic function of the
 * simulation (structure sizes, probe counts, backlog cycles — never
 * wall-clock time), so the `results.perf` JSON block is
 * byte-identical across --jobs values, and absent entirely when
 * monitoring is off.
 *
 * PerfExport aggregates finished runs' PerfMon blocks across a
 * sweep's worker threads (merge under a mutex at run end) and
 * exposes them as Prometheus series on the sweep/serve /metrics
 * endpoint.
 */

#ifndef VSNOOP_SIM_PERFMON_HH_
#define VSNOOP_SIM_PERFMON_HH_

#include <cstdint>
#include <mutex>
#include <string>

#include "sim/stats.hh"

namespace vsnoop
{

class JsonWriter;
class MetricsRegistry;

/**
 * EventQueue health: wheel and overflow-heap pressure plus the
 * one-shot callback pool's churn.  Occupancy histograms are sampled
 * by the IntervalSampler (one sample per interval); the counters
 * accumulate per structural operation.
 */
struct EventQueuePerf
{
    /** schedule() calls (reschedules included). */
    std::uint64_t schedules = 0;
    /** deschedule() calls that removed a pending event. */
    std::uint64_t deschedules = 0;
    /** Entries appended to wheel buckets (overflow migrations
     *  included — they are wheel pressure too). */
    std::uint64_t wheelInserts = 0;
    /** Entries pushed onto the far-future overflow heap. */
    std::uint64_t overflowInserts = 0;
    /** High-water mark of entries resident in wheel buckets. */
    std::uint64_t maxWheelEntries = 0;
    /** High-water mark of the overflow heap. */
    std::uint64_t maxOverflowEntries = 0;
    /** Deepest same-tick FIFO bucket ever observed. */
    std::uint64_t maxBucketDepth = 0;
    /** OwnedEvent slots ever allocated (the pool never shrinks). */
    std::uint64_t poolHighWater = 0;
    /** scheduleFn() calls that grew the pool. */
    std::uint64_t poolRefills = 0;
    /** scheduleFn() calls served from the free list. */
    std::uint64_t poolReuses = 0;
    /** @{ Interval-sampled occupancy (entries at sample ticks). */
    LatencyHistogram wheelOccupancy;
    LatencyHistogram overflowOccupancy;
    /** @} */

    void merge(const EventQueuePerf &other);
    void writeJson(JsonWriter &json) const;
};

/**
 * One named FlatMap's probe health.  Probe length counts slots
 * touched per lookup/insert probe (1 = direct hit on the home
 * slot), so a healthy table keeps the histogram mass in the first
 * couple of buckets; growing tails predict a rehash tuning.
 */
struct FlatTablePerf
{
    /** Slots touched per findSlot()/probeForInsert() probe. */
    LatencyHistogram probeLength;
    /** Capacity-doubling rehashes. */
    std::uint64_t growthRehashes = 0;
    /** Same-capacity re-packs triggered by tombstone load. */
    std::uint64_t tombstoneCleanups = 0;
    /** High-water mark of live entries. */
    std::uint64_t maxEntries = 0;
    /** Interval-sampled live-entry occupancy. */
    LatencyHistogram occupancy;
    /** @{ End-of-run snapshot (filled when results are taken). */
    std::uint64_t endSize = 0;
    std::uint64_t endCapacity = 0;
    /** @} */

    /** endSize / endCapacity (0 when the capacity is unknown). */
    double loadFactor() const;

    void merge(const FlatTablePerf &other);
    void writeJson(JsonWriter &json) const;
};

/**
 * Mesh send-loop shape: how far each XY leg walks and how many
 * cycles each hop waits behind earlier traffic.  Backlog records
 * every hop (zero-wait hops land in bucket 0), so the histogram is
 * the true backlog distribution, not just the contended tail.
 */
struct MeshPerf
{
    /** Cycles waited behind a busy link, one sample per hop. */
    LatencyHistogram sendBacklog;
    /** Hops walked per XY leg, one sample per leg. */
    LatencyHistogram legLength;

    void merge(const MeshPerf &other);
    void writeJson(JsonWriter &json) const;
};

/**
 * The full per-run counter block, owned by SimSystem and copied
 * into SystemResults at results() time.  `enabled` gates JSON
 * emission so runs without --perf stay byte-identical.
 */
struct PerfMon
{
    bool enabled = false;
    EventQueuePerf eventQueue;
    FlatTablePerf mshrs;
    FlatTablePerf inflight;
    FlatTablePerf memoryLedger;
    MeshPerf mesh;

    void merge(const PerfMon &other);

    /** The `results.perf` block (deterministic member order). */
    void writeJson(JsonWriter &json) const;
};

/**
 * Sweep-level perfmon aggregation for live telemetry.
 *
 * Worker threads add() each finished run's PerfMon (merge under the
 * internal mutex — off the simulation hot path); the registry's
 * single publisher thread stages the aggregate with stageMetrics()
 * before its publish().  registerMetrics() must run before
 * registry.freeze(), like every other series owner.
 */
class PerfExport
{
  public:
    /** Register the vsnoop_perf_* series.  Call once. */
    void registerMetrics(MetricsRegistry &registry);

    /** Fold one finished run's counters in (any thread). */
    void add(const PerfMon &perf);

    /** Runs aggregated so far. */
    std::uint64_t runs() const;

    /** Stage current aggregates (publisher thread only). */
    void stageMetrics(MetricsRegistry &registry) const;

  private:
    mutable std::mutex mutex_;
    PerfMon total_;
    std::uint64_t runs_ = 0;

    struct TableIds
    {
        std::size_t probeLength = 0;
        std::size_t occupancy = 0;
        std::size_t growthRehashes = 0;
        std::size_t tombstoneCleanups = 0;
        std::size_t maxEntries = 0;
        std::size_t loadFactor = 0;
    };

    std::size_t runsId_ = 0;
    std::size_t schedulesId_ = 0;
    std::size_t deschedulesId_ = 0;
    std::size_t wheelInsertsId_ = 0;
    std::size_t overflowInsertsId_ = 0;
    std::size_t maxWheelEntriesId_ = 0;
    std::size_t maxOverflowEntriesId_ = 0;
    std::size_t maxBucketDepthId_ = 0;
    std::size_t poolHighWaterId_ = 0;
    std::size_t poolRefillsId_ = 0;
    std::size_t poolReusesId_ = 0;
    std::size_t wheelOccupancyId_ = 0;
    std::size_t overflowOccupancyId_ = 0;
    TableIds tableIds_[3];
    std::size_t sendBacklogId_ = 0;
    std::size_t legLengthId_ = 0;
    bool metricsRegistered_ = false;
};

} // namespace vsnoop

#endif // VSNOOP_SIM_PERFMON_HH_

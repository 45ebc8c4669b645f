/**
 * @file
 * Abstract on-chip network interface.
 *
 * The coherence layer talks to the network purely in terms of
 * "deliver this many bytes from node A to node B, tell me when it
 * arrives".  Two implementations exist: the 4x4 2D mesh matching
 * the paper's Garnet configuration (Table II), and an idealized
 * crossbar used for the network-sensitivity ablation.
 *
 * Traffic accounting matches the paper's Table IV metric: the total
 * amount of data transferred through the network, i.e. message
 * bytes multiplied by the number of links each message traverses.
 */

#ifndef VSNOOP_NOC_NETWORK_HH_
#define VSNOOP_NOC_NETWORK_HH_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/core_set.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vsnoop
{

/** Node index on the network (cores and memory controllers). */
using NodeId = std::uint32_t;

/** Sentinel node id: "no node". */
constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/**
 * Message classes, for per-class traffic accounting.
 */
enum class MsgClass : std::uint8_t
{
    /** Coherence request (transient / persistent snoop). */
    Request,
    /** Token or ack response without data. */
    Response,
    /** Data-bearing response or writeback. */
    Data,
    /** vCPU map synchronization and other control traffic. */
    Control,
};

/** Number of MsgClass values. */
constexpr std::size_t kNumMsgClasses = 4;

/**
 * Per-class and aggregate traffic statistics.
 */
struct NetworkStats
{
    Counter messages[kNumMsgClasses];
    Counter bytes[kNumMsgClasses];
    /**
     * Link occupancy weighted by hop count: flits * link width *
     * hops.  This is the Table IV traffic metric — what the wires
     * actually carry, including flit padding of small messages.
     */
    Counter byteHops[kNumMsgClasses];

    std::uint64_t
    totalMessages() const
    {
        std::uint64_t sum = 0;
        for (const auto &c : messages)
            sum += c.value();
        return sum;
    }

    std::uint64_t
    totalByteHops() const
    {
        std::uint64_t sum = 0;
        for (const auto &c : byteHops)
            sum += c.value();
        return sum;
    }
};

/**
 * Per-directed-link traffic snapshot, for spatial heatmaps.
 *
 * The aggregate byteHops metric charges node-local delivery
 * (src == dst) one hop even though no physical link is traversed;
 * so that per-link accounting conserves the aggregate exactly,
 * each node also exposes a loopback pseudo-link (from == to) that
 * absorbs the local-delivery charge.  Loopback entries never carry
 * busy or wait cycles — local delivery is uncontended in the
 * timing model.
 */
struct LinkStat
{
    NodeId from = 0;
    /** Downstream node; equal to @p from for the loopback entry. */
    NodeId to = 0;
    /** Bytes carried (flit-padded), per message class. */
    std::uint64_t byteHops[kNumMsgClasses] = {};
    /** Cycles the link spent serializing flits. */
    std::uint64_t busyCycles = 0;
    /** Cycles messages waited for this link behind earlier traffic. */
    std::uint64_t waitCycles = 0;

    std::uint64_t
    totalByteHops() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t b : byteHops)
            sum += b;
        return sum;
    }
};

/**
 * Per-send observability, filled by send() when the caller asks.
 * Reporting only: requesting it never changes delivery timing.
 */
struct SendInfo
{
    /** Physical links traversed (0 for node-local delivery). */
    std::uint32_t hops = 0;
    /**
     * Cycles the message waited for busy links along its path, on
     * top of the unloaded latency.  The critical-path layer
     * aggregates this per message class (trace/critpath.hh).
     */
    Tick queueWait = 0;
};

/**
 * Network interface.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /**
     * Send @p bytes from @p src to @p dst, departing at @p now.
     *
     * @param info When non-null, receives per-send hop and
     *        queue-wait observability (see SendInfo).
     * @return Tick at which the last flit arrives at @p dst.
     */
    virtual Tick send(NodeId src, NodeId dst, std::uint32_t bytes,
                      MsgClass cls, Tick now,
                      SendInfo *info = nullptr) = 0;

    /**
     * Send one message from @p src to every node in @p dsts, all
     * departing at @p now.  The arrivals, the statistics and the
     * link state it leaves are exactly those of send() to each
     * destination in increasing node order; this base version is
     * that loop.
     *
     * @param arrive Receives the arrival tick of the send to node d
     *        at arrive[d], for every d in @p dsts; other entries are
     *        left untouched.
     * @param info When non-null, receives the SendInfo of every
     *        send summed: total hops and total queue wait.
     * @return The latest arrival over @p dsts (0 when it is empty).
     */
    virtual Tick
    multicast(NodeId src, CoreSet dsts, std::uint32_t bytes, MsgClass cls,
              Tick now, Tick *arrive, SendInfo *info = nullptr)
    {
        if (info != nullptr)
            *info = SendInfo{};
        Tick last = 0;
        dsts.forEach([&](CoreId dst) {
            SendInfo one;
            arrive[dst] = send(src, dst, bytes, cls, now,
                               info != nullptr ? &one : nullptr);
            last = std::max(last, arrive[dst]);
            if (info != nullptr) {
                info->hops += one.hops;
                info->queueWait += one.queueWait;
            }
        });
        return last;
    }

    /** Number of network nodes. */
    virtual std::uint32_t numNodes() const = 0;

    /** Traffic statistics (accumulated across all sends). */
    const NetworkStats &stats() const { return stats_; }

    /**
     * Per-link traffic snapshot in a deterministic (node-major)
     * order.  Empty for networks that do not model individual
     * links.  For networks that do, summing byteHops over all
     * entries (loopbacks included) reproduces the aggregate
     * byteHops for every message class.
     */
    virtual std::vector<LinkStat> linkStats() const { return {}; }

    /** Reset traffic statistics (e.g. after warmup). */
    virtual void resetStats() { stats_ = NetworkStats{}; }

  protected:
    NetworkStats stats_;
};

} // namespace vsnoop

#endif // VSNOOP_NOC_NETWORK_HH_

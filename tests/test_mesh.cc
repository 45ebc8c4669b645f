/**
 * @file
 * Unit tests for the 2D mesh and the ideal crossbar.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "noc/mesh.hh"
#include "sim/perfmon.hh"

namespace vsnoop::test
{

namespace
{
MeshConfig
defaultConfig()
{
    return MeshConfig{}; // 4x4, 16B links, 4-cycle routers
}
} // namespace

TEST(Mesh, HopCountIsManhattan)
{
    Mesh mesh(defaultConfig());
    EXPECT_EQ(mesh.hopCount(0, 0), 0u);
    EXPECT_EQ(mesh.hopCount(0, 3), 3u);   // same row
    EXPECT_EQ(mesh.hopCount(0, 12), 3u);  // same column
    EXPECT_EQ(mesh.hopCount(0, 15), 6u);  // corner to corner
    EXPECT_EQ(mesh.hopCount(5, 10), 2u);
    EXPECT_EQ(mesh.hopCount(10, 5), 2u);
}

TEST(Mesh, UnloadedLatencyFormula)
{
    Mesh mesh(defaultConfig());
    // 1 hop, 1 flit: pipeline(4) + link(1) = 5.
    EXPECT_EQ(mesh.unloadedLatency(0, 1, 8), 5u);
    // 1 hop, data message 72B = 5 flits: + 4 extra link cycles.
    EXPECT_EQ(mesh.unloadedLatency(0, 1, 72), 9u);
    // 6 hops, 1 flit.
    EXPECT_EQ(mesh.unloadedLatency(0, 15, 8), 30u);
    // Local delivery.
    EXPECT_EQ(mesh.unloadedLatency(3, 3, 72), 1u);
}

TEST(Mesh, SendMatchesUnloadedLatencyWhenIdle)
{
    Mesh mesh(defaultConfig());
    Tick arrive = mesh.send(0, 15, 72, MsgClass::Data, 100);
    EXPECT_EQ(arrive, 100 + mesh.unloadedLatency(0, 15, 72));
}

TEST(Mesh, ContentionDelaysSecondMessage)
{
    Mesh mesh(defaultConfig());
    Tick first = mesh.send(0, 1, 72, MsgClass::Data, 0);
    Tick second = mesh.send(0, 1, 72, MsgClass::Data, 0);
    EXPECT_GT(second, first);
}

TEST(Mesh, DisjointPathsDoNotInterfere)
{
    Mesh mesh(defaultConfig());
    Tick a = mesh.send(0, 1, 72, MsgClass::Data, 0);
    Tick b = mesh.send(14, 15, 72, MsgClass::Data, 0);
    EXPECT_EQ(a, mesh.unloadedLatency(0, 1, 72));
    EXPECT_EQ(b, mesh.unloadedLatency(14, 15, 72));
}

TEST(Mesh, TrafficAccountingCountsLinkOccupancy)
{
    Mesh mesh(defaultConfig());
    mesh.send(0, 3, 8, MsgClass::Request, 0);   // 3 hops, 1 flit
    mesh.send(0, 0, 8, MsgClass::Request, 0);   // local: 1 hop min
    mesh.send(0, 15, 72, MsgClass::Data, 0);    // 6 hops, 5 flits
    const NetworkStats &stats = mesh.stats();
    auto req = static_cast<std::size_t>(MsgClass::Request);
    auto dat = static_cast<std::size_t>(MsgClass::Data);
    EXPECT_EQ(stats.messages[req].value(), 2u);
    EXPECT_EQ(stats.bytes[req].value(), 16u);
    // Occupancy: flits (1) * link width (16) * hops.
    EXPECT_EQ(stats.byteHops[req].value(), 16u * 3 + 16u * 1);
    EXPECT_EQ(stats.byteHops[dat].value(), 5u * 16 * 6);
    EXPECT_EQ(stats.totalMessages(), 3u);
    EXPECT_EQ(stats.totalByteHops(), 16u * 4 + 5u * 16 * 6);
}

TEST(Mesh, PerClassByteHopsOnKnownRoutes)
{
    Mesh mesh(defaultConfig()); // 4x4, 16B links
    // One message per class on a known route; each class must
    // accumulate hop-weighted occupancy independently.
    mesh.send(0, 3, 8, MsgClass::Request, 0);    // 3 hops, 1 flit
    mesh.send(15, 12, 8, MsgClass::Response, 0); // 3 hops, 1 flit
    mesh.send(0, 15, 72, MsgClass::Data, 0);     // 6 hops, 5 flits
    // The Control lane carries vCPU-map synchronization: an 8-byte
    // update 0 -> 5 (2 hops) and a 20-byte payload 5 -> 5 (local
    // delivery, charged min 1 hop, 2 flits).
    mesh.send(0, 5, 8, MsgClass::Control, 0);
    mesh.send(5, 5, 20, MsgClass::Control, 0);

    const NetworkStats &stats = mesh.stats();
    auto cls = [](MsgClass c) { return static_cast<std::size_t>(c); };
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Request)].value(),
              1u * 16 * 3);
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Response)].value(),
              1u * 16 * 3);
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Data)].value(),
              5u * 16 * 6);
    EXPECT_EQ(stats.byteHops[cls(MsgClass::Control)].value(),
              1u * 16 * 2 + 2u * 16 * 1);
    // Raw byte counts are hop-independent.
    EXPECT_EQ(stats.bytes[cls(MsgClass::Control)].value(), 28u);
    EXPECT_EQ(stats.messages[cls(MsgClass::Control)].value(), 2u);
    EXPECT_EQ(stats.totalByteHops(),
              16u * 3 + 16u * 3 + 5u * 16 * 6 + 16u * 2 + 2u * 16);
}

TEST(Mesh, ControlLaneSharesLinksWithOtherClasses)
{
    Mesh mesh(defaultConfig());
    // Control traffic is not a separate physical network: a control
    // message must contend for the same link as a data message.
    Tick data = mesh.send(0, 1, 72, MsgClass::Data, 0);
    Tick control = mesh.send(0, 1, 8, MsgClass::Control, 0);
    EXPECT_GT(control, mesh.unloadedLatency(0, 1, 8));
    EXPECT_GT(control, 0u);
    EXPECT_GT(data, 0u);
}

TEST(Mesh, ResetStatsClears)
{
    Mesh mesh(defaultConfig());
    mesh.send(0, 1, 8, MsgClass::Request, 0);
    mesh.resetStats();
    EXPECT_EQ(mesh.stats().totalMessages(), 0u);
}

TEST(Mesh, NonSquareGeometry)
{
    MeshConfig cfg;
    cfg.width = 8;
    cfg.height = 2;
    Mesh mesh(cfg);
    EXPECT_EQ(mesh.numNodes(), 16u);
    EXPECT_EQ(mesh.hopCount(0, 15), 8u); // 7 east + 1 north
}

TEST(MeshDeath, NodeOutOfRangePanics)
{
    Mesh mesh(defaultConfig());
    EXPECT_DEATH(mesh.send(0, 99, 8, MsgClass::Request, 0),
                 "out of range");
}

TEST(IdealCrossbar, FixedLatencyAnyPair)
{
    IdealCrossbar xbar(16, 8);
    EXPECT_EQ(xbar.send(0, 15, 8, MsgClass::Request, 10), 18u);
    EXPECT_EQ(xbar.send(3, 4, 8, MsgClass::Request, 10), 18u);
    // Multi-flit serialization still counts.
    EXPECT_EQ(xbar.send(0, 1, 72, MsgClass::Data, 0), 8u + 4);
}

TEST(IdealCrossbar, TrafficIsSingleHop)
{
    IdealCrossbar xbar(16, 8);
    xbar.send(0, 15, 72, MsgClass::Data, 0);
    auto dat = static_cast<std::size_t>(MsgClass::Data);
    EXPECT_EQ(xbar.stats().byteHops[dat].value(), 5u * 16);
}

namespace
{
const LinkStat *
findLink(const std::vector<LinkStat> &links, NodeId from, NodeId to)
{
    for (const LinkStat &l : links)
        if (l.from == from && l.to == to)
            return &l;
    return nullptr;
}
} // namespace

TEST(MeshLinkStats, GeometryOfFourByFour)
{
    Mesh mesh(defaultConfig());
    std::vector<LinkStat> links = mesh.linkStats();
    // 4x4: 2*4*3 horizontal + 2*4*3 vertical directed links plus one
    // loopback pseudo-link per node.
    EXPECT_EQ(links.size(), 48u + 16u);
    std::size_t loopbacks = 0;
    for (const LinkStat &l : links) {
        EXPECT_LT(l.from, 16u);
        EXPECT_LT(l.to, 16u);
        if (l.from == l.to)
            loopbacks++;
        else
            EXPECT_EQ(mesh.hopCount(l.from, l.to), 1u);
    }
    EXPECT_EQ(loopbacks, 16u);
}

TEST(MeshLinkStats, PerLinkSumsConserveAggregateByteHops)
{
    Mesh mesh(defaultConfig());
    // A mix of classes, routes, and local deliveries; the per-link
    // ledger (including loopback pseudo-links) must sum to the
    // aggregate byte-hop counters exactly, per message class.
    mesh.send(0, 3, 8, MsgClass::Request, 0);
    mesh.send(5, 5, 8, MsgClass::Request, 0);
    mesh.send(15, 0, 72, MsgClass::Data, 0);
    mesh.send(2, 14, 8, MsgClass::Response, 10);
    mesh.send(7, 7, 20, MsgClass::Control, 10);
    mesh.send(1, 13, 8, MsgClass::Control, 20);
    mesh.send(12, 15, 72, MsgClass::Data, 20);

    std::vector<LinkStat> links = mesh.linkStats();
    for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        std::uint64_t per_link = 0;
        for (const LinkStat &l : links)
            per_link += l.byteHops[c];
        EXPECT_EQ(per_link, mesh.stats().byteHops[c].value())
            << "class " << c;
    }
}

TEST(MeshLinkStats, LoopbacksCarryBytesButNoCycles)
{
    Mesh mesh(defaultConfig());
    mesh.send(5, 5, 20, MsgClass::Control, 0); // 2 flits
    std::vector<LinkStat> links = mesh.linkStats();
    const LinkStat *loop = findLink(links, 5, 5);
    ASSERT_NE(loop, nullptr);
    auto ctl = static_cast<std::size_t>(MsgClass::Control);
    EXPECT_EQ(loop->byteHops[ctl], 2u * 16);
    // Local delivery bypasses the network, so the pseudo-link never
    // accumulates occupancy or backlog.
    EXPECT_EQ(loop->busyCycles, 0u);
    EXPECT_EQ(loop->waitCycles, 0u);
}

TEST(MeshLinkStats, BusyAndWaitCyclesOnContendedLink)
{
    Mesh mesh(defaultConfig()); // pipeline 4, link latency 1
    // Two 5-flit messages over the same single link.  Each occupies
    // the link for 5 cycles; the second head is ready at tick 4 but
    // the link is busy until tick 9, so it logs 5 wait cycles.
    mesh.send(0, 1, 72, MsgClass::Data, 0);
    mesh.send(0, 1, 72, MsgClass::Data, 0);
    // findLink points into the snapshot, so the snapshot must outlive
    // both lookups.
    std::vector<LinkStat> links = mesh.linkStats();
    const LinkStat *east = findLink(links, 0, 1);
    ASSERT_NE(east, nullptr);
    EXPECT_EQ(east->busyCycles, 10u);
    EXPECT_EQ(east->waitCycles, 5u);
    EXPECT_EQ(east->totalByteHops(), 2u * 5 * 16);
    // The reverse direction is a distinct link and stays idle.
    const LinkStat *west = findLink(links, 1, 0);
    ASSERT_NE(west, nullptr);
    EXPECT_EQ(west->totalByteHops(), 0u);
    EXPECT_EQ(west->busyCycles, 0u);
}

TEST(MeshLinkStats, ResetStatsClearsLinkLedger)
{
    Mesh mesh(defaultConfig());
    mesh.send(0, 15, 72, MsgClass::Data, 0);
    mesh.send(3, 3, 8, MsgClass::Request, 0);
    mesh.resetStats();
    for (const LinkStat &l : mesh.linkStats()) {
        EXPECT_EQ(l.totalByteHops(), 0u);
        EXPECT_EQ(l.busyCycles, 0u);
        EXPECT_EQ(l.waitCycles, 0u);
    }
}

TEST(IdealCrossbar, HasNoPerLinkStats)
{
    IdealCrossbar xbar(16, 8);
    xbar.send(0, 15, 72, MsgClass::Data, 0);
    EXPECT_TRUE(xbar.linkStats().empty());
}

namespace
{
void
expectSameHistogram(const LatencyHistogram &a, const LatencyHistogram &b,
                    const std::string &where)
{
    EXPECT_EQ(a.count(), b.count()) << where;
    EXPECT_EQ(a.sum(), b.sum()) << where;
    EXPECT_EQ(a.min(), b.min()) << where;
    EXPECT_EQ(a.max(), b.max()) << where;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
        EXPECT_EQ(a.bucketHits(i), b.bucketHits(i))
            << where << " bucket " << i;
}

void
expectSameTraffic(const Network &a, const Network &b, const std::string &where)
{
    for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        const NetworkStats &sa = a.stats();
        const NetworkStats &sb = b.stats();
        EXPECT_EQ(sa.messages[c].value(), sb.messages[c].value())
            << where << " class " << c;
        EXPECT_EQ(sa.bytes[c].value(), sb.bytes[c].value())
            << where << " class " << c;
        EXPECT_EQ(sa.byteHops[c].value(), sb.byteHops[c].value())
            << where << " class " << c;
    }
    std::vector<LinkStat> la = a.linkStats();
    std::vector<LinkStat> lb = b.linkStats();
    ASSERT_EQ(la.size(), lb.size()) << where;
    for (std::size_t i = 0; i < la.size(); ++i) {
        std::string link = where + " link " + std::to_string(la[i].from) +
                           "->" + std::to_string(la[i].to);
        EXPECT_EQ(la[i].from, lb[i].from) << link;
        EXPECT_EQ(la[i].to, lb[i].to) << link;
        for (std::size_t c = 0; c < kNumMsgClasses; ++c)
            EXPECT_EQ(la[i].byteHops[c], lb[i].byteHops[c]) << link;
        EXPECT_EQ(la[i].busyCycles, lb[i].busyCycles) << link;
        EXPECT_EQ(la[i].waitCycles, lb[i].waitCycles) << link;
    }
}

/**
 * Drive twin networks with the same random traffic: background
 * send()s on both, so links are busy, then per round one multicast()
 * on @p multi against send() to each destination in increasing order
 * on @p seq.  Returns the total queue wait the multicasts saw.
 */
Tick
expectMulticastEqualsSends(Network &seq, Network &multi, std::uint32_t bytes,
                           std::uint64_t seed, const std::string &where)
{
    std::mt19937_64 rng(seed);
    std::uint32_t n = seq.numNodes();
    std::uint64_t all = CoreSet::firstN(n).mask();
    Tick now = 0;
    Tick total_wait = 0;
    for (int round = 0; round < 300; ++round) {
        std::string at = where + " round " + std::to_string(round);
        now += rng() % 4;
        for (int k = 0; k < 3; ++k) {
            auto src = static_cast<NodeId>(rng() % n);
            auto dst = static_cast<NodeId>(rng() % n);
            std::uint32_t size = rng() % 2 ? 8 : 72;
            auto cls = static_cast<MsgClass>(rng() % kNumMsgClasses);
            EXPECT_EQ(seq.send(src, dst, size, cls, now),
                      multi.send(src, dst, size, cls, now)) << at;
        }
        auto src = static_cast<NodeId>(rng() % n);
        CoreSet dsts;
        switch (round % 6) {
          case 0: break;                                         // empty
          case 1: dsts = CoreSet::single(static_cast<CoreId>(src)); break;
          case 2: dsts = CoreSet::fromMask(all); break;
          default: dsts = CoreSet::fromMask(rng() & all); break;
        }
        bool with_info = round % 2 == 0;
        Tick expect[CoreSet::kMaxCores] = {};
        Tick expect_last = 0;
        SendInfo sum;
        dsts.forEach([&](CoreId d) {
            SendInfo one;
            expect[d] = seq.send(src, d, bytes, MsgClass::Request, now,
                                 with_info ? &one : nullptr);
            expect_last = std::max(expect_last, expect[d]);
            sum.hops += one.hops;
            sum.queueWait += one.queueWait;
        });
        Tick got[CoreSet::kMaxCores] = {};
        SendInfo info{999, 999};
        Tick last = multi.multicast(src, dsts, bytes, MsgClass::Request, now,
                                    got, with_info ? &info : nullptr);
        for (std::size_t d = 0; d < CoreSet::kMaxCores; ++d)
            EXPECT_EQ(got[d], expect[d]) << at << " dst " << d;
        // The latest arrival, self-loopback included; 0 when empty.
        EXPECT_EQ(last, expect_last) << at;
        if (with_info) {
            EXPECT_EQ(info.hops, sum.hops) << at;
            EXPECT_EQ(info.queueWait, sum.queueWait) << at;
            total_wait += info.queueWait;
        } else {
            EXPECT_EQ(info.hops, 999u) << at;
        }
        if (round % 50 == 0)
            expectSameTraffic(seq, multi, at);
    }
    expectSameTraffic(seq, multi, where);
    return total_wait;
}
} // namespace

TEST(MeshMulticast, EqualsSequentialSends)
{
    struct Geometry
    {
        std::uint32_t width;
        std::uint32_t height;
    };
    std::uint64_t seed = 1;
    // 3x5 has a non-power-of-two width (the division fallback).
    for (Geometry g : {Geometry{4, 4}, Geometry{8, 8}, Geometry{8, 2},
                       Geometry{3, 5}}) {
        for (std::uint32_t bytes : {8u, 72u}) {
            std::string where = std::to_string(g.width) + "x" +
                                std::to_string(g.height) + " " +
                                std::to_string(bytes) + "B";
            MeshConfig cfg;
            cfg.width = g.width;
            cfg.height = g.height;
            Mesh seq(cfg);
            Mesh multi(cfg);
            MeshPerf seq_perf;
            MeshPerf multi_perf;
            seq.setPerf(&seq_perf);
            multi.setPerf(&multi_perf);
            Tick wait = expectMulticastEqualsSends(seq, multi, bytes, seed++,
                                                   where);
            // The background traffic must make the walk contend.
            EXPECT_GT(wait, 0u) << where;
            expectSameHistogram(seq_perf.legLength, multi_perf.legLength,
                                where + " legLength");
            expectSameHistogram(seq_perf.sendBacklog, multi_perf.sendBacklog,
                                where + " sendBacklog");
            EXPECT_GT(multi_perf.sendBacklog.count(), 0u) << where;
        }
    }
}

TEST(MeshMulticast, OutOfRangeDestinationPanics)
{
    Mesh mesh(defaultConfig());
    Tick arrive[CoreSet::kMaxCores] = {};
    EXPECT_DEATH(mesh.multicast(0, CoreSet::single(16), 8, MsgClass::Request,
                                0, arrive),
                 "out of range");
}

TEST(IdealCrossbar, MulticastEqualsSequentialSends)
{
    for (std::uint32_t bytes : {8u, 72u}) {
        IdealCrossbar seq(16, 8);
        IdealCrossbar multi(16, 8);
        expectMulticastEqualsSends(seq, multi, bytes, 100 + bytes,
                                   "crossbar " + std::to_string(bytes) + "B");
    }
}

} // namespace vsnoop::test

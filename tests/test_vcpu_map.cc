/**
 * @file
 * Unit tests for the vCPU-to-core mapping and the shuffle migrator.
 */

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "virt/vcpu_map.hh"

namespace vsnoop::test
{

namespace
{

class LoggingListener : public VcpuMappingListener
{
  public:
    struct Entry
    {
        bool placed;
        VCpuId vcpu;
        VmId vm;
        CoreId core;
    };

    void
    onVcpuPlaced(VCpuId vcpu, VmId vm, CoreId core) override
    {
        log.push_back({true, vcpu, vm, core});
    }

    void
    onVcpuRemoved(VCpuId vcpu, VmId vm, CoreId core) override
    {
        log.push_back({false, vcpu, vm, core});
    }

    std::vector<Entry> log;
};

/** The per-VM core sets partition the placed cores and agree with
 *  vmAt() and coresRunning() for every core and VM. */
void
expectVmCoreSetsMatch(const VcpuMapping &map, const std::string &where)
{
    const std::vector<CoreSet> &sets = map.vmCoreSets();
    CoreSet placed;
    std::size_t members = 0;
    for (std::size_t vm = 0; vm < sets.size(); ++vm) {
        EXPECT_EQ(map.coresRunning(static_cast<VmId>(vm)), sets[vm])
            << where << " vm " << vm;
        placed |= sets[vm];
        members += sets[vm].count();
    }
    EXPECT_EQ(members, placed.count()) << where << ": sets overlap";
    for (CoreId c = 0; c < map.numCores(); ++c) {
        VmId vm = map.vmAt(c);
        EXPECT_EQ(placed.contains(c), vm != kInvalidVm)
            << where << " core " << c;
        if (vm != kInvalidVm) {
            ASSERT_LT(vm, sets.size()) << where;
            EXPECT_TRUE(sets[vm].contains(c)) << where << " core " << c;
        }
    }
}

} // namespace

TEST(VcpuMapping, PlaceAndQuery)
{
    VcpuMapping map(8);
    VCpuId v0 = map.addVcpu(0);
    VCpuId v1 = map.addVcpu(1);
    map.place(v0, 3);
    map.place(v1, 5);
    EXPECT_EQ(map.coreOf(v0), 3);
    EXPECT_EQ(map.vcpuAt(3), v0);
    EXPECT_EQ(map.vmAt(3), 0);
    EXPECT_EQ(map.vmAt(5), 1);
    EXPECT_EQ(map.vmAt(0), kInvalidVm);
    EXPECT_EQ(map.vcpuAt(0), kInvalidVCpu);
}

TEST(VcpuMapping, RemoveFreesCore)
{
    VcpuMapping map(4);
    VCpuId v = map.addVcpu(0);
    map.place(v, 2);
    map.removeFromCore(v);
    EXPECT_EQ(map.coreOf(v), kInvalidCore);
    EXPECT_EQ(map.vcpuAt(2), kInvalidVCpu);
    map.removeFromCore(v); // no-op
}

TEST(VcpuMapping, SwapExchangesCores)
{
    VcpuMapping map(4);
    VCpuId a = map.addVcpu(0);
    VCpuId b = map.addVcpu(1);
    map.place(a, 0);
    map.place(b, 3);
    map.swap(a, b);
    EXPECT_EQ(map.coreOf(a), 3);
    EXPECT_EQ(map.coreOf(b), 0);
}

TEST(VcpuMapping, CoresRunningVm)
{
    VcpuMapping map(8);
    VCpuId a = map.addVcpu(2);
    VCpuId b = map.addVcpu(2);
    VCpuId c = map.addVcpu(1);
    map.place(a, 1);
    map.place(b, 6);
    map.place(c, 2);
    CoreSet set = map.coresRunning(2);
    EXPECT_EQ(set.count(), 2u);
    EXPECT_TRUE(set.contains(1));
    EXPECT_TRUE(set.contains(6));
    EXPECT_FALSE(set.contains(2));
}

TEST(VcpuMapping, VmCoreSetsTrackPlacements)
{
    // Random place / removeFromCore / swap, then ShuffleMigrator
    // steps, on 64 cores; VM ids leave a gap (no VM 4) and some
    // cores stay idle.
    VcpuMapping map(64);
    std::vector<VCpuId> vcpus;
    for (VmId vm : {0, 1, 2, 3, 5, 6}) {
        for (int i = 0; i < 8; ++i)
            vcpus.push_back(map.addVcpu(vm));
    }
    EXPECT_TRUE(map.coresRunning(4).empty());
    EXPECT_TRUE(map.coresRunning(kInvalidVm).empty());
    std::mt19937_64 rng(5);
    auto freeCore = [&]() {
        for (;;) {
            auto c = static_cast<CoreId>(rng() % map.numCores());
            if (map.vcpuAt(c) == kInvalidVCpu)
                return c;
        }
    };
    for (int op = 0; op < 3000; ++op) {
        VCpuId a = vcpus[rng() % vcpus.size()];
        VCpuId b = vcpus[rng() % vcpus.size()];
        switch (rng() % 3) {
          case 0:
            if (map.coreOf(a) == kInvalidCore)
                map.place(a, freeCore());
            break;
          case 1:
            map.removeFromCore(a);
            break;
          default:
            if (a != b && map.coreOf(a) != kInvalidCore &&
                map.coreOf(b) != kInvalidCore) {
                map.swap(a, b);
            }
            break;
        }
        expectVmCoreSetsMatch(map, "op " + std::to_string(op));
    }
    for (VCpuId v : vcpus) {
        if (map.coreOf(v) == kInvalidCore)
            map.place(v, freeCore());
    }
    expectVmCoreSetsMatch(map, "all placed");

    EventQueue eq;
    ShuffleMigrator migrator(eq, map, 100, 11);
    migrator.start();
    for (Tick t = 100; t <= 20000; t += 100) {
        eq.runUntil(t);
        expectVmCoreSetsMatch(map, "tick " + std::to_string(t));
    }
    migrator.stop();
    EXPECT_EQ(migrator.migrations.value(), 200u);
}

TEST(VcpuMapping, ListenersSeePlacementChanges)
{
    VcpuMapping map(4);
    LoggingListener listener;
    map.addListener(&listener);
    VCpuId v = map.addVcpu(1);
    map.place(v, 2);
    map.removeFromCore(v);
    ASSERT_EQ(listener.log.size(), 2u);
    EXPECT_TRUE(listener.log[0].placed);
    EXPECT_EQ(listener.log[0].core, 2);
    EXPECT_EQ(listener.log[0].vm, 1);
    EXPECT_FALSE(listener.log[1].placed);
}

TEST(VcpuMapping, SwapNotifiesInRemoveThenPlaceOrder)
{
    VcpuMapping map(4);
    LoggingListener listener;
    VCpuId a = map.addVcpu(0);
    VCpuId b = map.addVcpu(1);
    map.place(a, 0);
    map.place(b, 1);
    map.addListener(&listener);
    map.swap(a, b);
    ASSERT_EQ(listener.log.size(), 4u);
    EXPECT_FALSE(listener.log[0].placed);
    EXPECT_FALSE(listener.log[1].placed);
    EXPECT_TRUE(listener.log[2].placed);
    EXPECT_TRUE(listener.log[3].placed);
}

TEST(VcpuMappingDeath, DoublePlacementPanics)
{
    VcpuMapping map(4);
    VCpuId a = map.addVcpu(0);
    VCpuId b = map.addVcpu(0);
    map.place(a, 1);
    EXPECT_DEATH(map.place(a, 2), "already placed");
    EXPECT_DEATH(map.place(b, 1), "occupied");
}

TEST(ShuffleMigrator, SwapsAcrossVmBoundariesOnly)
{
    EventQueue eq;
    VcpuMapping map(8);
    // Two VMs with four vCPUs each, identity-placed.
    for (VmId vm = 0; vm < 2; ++vm) {
        for (int i = 0; i < 4; ++i) {
            VCpuId v = map.addVcpu(vm);
            map.place(v, static_cast<CoreId>(vm * 4 + i));
        }
    }
    ShuffleMigrator migrator(eq, map, 1000, 42);
    migrator.start();
    eq.runUntil(10500);
    EXPECT_EQ(migrator.migrations.value(), 10u);
    // Every vCPU remains placed, on a unique core.
    CoreSet seen;
    for (VCpuId v = 0; v < 8; ++v) {
        CoreId c = map.coreOf(v);
        ASSERT_NE(c, kInvalidCore);
        EXPECT_FALSE(seen.contains(c));
        seen.add(c);
    }
    migrator.stop();
    EXPECT_TRUE(eq.empty());
}

TEST(ShuffleMigrator, SingleVmNeverSwaps)
{
    EventQueue eq;
    VcpuMapping map(4);
    for (int i = 0; i < 4; ++i) {
        VCpuId v = map.addVcpu(0);
        map.place(v, static_cast<CoreId>(i));
    }
    ShuffleMigrator migrator(eq, map, 100, 7);
    migrator.start();
    eq.runUntil(2000);
    EXPECT_EQ(migrator.migrations.value(), 0u);
    migrator.stop();
}

TEST(ShuffleMigrator, DeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        EventQueue eq;
        VcpuMapping map(8);
        for (VmId vm = 0; vm < 2; ++vm) {
            for (int i = 0; i < 4; ++i) {
                VCpuId v = map.addVcpu(vm);
                map.place(v, static_cast<CoreId>(vm * 4 + i));
            }
        }
        ShuffleMigrator migrator(eq, map, 500, seed);
        migrator.start();
        eq.runUntil(20000);
        std::vector<CoreId> cores;
        for (VCpuId v = 0; v < 8; ++v)
            cores.push_back(map.coreOf(v));
        migrator.stop();
        return cores;
    };
    EXPECT_EQ(run(9), run(9));
    EXPECT_NE(run(9), run(10));
}

} // namespace vsnoop::test

/**
 * @file
 * Races and stress tests for the token protocol: concurrent
 * conflicting transactions must all complete, token conservation
 * must hold at every step, and starvation must be resolved by the
 * persistent-request arbiter.
 */

#include <gtest/gtest.h>

#include "coherence_harness.hh"
#include "sim/rng.hh"

namespace vsnoop::test
{

namespace
{
constexpr std::uint64_t kAddr = 0x80000;
constexpr std::uint32_t kAllTokens = 16;
} // namespace

TEST(CoherenceRaces, TwoConcurrentWritersBothComplete)
{
    CoherenceHarness h;
    auto a = h.issue(0, kAddr, true);
    auto b = h.issue(15, kAddr, true);
    h.drain();
    EXPECT_TRUE(a->fired);
    EXPECT_TRUE(b->fired);

    // Exactly one core ends with the line in M.
    const CacheLine *l0 = h.line(0, kAddr);
    const CacheLine *l15 = h.line(15, kAddr);
    int modified = 0;
    for (const CacheLine *l : {l0, l15}) {
        if (l != nullptr && l->tokens == kAllTokens && l->owner)
            modified++;
    }
    EXPECT_EQ(modified, 1);
}

TEST(CoherenceRaces, ManyConcurrentWritersSameLine)
{
    CoherenceHarness h;
    std::vector<std::shared_ptr<CoherenceHarness::Outcome>> outcomes;
    for (CoreId c = 0; c < 16; ++c)
        outcomes.push_back(h.issue(c, kAddr, true));
    h.drain(10'000'000);
    for (const auto &o : outcomes)
        EXPECT_TRUE(o->fired);
}

TEST(CoherenceRaces, ReadersRaceWriter)
{
    CoherenceHarness h;
    auto w = h.issue(0, kAddr, true);
    std::vector<std::shared_ptr<CoherenceHarness::Outcome>> readers;
    for (CoreId c = 1; c < 8; ++c)
        readers.push_back(h.issue(c, kAddr, false));
    h.drain(10'000'000);
    EXPECT_TRUE(w->fired);
    for (const auto &r : readers)
        EXPECT_TRUE(r->fired);
}

TEST(CoherenceRaces, UpgradeRacesRemoteWrite)
{
    CoherenceHarness h;
    h.access(0, kAddr, false); // core 0 holds S
    auto up = h.issue(0, kAddr, true);
    auto wr = h.issue(9, kAddr, true);
    h.drain(10'000'000);
    EXPECT_TRUE(up->fired);
    EXPECT_TRUE(wr->fired);
}

TEST(CoherenceRaces, UpgradeRacesManyReaders)
{
    CoherenceHarness h;
    for (CoreId c = 0; c < 4; ++c)
        h.access(c, kAddr, false);
    auto up = h.issue(2, kAddr, true);
    std::vector<std::shared_ptr<CoherenceHarness::Outcome>> readers;
    for (CoreId c = 8; c < 12; ++c)
        readers.push_back(h.issue(c, kAddr, false));
    h.drain(10'000'000);
    EXPECT_TRUE(up->fired);
    for (const auto &r : readers)
        EXPECT_TRUE(r->fired);
}

/**
 * Randomized stress: cores issue random reads/writes over a small
 * address pool, one outstanding access per core per round, with the
 * invariants checked after every event (so the short window between
 * a reader's install and the arrival of a snoop sent before it is
 * inspected too).  Parameterized over RNG seeds to cover different
 * interleavings.
 */
class RandomStress : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomStress, ConservationHoldsUnderRandomTraffic)
{
    CoherenceHarness h;
    Rng rng(GetParam());
    // Pool of eight lines within one page.
    std::vector<std::uint64_t> pool;
    for (int i = 0; i < 8; ++i)
        pool.push_back(0x200000 + i * 64);

    for (int round = 0; round < 60; ++round) {
        std::vector<std::shared_ptr<CoherenceHarness::Outcome>> pending;
        for (CoreId c = 0; c < 16; ++c) {
            if (!rng.chance(0.7))
                continue;
            std::uint64_t addr = pool[rng.below(
                static_cast<std::uint32_t>(pool.size()))];
            bool write = rng.chance(0.4);
            // One outstanding access per (core, line), as the
            // blocking core model guarantees.
            if (h.system->controller(c).hasMshr(HostAddr(addr)))
                continue;
            pending.push_back(h.issue(c, addr, write,
                                      static_cast<VmId>(c / 4)));
        }
        h.drainCheckingEveryEvent(20'000'000);
        for (const auto &o : pending)
            ASSERT_TRUE(o->fired) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStress,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(CoherenceRaces, RepeatedTotalConflictResolves)
{
    // Create heavy conflict so some responses arrive after their
    // transaction completed via the persistent path; bounced tokens
    // must land back at memory without violating conservation
    // (checked inside drain()).
    CoherenceHarness h;
    for (int round = 0; round < 10; ++round) {
        std::vector<std::shared_ptr<CoherenceHarness::Outcome>> pending;
        for (CoreId c = 0; c < 16; ++c)
            pending.push_back(h.issue(c, kAddr, true));
        h.drain(20'000'000);
        for (const auto &o : pending)
            ASSERT_TRUE(o->fired) << "round " << round;
    }
}

TEST(CoherenceRaces, ReaderInstallingUnderAnInFlightGetXAnswersIt)
{
    // Core b's read of the line completes after core a's GetX has
    // left for b but before it arrives.  At send time b held no copy,
    // so the delivery had no event of its own; b's install must give
    // it one, or b keeps its token and a's first attempt fails.
    constexpr CoreId a = 15;
    constexpr CoreId b = 0;
    Tick installed = 0;
    {
        CoherenceHarness probe;
        Tick done = probe.access(b, kAddr, false).doneAt;
        installed = done - ProtocolConfig{}.l2Latency;
    }

    CoherenceHarness h;
    auto read = h.issue(b, kAddr, false);
    h.eq.runUntil(installed - 1);
    ASSERT_FALSE(read->fired);
    ASSERT_EQ(h.line(b, kAddr), nullptr);
    ASSERT_FALSE(h.system->memory().holders(HostAddr(kAddr)).contains(b));
    auto write = h.issue(a, kAddr, true);
    h.drain();

    ASSERT_TRUE(read->fired);
    ASSERT_TRUE(write->fired);
    EXPECT_EQ(h.system->stats.retries.value(), 0u);
    EXPECT_EQ(h.line(b, kAddr), nullptr);
    const CacheLine *owned = h.line(a, kAddr);
    ASSERT_NE(owned, nullptr);
    EXPECT_EQ(owned->tokens, kAllTokens);
    EXPECT_TRUE(owned->owner);
}

TEST(CoherenceRaces, ConflictOnDifferentLinesIsIndependent)
{
    CoherenceHarness h;
    std::vector<std::shared_ptr<CoherenceHarness::Outcome>> pending;
    for (CoreId c = 0; c < 16; ++c)
        pending.push_back(h.issue(c, 0x300000 + c * 64ull, true));
    h.drain();
    for (const auto &o : pending)
        EXPECT_TRUE(o->fired);
    // No conflicts: nobody should have escalated to persistent.
    EXPECT_EQ(h.system->stats.persistentRequests.value(), 0u);
}

} // namespace vsnoop::test

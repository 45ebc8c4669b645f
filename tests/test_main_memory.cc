/**
 * @file
 * Unit tests for the memory-side token ledger.
 */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"

namespace vsnoop::test
{

namespace
{
const HostAddr kLine(0x4000);
} // namespace

TEST(MainMemory, DefaultStateHoldsEverything)
{
    MainMemory mem(16, 4, 80);
    MemLineState st = mem.state(kLine);
    EXPECT_EQ(st.tokens, 16u);
    EXPECT_TRUE(st.owner);
    EXPECT_EQ(mem.ledgerSize(), 0u);
}

TEST(MainMemory, TakePlainTokensKeepsOwner)
{
    MainMemory mem(16, 4, 80);
    MemLineState taken = mem.takeTokens(kLine, 3, false);
    EXPECT_EQ(taken.tokens, 3u);
    EXPECT_FALSE(taken.owner);
    MemLineState st = mem.state(kLine);
    EXPECT_EQ(st.tokens, 13u);
    EXPECT_TRUE(st.owner);
    EXPECT_EQ(mem.ledgerSize(), 1u);
}

TEST(MainMemory, TakeAllIncludesOwnerWhenAllowed)
{
    MainMemory mem(16, 4, 80);
    MemLineState taken = mem.takeTokens(kLine, 16, true);
    EXPECT_EQ(taken.tokens, 16u);
    EXPECT_TRUE(taken.owner);
    MemLineState st = mem.state(kLine);
    EXPECT_EQ(st.tokens, 0u);
    EXPECT_FALSE(st.owner);
}

TEST(MainMemory, OwnerWithheldWithoutPermission)
{
    MainMemory mem(16, 4, 80);
    MemLineState taken = mem.takeTokens(kLine, 16, false);
    EXPECT_EQ(taken.tokens, 15u);
    EXPECT_FALSE(taken.owner);
    EXPECT_TRUE(mem.state(kLine).owner);
}

TEST(MainMemory, TakeFromEmptyYieldsNothing)
{
    MainMemory mem(16, 4, 80);
    mem.takeTokens(kLine, 16, true);
    MemLineState taken = mem.takeTokens(kLine, 1, true);
    EXPECT_EQ(taken.tokens, 0u);
    EXPECT_FALSE(taken.owner);
}

TEST(MainMemory, ReturnRestoresDefaultAndErasesLedger)
{
    MainMemory mem(16, 4, 80);
    MemLineState taken = mem.takeTokens(kLine, 16, true);
    EXPECT_EQ(mem.ledgerSize(), 1u);
    mem.returnTokens(kLine, taken.tokens, taken.owner);
    EXPECT_EQ(mem.ledgerSize(), 0u);
    MemLineState st = mem.state(kLine);
    EXPECT_EQ(st.tokens, 16u);
    EXPECT_TRUE(st.owner);
}

TEST(MainMemory, PartialReturns)
{
    MainMemory mem(16, 4, 80);
    mem.takeTokens(kLine, 10, false);
    mem.returnTokens(kLine, 4, false);
    EXPECT_EQ(mem.state(kLine).tokens, 10u);
    mem.returnTokens(kLine, 6, false);
    EXPECT_EQ(mem.ledgerSize(), 0u);
}

TEST(MainMemory, CanProvideDataRules)
{
    MainMemory mem(16, 4, 80);
    EXPECT_TRUE(mem.canProvideData(kLine, false));
    mem.takeTokens(kLine, 16, true); // owner gone
    EXPECT_FALSE(mem.canProvideData(kLine, false));
    // RO-shared lines are clean by construction: always providable.
    EXPECT_TRUE(mem.canProvideData(kLine, true));
}

TEST(MainMemory, ControllerInterleavesByLine)
{
    MainMemory mem(16, 4, 80);
    EXPECT_EQ(mem.controllerFor(HostAddr(0 * 64)), 0u);
    EXPECT_EQ(mem.controllerFor(HostAddr(1 * 64)), 1u);
    EXPECT_EQ(mem.controllerFor(HostAddr(5 * 64)), 1u);
    EXPECT_EQ(mem.controllerFor(HostAddr(7 * 64)), 3u);
}

TEST(MainMemory, ForEachLedgerLineVisitsDeviations)
{
    MainMemory mem(16, 4, 80);
    mem.takeTokens(HostAddr(0x1000), 1, false);
    mem.takeTokens(HostAddr(0x2000), 2, false);
    int seen = 0;
    mem.forEachLedgerLine([&](std::uint64_t) { seen++; });
    EXPECT_EQ(seen, 2);
}

TEST(MainMemory, HolderMaskRidesTheLedgerEntry)
{
    MainMemory mem(16, 4, 80);
    EXPECT_TRUE(mem.holders(kLine).empty());
    mem.takeTokens(kLine, 2, false);
    mem.addHolder(kLine, 3);
    mem.addHolder(kLine, 9);
    mem.returnTokens(kLine, 1, false); // tokens move; holders stay
    EXPECT_EQ(mem.holders(kLine), CoreSet::fromMask((1u << 3) | (1u << 9)));
    mem.removeHolder(kLine, 3);
    mem.removeHolder(kLine, 9);
    EXPECT_TRUE(mem.holders(kLine).empty());
    mem.returnTokens(kLine, 1, false);
    EXPECT_EQ(mem.ledgerSize(), 0u);
}

TEST(MainMemoryDeath, HolderNeedsTokensAwayFromMemory)
{
    MainMemory mem(16, 4, 80);
    EXPECT_DEATH(mem.addHolder(kLine, 0), "every token");
    mem.takeTokens(kLine, 1, false);
    mem.addHolder(kLine, 0);
    // Every token back at memory while a cache still holds a copy.
    EXPECT_DEATH(mem.returnTokens(kLine, 1, false), "cached copies");
}

TEST(MainMemoryDeath, OverflowPanics)
{
    MainMemory mem(16, 4, 80);
    EXPECT_DEATH(mem.returnTokens(kLine, 1, false), "overflow");
}

TEST(MainMemoryDeath, DuplicateOwnerPanics)
{
    MainMemory mem(16, 4, 80);
    mem.takeTokens(kLine, 2, false);
    EXPECT_DEATH(mem.returnTokens(kLine, 1, true), "owner");
}

} // namespace vsnoop::test

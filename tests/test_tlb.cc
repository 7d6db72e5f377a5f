/**
 * @file
 * Unit and property tests for the set-associative TLB model (used both
 * as the conventional last-level TLB and the GPS-TLB).
 */

#include <gtest/gtest.h>

#include "mem/tlb.hh"

namespace gps
{
namespace
{

TEST(Tlb, ColdLookupMisses)
{
    Tlb tlb("tlb", 32, 8);
    EXPECT_FALSE(tlb.lookup(1));
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.hits(), 0u);
}

TEST(Tlb, FillThenHit)
{
    Tlb tlb("tlb", 32, 8);
    tlb.fill(1);
    EXPECT_TRUE(tlb.lookup(1));
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    // Fully associative 4-entry TLB: 5th distinct fill evicts the LRU.
    Tlb tlb("tlb", 4, 4);
    for (PageNum vpn = 0; vpn < 4; ++vpn) {
        tlb.fill(vpn * 4); // same set under vpn % sets_ when sets == 1
    }
    // Touch vpn 0 so vpn 4 becomes LRU... refresh entry 0's recency.
    EXPECT_TRUE(tlb.lookup(0));
    tlb.fill(100); // evicts the least recently used (vpn 4)
    EXPECT_TRUE(tlb.lookup(0));   // refreshed entry survived
    EXPECT_FALSE(tlb.lookup(4));  // LRU victim gone
}

TEST(Tlb, DoubleFillDoesNotDuplicate)
{
    Tlb tlb("tlb", 4, 4);
    tlb.fill(1);
    tlb.fill(1);
    tlb.fill(2);
    tlb.fill(3);
    tlb.fill(4);
    // If fill(1) had consumed two ways, a fifth fill would have evicted
    // vpn 1; it must still be resident.
    EXPECT_TRUE(tlb.contains(1));
}

TEST(Tlb, ContainsHasNoStatSideEffects)
{
    Tlb tlb("tlb", 32, 8);
    tlb.fill(9);
    EXPECT_TRUE(tlb.contains(9));
    EXPECT_FALSE(tlb.contains(10));
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
}

TEST(Tlb, InvalidateRemovesSingleEntry)
{
    Tlb tlb("tlb", 32, 8);
    tlb.fill(1);
    tlb.fill(2);
    tlb.invalidate(1);
    EXPECT_FALSE(tlb.contains(1));
    EXPECT_TRUE(tlb.contains(2));
}

TEST(Tlb, InvalidateAllFlushes)
{
    Tlb tlb("tlb", 32, 8);
    for (PageNum vpn = 0; vpn < 20; ++vpn)
        tlb.fill(vpn);
    tlb.invalidateAll();
    for (PageNum vpn = 0; vpn < 20; ++vpn)
        EXPECT_FALSE(tlb.contains(vpn));
}

TEST(Tlb, HitRateMath)
{
    Tlb tlb("tlb", 32, 8);
    tlb.fill(1);
    tlb.lookup(1); // hit
    tlb.lookup(2); // miss
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
}

TEST(TlbDeath, EntriesMustBeMultipleOfWays)
{
    EXPECT_DEATH(Tlb("bad", 30, 8), "multiple");
}

/** Property: a working set no larger than the TLB always fits. */
class TlbCapacity
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{};

TEST_P(TlbCapacity, SequentialWorkingSetWithinCapacityAllHits)
{
    const auto [entries, ways] = GetParam();
    Tlb tlb("tlb", entries, ways);
    // Sequential VPNs spread uniformly over sets, so a working set of
    // exactly `entries` pages is conflict-free.
    for (PageNum vpn = 0; vpn < entries; ++vpn)
        tlb.fill(vpn);
    const std::uint64_t misses_before = tlb.misses();
    for (PageNum vpn = 0; vpn < entries; ++vpn)
        EXPECT_TRUE(tlb.lookup(vpn)) << "vpn " << vpn;
    EXPECT_EQ(tlb.misses(), misses_before);
}

TEST_P(TlbCapacity, OverCapacityWorkingSetMisses)
{
    const auto [entries, ways] = GetParam();
    Tlb tlb("tlb", entries, ways);
    const PageNum span = entries * 2;
    // Two streaming passes over twice the capacity: the second pass
    // cannot hit everywhere.
    for (PageNum vpn = 0; vpn < span; ++vpn) {
        tlb.lookup(vpn);
        tlb.fill(vpn);
    }
    const std::uint64_t first_pass_misses = tlb.misses();
    for (PageNum vpn = 0; vpn < span; ++vpn) {
        if (!tlb.lookup(vpn))
            tlb.fill(vpn);
    }
    EXPECT_GT(tlb.misses(), first_pass_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TlbCapacity,
    ::testing::Values(std::make_pair(32, 8), std::make_pair(256, 8),
                      std::make_pair(64, 1), std::make_pair(16, 16)));

} // namespace
} // namespace gps

/**
 * @file
 * Unit tests for the conventional page table and its GPS bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "mem/page_table.hh"

namespace gps
{
namespace
{

TEST(PageTable, LookupMissReturnsNull)
{
    PageTable table("pt");
    EXPECT_EQ(table.lookup(5), nullptr);
}

TEST(PageTable, MapThenLookup)
{
    PageTable table("pt");
    table.map(5, Pte{42, 1, false});
    const Pte* pte = table.lookup(5);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->ppn, 42u);
    EXPECT_EQ(pte->location, 1);
    EXPECT_FALSE(pte->gpsBit);
}

TEST(PageTable, RemapReplacesEntry)
{
    PageTable table("pt");
    table.map(5, Pte{42, 1, false});
    table.map(5, Pte{43, 2, true});
    const Pte* pte = table.lookup(5);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->ppn, 43u);
    EXPECT_EQ(pte->location, 2);
    EXPECT_TRUE(pte->gpsBit);
    EXPECT_EQ(table.size(), 1u);
}

TEST(PageTable, UnmapRemoves)
{
    PageTable table("pt");
    table.map(5, Pte{42, 1, false});
    table.unmap(5);
    EXPECT_EQ(table.lookup(5), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(PageTable, UnmapMissingIsNoop)
{
    PageTable table("pt");
    table.unmap(999);
    EXPECT_EQ(table.size(), 0u);
}

TEST(PageTable, SetGpsBitTogglesOnly)
{
    PageTable table("pt");
    table.map(7, Pte{10, 0, false});
    table.setGpsBit(7, true);
    EXPECT_TRUE(table.lookup(7)->gpsBit);
    EXPECT_EQ(table.lookup(7)->ppn, 10u);
    table.setGpsBit(7, false);
    EXPECT_FALSE(table.lookup(7)->gpsBit);
}

TEST(PageTableDeath, SetGpsBitOnUnmappedPanics)
{
    PageTable table("pt");
    EXPECT_DEATH(table.setGpsBit(1, true), "unmapped");
}

TEST(PageTable, StatsCountOps)
{
    PageTable table("pt");
    table.map(1, Pte{});
    table.map(2, Pte{});
    table.unmap(1);
    StatSet stats;
    table.exportStats(stats);
    EXPECT_DOUBLE_EQ(stats.get("pt.map_ops"), 2.0);
    EXPECT_DOUBLE_EQ(stats.get("pt.unmap_ops"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("pt.mappings"), 1.0);
}

/** saveState's encoding of @p ref's mappings, ascending by VPN. */
std::string
savedBytes(const std::unordered_map<PageNum, Pte>& ref,
           std::uint64_t map_ops, std::uint64_t unmap_ops)
{
    std::vector<PageNum> vpns;
    for (const auto& [vpn, pte] : ref)
        vpns.push_back(vpn);
    std::sort(vpns.begin(), vpns.end());
    snapshot::Serializer out;
    out.section("pagetable");
    out.u64(vpns.size());
    for (const PageNum vpn : vpns) {
        const Pte& pte = ref.at(vpn);
        out.u64(vpn);
        out.u64(pte.ppn);
        out.u32(pte.location);
        out.b(pte.gpsBit);
    }
    out.u64(map_ops);
    out.u64(unmap_ops);
    return out.bytes();
}

std::string
savedBytes(const PageTable& table)
{
    snapshot::Serializer out;
    table.saveState(out);
    return out.bytes();
}

TEST(PageTable, MatchesAHashMapReference)
{
    // Eight clusters of 64 pages straddle multiples of 2^20, so they
    // share home slots at every capacity the table reaches and their
    // probe chains wrap past its last slot; one draw in eight is a
    // scattered VPN. Hundreds of live mappings take the table from 16
    // slots through several doublings; the last phase unmaps most of
    // them, deleting inside long wrapped chains.
    Rng rng(20211018);
    const auto draw_vpn = [&rng]() -> PageNum {
        if (rng.below(8) == 0)
            return rng.below(PageNum(1) << 40);
        const PageNum cluster = (rng.below(8) + 1) << 20;
        return cluster + rng.below(64) - 32;
    };
    PageTable table("pt");
    std::unordered_map<PageNum, Pte> ref;
    std::vector<PageNum> seen;
    std::uint64_t map_ops = 0;
    std::uint64_t unmap_ops = 0;

    const auto check_all = [&](int step) {
        SCOPED_TRACE("step " + std::to_string(step));
        ASSERT_EQ(table.size(), ref.size());
        for (const PageNum vpn : seen) {
            const auto it = ref.find(vpn);
            const Pte* pte = table.lookup(vpn);
            if (it == ref.end()) {
                ASSERT_EQ(pte, nullptr) << "vpn " << vpn;
            } else {
                ASSERT_NE(pte, nullptr) << "vpn " << vpn;
                ASSERT_EQ(*pte, it->second) << "vpn " << vpn;
            }
        }
        ASSERT_EQ(savedBytes(table), savedBytes(ref, map_ops, unmap_ops));
    };

    constexpr int steps = 12000;
    for (int step = 0; step < steps; ++step) {
        // Grow, churn, then drain: the unmap share rises by phase.
        const std::uint64_t unmap_share =
            step < steps / 3 ? 1 : (step < 2 * steps / 3 ? 4 : 7);
        const std::uint64_t op = rng.below(8);
        if (op < unmap_share) {
            const PageNum vpn = seen.empty() || rng.below(4) == 0
                                    ? draw_vpn()
                                    : seen[rng.below(seen.size())];
            table.unmap(vpn);
            unmap_ops += ref.erase(vpn);
        } else if (op == 7 && !ref.empty()) {
            const PageNum vpn = seen[rng.below(seen.size())];
            const auto it = ref.find(vpn);
            if (it != ref.end()) {
                const bool bit = rng.below(2) == 1;
                table.setGpsBit(vpn, bit);
                it->second.gpsBit = bit;
            }
        } else {
            // Half the maps overwrite a VPN seen before.
            const PageNum vpn = !seen.empty() && rng.below(2) == 0
                                    ? seen[rng.below(seen.size())]
                                    : draw_vpn();
            const Pte pte{rng.below(1 << 20),
                          static_cast<GpuId>(rng.below(256)),
                          rng.below(2) == 1};
            table.map(vpn, pte);
            ref[vpn] = pte;
            ++map_ops;
            seen.push_back(vpn);
        }
        if (step % 500 == 0) {
            check_all(step);
            if (HasFatalFailure())
                return;
        }
    }
    check_all(steps);
    if (HasFatalFailure())
        return;

    // Restore round trip: same mappings, same bytes.
    snapshot::Serializer out;
    table.saveState(out);
    snapshot::Deserializer in(out.bytes());
    PageTable restored("pt");
    restored.map(1, Pte{}); // replaced by the restore
    restored.restoreState(in);
    EXPECT_EQ(savedBytes(restored), out.bytes());
    EXPECT_EQ(restored.size(), ref.size());
    for (const auto& [vpn, pte] : ref) {
        const Pte* got = restored.lookup(vpn);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, pte);
    }
}

} // namespace
} // namespace gps

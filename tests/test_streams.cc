/**
 * @file
 * Unit tests for the access-stream generators (vector, callback,
 * concat, group/burst, replay).
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/app_common.hh"
#include "common/rng.hh"
#include "trace/kernel_trace.hh"

namespace gps
{
namespace
{

std::vector<MemAccess>
drain(AccessStream& stream)
{
    std::vector<MemAccess> out;
    MemAccess access;
    while (stream.next(access))
        out.push_back(access);
    return out;
}

TEST(VectorStream, EmitsInOrderThenEnds)
{
    VectorStream stream({MemAccess::load(1), MemAccess::store(2)});
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 2u);
    EXPECT_EQ(accesses[0].vaddr, 1u);
    EXPECT_EQ(accesses[1].vaddr, 2u);
}

TEST(CallbackStream, DrivesFromClosure)
{
    int remaining = 3;
    CallbackStream stream([&](MemAccess& out) {
        if (remaining == 0)
            return false;
        out = MemAccess::load(static_cast<Addr>(remaining--));
        return true;
    });
    EXPECT_EQ(drain(stream).size(), 3u);
}

TEST(ConcatStream, ChainsPartsInOrder)
{
    std::vector<std::unique_ptr<AccessStream>> parts;
    parts.push_back(std::make_unique<VectorStream>(
        std::vector<MemAccess>{MemAccess::load(1)}));
    parts.push_back(std::make_unique<VectorStream>(
        std::vector<MemAccess>{}));
    parts.push_back(std::make_unique<VectorStream>(
        std::vector<MemAccess>{MemAccess::load(2), MemAccess::load(3)}));
    ConcatStream stream(std::move(parts));
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 3u);
    EXPECT_EQ(accesses[0].vaddr, 1u);
    EXPECT_EQ(accesses[2].vaddr, 3u);
}

TEST(GroupStream, InterleavesBurstsRoundRobin)
{
    apps::Group group;
    group.bursts = {
        apps::Burst{0, 2, 128, AccessType::Load, 128, Scope::Weak},
        apps::Burst{1000, 2, 128, AccessType::Store, 128, Scope::Weak},
    };
    apps::GroupStream stream({group});
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 4u);
    EXPECT_EQ(accesses[0].vaddr, 0u);
    EXPECT_EQ(accesses[1].vaddr, 1000u);
    EXPECT_EQ(accesses[2].vaddr, 128u);
    EXPECT_EQ(accesses[3].vaddr, 1128u);
    EXPECT_TRUE(accesses[1].isStore());
}

TEST(GroupStream, UnevenBurstsDrainCompletely)
{
    apps::Group group;
    group.bursts = {
        apps::Burst{0, 1, 128, AccessType::Load, 128, Scope::Weak},
        apps::Burst{1000, 3, 128, AccessType::Store, 128, Scope::Weak},
    };
    apps::GroupStream stream({group});
    EXPECT_EQ(drain(stream).size(), 4u);
}

TEST(GroupStream, GroupsRunSequentially)
{
    apps::Group first;
    first.bursts = {
        apps::Burst{0, 2, 128, AccessType::Store, 128, Scope::Weak}};
    apps::Group second;
    second.bursts = {
        apps::Burst{0, 2, 128, AccessType::Store, 128, Scope::Weak}};
    apps::GroupStream stream({first, second});
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 4u);
    // The second group revisits the same lines (a reuse distance of 2,
    // which is how multi-pass sweeps express WQ-coalescible stores).
    EXPECT_EQ(accesses[0].vaddr, accesses[2].vaddr);
}

TEST(GroupStream, NegativeStrideWalksBackwards)
{
    apps::Group group;
    group.bursts = {
        apps::Burst{256, 3, -128, AccessType::Load, 128, Scope::Weak}};
    apps::GroupStream stream({group});
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 3u);
    EXPECT_EQ(accesses[0].vaddr, 256u);
    EXPECT_EQ(accesses[1].vaddr, 128u);
    EXPECT_EQ(accesses[2].vaddr, 0u);
}

TEST(ReplayStream, FullReplayMatchesBacking)
{
    std::vector<MemAccess> backing{MemAccess::load(1),
                                   MemAccess::atomic(2)};
    apps::ReplayStream stream(&backing);
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 2u);
    EXPECT_TRUE(accesses[1].isAtomic());
}

TEST(ReplayStream, CircularSliceWrapsAround)
{
    std::vector<MemAccess> backing;
    for (Addr a = 0; a < 10; ++a)
        backing.push_back(MemAccess::load(a));
    apps::ReplayStream stream(&backing, 8, 4);
    const auto accesses = drain(stream);
    ASSERT_EQ(accesses.size(), 4u);
    EXPECT_EQ(accesses[0].vaddr, 8u);
    EXPECT_EQ(accesses[1].vaddr, 9u);
    EXPECT_EQ(accesses[2].vaddr, 0u);
    EXPECT_EQ(accesses[3].vaddr, 1u);
}

TEST(ReplayStream, CountIsCappedAtBackingSize)
{
    std::vector<MemAccess> backing{MemAccess::load(1)};
    apps::ReplayStream stream(&backing, 0, 100);
    EXPECT_EQ(drain(stream).size(), 1u);
}

TEST(ReplayStream, EmptyBackingEndsImmediately)
{
    std::vector<MemAccess> backing;
    apps::ReplayStream stream(&backing, 0, 5);
    MemAccess access;
    EXPECT_FALSE(stream.next(access));
}

TEST(TiledStores, ReuseDistanceEqualsTileSize)
{
    std::vector<apps::Group> groups;
    apps::appendTiledStores(groups, 0, 0, 8, {4}, 2);
    apps::GroupStream stream(std::move(groups));
    const auto accesses = drain(stream);
    // 8 lines x 2 passes.
    ASSERT_EQ(accesses.size(), 16u);
    // First tile: lines 0..3 stored, then re-stored.
    EXPECT_EQ(accesses[0].vaddr, accesses[4].vaddr);
    EXPECT_EQ(accesses[3].vaddr, accesses[7].vaddr);
    // Second tile follows.
    EXPECT_EQ(accesses[8].vaddr, 4u * 128u);
}

TEST(TiledStores, PartialTailTileIsCovered)
{
    std::vector<apps::Group> groups;
    apps::appendTiledStores(groups, 0, 0, 10, {4}, 1);
    apps::GroupStream stream(std::move(groups));
    EXPECT_EQ(drain(stream).size(), 10u);
}

/** Drain via nextBatch with an odd chunk size (exercises boundaries). */
std::vector<MemAccess>
drainBatched(AccessStream& stream, std::size_t chunk)
{
    std::vector<MemAccess> out;
    std::vector<MemAccess> buf(chunk);
    std::size_t n;
    while ((n = stream.nextBatch(buf.data(), chunk)) > 0)
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(n));
    return out;
}

void
expectSameAccesses(const std::vector<MemAccess>& a,
                   const std::vector<MemAccess>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].vaddr, b[i].vaddr) << "access " << i;
        ASSERT_EQ(a[i].size, b[i].size) << "access " << i;
        ASSERT_EQ(a[i].type, b[i].type) << "access " << i;
        ASSERT_EQ(a[i].scope, b[i].scope) << "access " << i;
    }
}

std::vector<apps::Group>
mixedGroups()
{
    using apps::Burst;
    using apps::Group;
    std::vector<Group> groups;
    // Single-burst group (batched fast path), odd count.
    groups.push_back(Group{{Burst{0, 13, 128, AccessType::Load, 128,
                                  Scope::Weak}}});
    // Interleaved group, uneven bursts: whole rounds, then the longer
    // burst alone.
    groups.push_back(Group{{
        Burst{10000, 5, 128, AccessType::Load, 128, Scope::Weak},
        Burst{20000, 9, 128, AccessType::Store, 32, Scope::Weak},
    }});
    // Another single-burst group, negative stride.
    groups.push_back(Group{{Burst{90000, 6, -128, AccessType::Store,
                                  128, Scope::Sys}}});
    return groups;
}

TEST(GroupStream, BatchedPullMatchesPerAccessPull)
{
    for (const std::size_t chunk : {1u, 7u, 64u}) {
        apps::GroupStream per_access(mixedGroups());
        apps::GroupStream batched(mixedGroups());
        expectSameAccesses(drainBatched(batched, chunk),
                           drain(per_access));
    }
}

TEST(GroupStream, BatchedPullMatchesPerAccessPullOnRandomGroups)
{
    // Groups of 1-5 interleaved bursts with unequal (sometimes zero)
    // counts and negative strides, pulled in batches of 1-300: whole
    // rounds, partial rounds, bursts running dry mid-batch.
    Rng rng(26);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<apps::Group> groups(1 + rng.below(4));
        for (apps::Group& group : groups) {
            const std::size_t bursts = 1 + rng.below(5);
            for (std::size_t b = 0; b < bursts; ++b) {
                const std::int64_t stride =
                    (rng.chance(0.3) ? -1 : 1) *
                    static_cast<std::int64_t>(32 << rng.below(3));
                group.bursts.push_back(apps::Burst{
                    1000000 + rng.below(1000) * 128, rng.below(120),
                    stride,
                    rng.chance(0.5) ? AccessType::Load : AccessType::Store,
                    static_cast<std::uint32_t>(4 << rng.below(6)),
                    rng.chance(0.2) ? Scope::Sys : Scope::Weak});
            }
        }
        const std::size_t chunk = 1 + rng.below(300);
        apps::GroupStream per_access(groups);
        apps::GroupStream batched(groups);
        expectSameAccesses(drainBatched(batched, chunk),
                           drain(per_access));
        if (HasFatalFailure())
            FAIL() << "trial " << trial << ", batch " << chunk;
    }
}

TEST(ReplayStream, BatchedPullMatchesPerAccessPull)
{
    std::vector<MemAccess> backing;
    for (Addr a = 0; a < 57; ++a)
        backing.push_back(a % 3 == 0 ? MemAccess::atomic(a)
                                     : MemAccess::load(a));
    // Wrapping slices, including multiple laps (count capped at size).
    const struct
    {
        std::size_t start, count;
    } slices[] = {{0, 57}, {50, 20}, {56, 57}, {12, 1}, {3, 0}};
    for (const auto& s : slices) {
        for (const std::size_t chunk : {1u, 8u, 100u}) {
            apps::ReplayStream per_access(&backing, s.start, s.count);
            apps::ReplayStream batched(&backing, s.start, s.count);
            expectSameAccesses(drainBatched(batched, chunk),
                               drain(per_access));
        }
    }
}

TEST(Slab1D, OwnerAgreesWithPartitionRanges)
{
    // The closed-form owner must land every line inside [first(g),
    // end(g)) for every slab shape, including empty partitions
    // (more GPUs than lines) and uneven boundaries.
    for (const std::uint64_t total : {1u, 3u, 7u, 64u, 100u, 1023u}) {
        for (const std::size_t gpus : {1u, 2u, 3u, 4u, 5u, 7u, 16u}) {
            const apps::Slab1D slab{total, gpus};
            for (std::uint64_t line = 0; line < total; ++line) {
                const GpuId g = slab.owner(line);
                ASSERT_LT(static_cast<std::size_t>(g), gpus);
                ASSERT_GE(line, slab.first(g))
                    << total << " lines / " << gpus << " gpus";
                ASSERT_LT(line, slab.end(g))
                    << total << " lines / " << gpus << " gpus";
            }
            // And the ranges map back: every line of every partition
            // is owned by that partition.
            for (std::size_t g = 0; g < gpus; ++g) {
                const GpuId gpu = static_cast<GpuId>(g);
                for (std::uint64_t line = slab.first(gpu);
                     line < slab.end(gpu); ++line)
                    ASSERT_EQ(slab.owner(line), gpu);
            }
        }
    }
}

TEST(Slab1D, OwnerClampsPastTheEnd)
{
    const apps::Slab1D slab{10, 4};
    EXPECT_EQ(slab.owner(10), 3);
    EXPECT_EQ(slab.owner(1000), 3);
}

TEST(MemAccessHelpers, ClassifyCorrectly)
{
    EXPECT_TRUE(MemAccess::load(0).isLoad());
    EXPECT_FALSE(MemAccess::load(0).isWrite());
    EXPECT_TRUE(MemAccess::store(0).isWrite());
    EXPECT_TRUE(MemAccess::atomic(0).isWrite());
    EXPECT_TRUE(MemAccess::atomic(0).isAtomic());
    EXPECT_EQ(MemAccess::sysStore(0).scope, Scope::Sys);
}

} // namespace
} // namespace gps

/**
 * @file
 * Unit and property tests for the set-associative write-back cache.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/cache_model.hh"
#include "common/rng.hh"
#include "common/units.hh"

namespace gps
{
namespace
{

CacheModel
makeCache(std::uint64_t capacity = 16 * KiB, std::uint32_t ways = 4)
{
    return CacheModel("l2", capacity, 128, ways);
}

TEST(CacheModel, ColdMissThenHit)
{
    auto cache = makeCache();
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(CacheModel, SameLineDifferentOffsetHits)
{
    auto cache = makeCache();
    cache.access(0x1000, false);
    EXPECT_TRUE(cache.access(0x107F, false).hit);
    EXPECT_FALSE(cache.access(0x1080, false).hit);
}

TEST(CacheModel, CleanEvictionHasNoWriteback)
{
    auto cache = makeCache(1024, 1); // 8 sets, direct mapped
    cache.access(0, false);
    // Same set, different tag: evicts the clean line.
    const CacheResult result = cache.access(1024, false);
    EXPECT_FALSE(result.hit);
    EXPECT_EQ(result.writebackBytes, 0u);
}

TEST(CacheModel, DirtyEvictionWritesBack)
{
    auto cache = makeCache(1024, 1);
    cache.access(0, true); // dirty
    const CacheResult result = cache.access(1024, false);
    EXPECT_EQ(result.writebackBytes, 128u);
}

TEST(CacheModel, ReadAfterWriteKeepsDirtyUntilEviction)
{
    auto cache = makeCache(1024, 1);
    cache.access(0, true);
    cache.access(0, false); // read hit must not clean the line
    EXPECT_EQ(cache.access(1024, false).writebackBytes, 128u);
}

TEST(CacheModel, LruKeepsRecentlyUsedWay)
{
    auto cache = makeCache(2 * 128, 2); // one set, two ways
    cache.access(0, false);
    cache.access(128, false);
    cache.access(0, false);      // refresh way holding line 0
    cache.access(256, false);    // evicts line 128
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(128));
}

TEST(CacheModel, InvalidatePageDropsAllItsLines)
{
    auto cache = makeCache(64 * KiB, 8);
    for (Addr a = 0; a < 4096; a += 128)
        cache.access(a, true);
    const std::uint64_t wb = cache.invalidatePage(0, 4096);
    EXPECT_EQ(wb, 4096u);
    for (Addr a = 0; a < 4096; a += 128)
        EXPECT_FALSE(cache.contains(a));
}

TEST(CacheModel, InvalidatePageLeavesOtherPages)
{
    auto cache = makeCache(64 * KiB, 8);
    cache.access(0, false);
    cache.access(8192, false);
    cache.invalidatePage(0, 4096);
    EXPECT_TRUE(cache.contains(8192));
}

TEST(CacheModel, FlushAllReportsDirtyBytes)
{
    auto cache = makeCache();
    cache.access(0, true);
    cache.access(128, false);
    cache.access(256, true);
    EXPECT_EQ(cache.flushAll(), 256u);
    EXPECT_FALSE(cache.contains(0));
}

TEST(CacheModel, HitRateMath)
{
    auto cache = makeCache();
    cache.access(0, false);
    cache.access(0, false);
    cache.access(0, false);
    cache.access(128, false);
    EXPECT_DOUBLE_EQ(cache.hitRate(), 0.5);
}

/** Property: working sets within capacity re-access at 100% hits. */
class CacheCapacity
    : public ::testing::TestWithParam<std::pair<std::uint64_t,
                                                std::uint32_t>>
{};

TEST_P(CacheCapacity, SequentialWorkingSetWithinCapacityAllHits)
{
    const auto [capacity, ways] = GetParam();
    CacheModel cache("c", capacity, 128, ways);
    for (Addr a = 0; a < capacity; a += 128)
        cache.access(a, false);
    cache.resetStats();
    for (Addr a = 0; a < capacity; a += 128)
        ASSERT_TRUE(cache.access(a, false).hit) << "addr " << a;
}

TEST_P(CacheCapacity, DoubleCapacityStreamEvicts)
{
    const auto [capacity, ways] = GetParam();
    CacheModel cache("c", capacity, 128, ways);
    for (Addr a = 0; a < 2 * capacity; a += 128)
        cache.access(a, false);
    cache.resetStats();
    std::uint64_t hits = 0;
    for (Addr a = 0; a < 2 * capacity; a += 128)
        hits += cache.access(a, false).hit ? 1 : 0;
    EXPECT_LT(hits, 2 * capacity / 128);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheCapacity,
    ::testing::Values(std::make_pair(std::uint64_t(16 * KiB), 4u),
                      std::make_pair(std::uint64_t(64 * KiB), 16u),
                      std::make_pair(std::uint64_t(6 * MiB), 16u)));

TEST(CacheModel, Table1L2Configuration)
{
    // 6 MB, 128 B lines, 16 ways: the V100 L2 of Table 1 constructs.
    CacheModel l2("l2", 6 * MiB, 128, 16);
    EXPECT_EQ(l2.capacityBytes(), 6 * MiB);
    EXPECT_EQ(l2.lineBytes(), 128u);
}

/**
 * Brute-force reference: unpacked lines, per-line probes over the whole
 * page on invalidation, and resident counts recomputed by scanning every
 * line. Same replacement policy and snapshot encoding as the model.
 */
class RefCache
{
  public:
    RefCache(std::uint64_t capacity, std::uint32_t line_bytes,
             std::uint32_t ways)
        : lineBytes_(line_bytes), ways_(ways),
          sets_(capacity / line_bytes / ways), lines_(sets_ * ways)
    {}

    CacheResult
    access(Addr addr, bool is_write)
    {
        const std::uint64_t line = addr / lineBytes_;
        Line* set = &lines_[line % sets_ * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].tag == line / sets_) {
                set[w].lastUse = ++clock_;
                set[w].dirty |= is_write;
                ++hits_;
                return {true, 0};
            }
        }
        ++misses_;
        Line* victim = &set[0];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!set[w].valid) {
                victim = &set[w];
                break;
            }
            if (set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        CacheResult result{false, 0};
        if (victim->valid) {
            ++evictions_;
            if (victim->dirty) {
                ++writebacks_;
                result.writebackBytes = lineBytes_;
            }
        }
        *victim = {line / sets_, true, is_write, ++clock_};
        return result;
    }

    bool
    contains(Addr addr) const
    {
        const std::uint64_t line = addr / lineBytes_;
        const Line* set = &lines_[line % sets_ * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (set[w].valid && set[w].tag == line / sets_)
                return true;
        return false;
    }

    std::uint64_t
    invalidatePage(Addr base, std::uint64_t bytes)
    {
        std::uint64_t writeback = 0;
        for (Addr a = base; a < base + bytes; a += lineBytes_) {
            const std::uint64_t line = a / lineBytes_;
            Line* set = &lines_[line % sets_ * ways_];
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (set[w].valid && set[w].tag == line / sets_) {
                    if (set[w].dirty) {
                        ++writebacks_;
                        writeback += lineBytes_;
                    }
                    set[w].valid = false;
                }
            }
        }
        return writeback;
    }

    std::uint64_t
    flushAll()
    {
        std::uint64_t writeback = 0;
        for (Line& l : lines_) {
            if (l.valid && l.dirty) {
                ++writebacks_;
                writeback += lineBytes_;
            }
            l.valid = false;
            l.dirty = false;
        }
        return writeback;
    }

    /** Valid lines whose region shares @p addr's count slot. */
    std::uint32_t
    residentInSlotOf(Addr addr) const
    {
        const auto slot = [](std::uint64_t byte) {
            return (byte >> CacheModel::regionShift) %
                   CacheModel::regionSlots;
        };
        std::uint32_t count = 0;
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            const Line& l = lines_[i];
            const std::uint64_t line = l.tag * sets_ + i / ways_;
            if (l.valid && slot(line * lineBytes_) == slot(addr))
                ++count;
        }
        return count;
    }

    /** CacheModel::saveState's encoding. */
    std::string
    snapshot() const
    {
        snapshot::Serializer out;
        out.section("cache");
        out.u64(lines_.size());
        for (const Line& l : lines_) {
            out.u64(l.tag);
            out.b(l.valid);
            out.b(l.dirty);
            out.u64(l.lastUse);
        }
        out.u64(clock_);
        out.u64(hits_);
        out.u64(misses_);
        out.u64(evictions_);
        out.u64(writebacks_);
        return out.bytes();
    }

  private:
    struct Line
    {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t lineBytes_;
    std::uint32_t ways_;
    std::size_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

std::string
saved(const CacheModel& cache)
{
    snapshot::Serializer out;
    cache.saveState(out);
    return out.bytes();
}

/** Property: the packed, region-skipping model matches the reference
 *  op for op, including its snapshot bytes and every count slot. */
TEST(CacheModel, MatchesBruteForceReferenceUnderRandomOps)
{
    // Bases 1 GB apart alias in the count table; the 2 MB windows at
    // each base let 2 MB invalidations span 32 regions.
    const Addr alias = Addr(CacheModel::regionSlots)
                       << CacheModel::regionShift;
    const std::vector<Addr> bases = {0, alias, 6 * MiB,
                                     alias + 6 * MiB + 64 * KiB};
    const std::vector<std::uint64_t> pages = {4 * KiB, 64 * KiB,
                                              2 * MiB};
    for (const auto& [capacity, ways] :
         {std::pair<std::uint64_t, std::uint32_t>{16 * KiB, 4},
          {256 * KiB, 16}}) {
        Rng rng(capacity + ways);
        auto cache =
            std::make_unique<CacheModel>("l2", capacity, 128, ways);
        RefCache ref(capacity, 128, ways);
        const auto pick = [&] {
            return bases[rng.below(bases.size())] + rng.below(2 * MiB);
        };
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t kind = rng.below(100);
            if (kind < 85) {
                const Addr addr = pick();
                const bool write = rng.chance(0.3);
                const CacheResult got = cache->access(addr, write);
                const CacheResult want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "op " << op;
                ASSERT_EQ(got.writebackBytes, want.writebackBytes)
                    << "op " << op;
            } else if (kind < 98) {
                const std::uint64_t page = pages[rng.below(pages.size())];
                const Addr base = pick() / page * page;
                ASSERT_EQ(cache->invalidatePage(base, page),
                          ref.invalidatePage(base, page))
                    << "op " << op << " page " << page;
            } else if (kind < 99) {
                ASSERT_EQ(cache->flushAll(), ref.flushAll()) << "op " << op;
            } else {
                // Round-trip through a fresh instance: the counts must
                // be rebuilt from the restored lines.
                const std::string bytes = saved(*cache);
                ASSERT_EQ(bytes, ref.snapshot()) << "op " << op;
                auto restored =
                    std::make_unique<CacheModel>("l2", capacity, 128, ways);
                snapshot::Deserializer in(bytes);
                restored->restoreState(in);
                cache = std::move(restored);
            }
            const Addr probe = pick();
            ASSERT_EQ(cache->contains(probe), ref.contains(probe))
                << "op " << op;
            if (op % 64 == 0) {
                for (const Addr base : bases)
                    for (Addr a = base; a < base + 2 * MiB; a += 64 * KiB)
                        ASSERT_EQ(cache->residentInSlotOf(a),
                                  ref.residentInSlotOf(a))
                            << "op " << op << " addr " << a;
            }
        }
        EXPECT_EQ(saved(*cache), ref.snapshot());
    }
}

TEST(CacheModel, RestoreRejectsStampWiderThanThePackedField)
{
    auto cache = makeCache();
    cache.access(0, true);
    const std::string good = saved(cache);

    // Patch the first line's lastUse (after section tag, line count,
    // tag and the two flag bytes) to one past the packed maximum.
    const std::size_t at = 8 + 5 + 8 + 8 + 1 + 1;
    std::string bad = good;
    const std::uint64_t wide = CacheModel::maxUseClock + 1;
    for (int i = 0; i < 8; ++i)
        bad[at + i] = static_cast<char>((wide >> (8 * i)) & 0xff);
    auto restored = makeCache();
    snapshot::Deserializer in(bad);
    EXPECT_THROW(restored.restoreState(in), snapshot::SnapshotError);

    // The widest stamp that fits still restores.
    for (int i = 0; i < 8; ++i)
        bad[at + i] =
            static_cast<char>((CacheModel::maxUseClock >> (8 * i)) & 0xff);
    snapshot::Deserializer fits(bad);
    EXPECT_NO_THROW(restored.restoreState(fits));
}

TEST(CacheModel, RestoreRejectsClockWiderThanThePackedField)
{
    auto cache = makeCache();
    cache.access(0, false);
    std::string bytes = saved(cache);
    // The LRU clock follows the lines; four counters close the section.
    const std::size_t at = bytes.size() - 5 * 8;
    const std::uint64_t wide = ~std::uint64_t(0);
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = static_cast<char>((wide >> (8 * i)) & 0xff);
    auto restored = makeCache();
    snapshot::Deserializer in(bytes);
    EXPECT_THROW(restored.restoreState(in), snapshot::SnapshotError);
}

} // namespace
} // namespace gps

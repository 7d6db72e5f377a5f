/**
 * @file
 * Unit and property tests for the set-associative write-back cache.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/cache_model.hh"
#include "common/rng.hh"
#include "common/stats.hh"
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
    for (Addr a = 0; a < capacity; a += 128)
        ASSERT_TRUE(cache.access(a, false).hit) << "addr " << a;
}

TEST_P(CacheCapacity, DoubleCapacityStreamEvicts)
{
    const auto [capacity, ways] = GetParam();
    CacheModel cache("c", capacity, 128, ways);
    for (Addr a = 0; a < 2 * capacity; a += 128)
        cache.access(a, false);
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

    /** Valid lines whose region shares @p addr's count slot in a table
     *  of @p slots slots. */
    std::uint32_t
    residentInSlotOf(Addr addr, std::size_t slots) const
    {
        const auto slot = [slots](std::uint64_t byte) {
            return (byte >> CacheModel::regionShift) % slots;
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

/** Property: the packed, region-skipping model that stores only the
 *  ways it has filled matches the full-width reference op for op,
 *  including its snapshot bytes and every count slot. */
TEST(CacheModel, MatchesBruteForceReferenceUnderRandomOps)
{
    // Bases 1 GB apart alias in the full-width count table, and bases
    // 64 MB apart in the 1,024-slot table of a one-way stride; the 2 MB
    // windows at each base let 2 MB invalidations span 32 regions.
    const Addr alias = Addr(CacheModel::regionSlots)
                       << CacheModel::regionShift;
    const std::vector<Addr> bases = {0, alias, 6 * MiB,
                                     alias + 6 * MiB + 64 * KiB,
                                     64 * MiB + 64 * KiB};
    const std::vector<std::uint64_t> pages = {4 * KiB, 64 * KiB,
                                              2 * MiB};
    struct Geometry
    {
        std::uint64_t capacity;
        std::uint32_t ways;
        int ops;

        /** Ops between count-slot sweeps (the reference scans every
         *  line per slot, so large caches sweep less often). */
        int slotEvery;
    };
    for (const auto& [capacity, ways, ops, slot_every] :
         {Geometry{16 * KiB, 4, 20000, 64}, {256 * KiB, 16, 20000, 64},
          // Table 1: 3,072 sets, not a power of two.
          {6 * MiB, 16, 10000, 2500},
          // 12 ways: the stored ways grow 1, 2, 4, 8, then cap at 12.
          {40 * 12 * 128, 12, 20000, 64}}) {
        Rng rng(capacity + ways);
        auto cache =
            std::make_unique<CacheModel>("l2", capacity, 128, ways);
        RefCache ref(capacity, 128, ways);
        const auto pick = [&] {
            return bases[rng.below(bases.size())] + rng.below(2 * MiB);
        };
        for (int op = 0; op < ops; ++op) {
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
            if (op % slot_every == 0) {
                for (const Addr base : bases)
                    for (Addr a = base; a < base + 2 * MiB; a += 64 * KiB)
                        ASSERT_EQ(cache->residentInSlotOf(a),
                                  ref.residentInSlotOf(
                                      a, cache->residentSlots()))
                            << "op " << op << " addr " << a;
            }
        }
        EXPECT_EQ(saved(*cache), ref.snapshot());
    }
}

/** The cache's eviction count, as its stats report it. */
double
evictions(const CacheModel& cache)
{
    StatSet stats;
    cache.exportStats(stats);
    return stats.get("l2.evictions");
}

/** Address of the @p k-th line that maps to set @p set. */
Addr
lineInSet(const CacheModel& cache, std::uint64_t sets, std::uint64_t set,
          std::uint64_t k)
{
    return (k * sets + set) * cache.lineBytes();
}

TEST(CacheModel, StoredWaysGrowOnlyAsSetsFill)
{
    CacheModel cache("l2", 6 * MiB, 128, 16);
    const std::uint64_t sets = 6 * MiB / 128 / 16;
    EXPECT_EQ(cache.storedWays(), 1u);

    // One line in every set fills way 0 only.
    for (std::uint64_t set = 0; set < sets; ++set)
        cache.access(lineInSet(cache, sets, set, 0), true);
    EXPECT_EQ(cache.storedWays(), 1u);

    // A second line in one set needs way 1.
    cache.access(lineInSet(cache, sets, 7, 1), false);
    EXPECT_EQ(cache.storedWays(), 2u);

    // A miss that finds an invalid stored way reuses it.
    cache.invalidatePage(lineInSet(cache, sets, 7, 0), 128);
    cache.access(lineInSet(cache, sets, 7, 2), false);
    EXPECT_EQ(cache.storedWays(), 2u);
    EXPECT_TRUE(cache.contains(lineInSet(cache, sets, 7, 1)));
    EXPECT_TRUE(cache.contains(lineInSet(cache, sets, 7, 2)));

    // Filling one set to its associativity stores every way; the lines
    // already held survive each re-layout.
    for (std::uint64_t k = 3; k < 18; ++k)
        cache.access(lineInSet(cache, sets, 9, k), false);
    EXPECT_EQ(cache.storedWays(), 16u);
    for (std::uint64_t set = 0; set < sets; ++set)
        ASSERT_EQ(cache.contains(lineInSet(cache, sets, set, 0)), set != 7)
            << "set " << set;
    EXPECT_TRUE(cache.contains(lineInSet(cache, sets, 7, 1)));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(evictions(cache), 0.0);
}

TEST(CacheModel, StoredWaysCapAtAssociativityNotAPowerOfTwo)
{
    CacheModel cache("l2", 5 * 12 * 128, 128, 12); // 5 sets, 12 ways
    std::vector<std::uint32_t> seen;
    for (std::uint64_t k = 0; k < 13; ++k) {
        cache.access(lineInSet(cache, 5, 3, k), false);
        seen.push_back(cache.storedWays());
    }
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 4, 4, 8, 8, 8, 8,
                                                12, 12, 12, 12, 12}));
    // The 13th line evicted the LRU way (the first line).
    EXPECT_EQ(evictions(cache), 1.0);
    EXPECT_FALSE(cache.contains(lineInSet(cache, 5, 3, 0)));
}

TEST(CacheModel, RestoreRebuildsStoredWaysAndResavesIdentically)
{
    const std::uint64_t sets = 6 * MiB / 128 / 16;
    CacheModel cache("l2", 6 * MiB, 128, 16);
    // Three lines in set 1 store four ways; invalidating and flushing
    // leaves the ways stored (their stamps are not zero).
    for (std::uint64_t k = 0; k < 3; ++k)
        cache.access(lineInSet(cache, sets, 1, k), k == 2);
    cache.invalidatePage(lineInSet(cache, sets, 1, 2), 128);
    cache.access(lineInSet(cache, sets, 2, 0), false);
    ASSERT_EQ(cache.storedWays(), 4u);

    const auto roundTrip = [](const std::string& bytes) {
        auto restored = std::make_unique<CacheModel>("l2", 6 * MiB, 128, 16);
        snapshot::Deserializer in(bytes);
        restored->restoreState(in);
        return restored;
    };
    const std::string bytes = saved(cache);
    auto restored = roundTrip(bytes);
    EXPECT_EQ(restored->storedWays(), 4u);
    EXPECT_EQ(saved(*restored), bytes);

    // Both copies evolve identically from here.
    for (std::uint64_t k = 3; k < 20; ++k) {
        const Addr addr = lineInSet(cache, sets, 1, k);
        const CacheResult a = cache.access(addr, k % 3 == 0);
        const CacheResult b = restored->access(addr, k % 3 == 0);
        ASSERT_EQ(a.hit, b.hit);
        ASSERT_EQ(a.writebackBytes, b.writebackBytes);
        ASSERT_EQ(cache.storedWays(), restored->storedWays());
    }
    EXPECT_EQ(saved(*restored), saved(cache));

    cache.flushAll();
    EXPECT_EQ(roundTrip(saved(cache))->storedWays(), 16u);
    EXPECT_EQ(roundTrip(saved(CacheModel("l2", 6 * MiB, 128, 16)))
                  ->storedWays(),
              1u);
}

/** Property: the count table has regionSlots * storedWays / ways slots
 *  (the associativity rounded up to a power of two, regionSlots once
 *  every way is stored), and its counts stay exact through each growth
 *  and a restore. */
TEST(CacheModel, ResidentSlotsFollowStoredWays)
{
    struct Geometry
    {
        std::uint64_t capacity;
        std::uint32_t ways;
        std::vector<std::size_t> slots; ///< per stride 1, 2, 4, ...
    };
    for (const auto& [capacity, ways, want] :
         {Geometry{6 * MiB, 16, {1024, 2048, 4096, 8192, 16384}},
          Geometry{40 * 12 * 128, 12, {1024, 2048, 4096, 8192, 16384}},
          Geometry{16 * KiB, 4, {4096, 8192, 16384}}}) {
        const std::uint64_t sets = capacity / 128 / ways;
        CacheModel cache("l2", capacity, 128, ways);
        RefCache ref(capacity, 128, ways);
        // Line k of set 0 starts region k * sets, so the lines share
        // count slots differently in each table size: a table that kept
        // its old counts through a growth would read wrong.
        const auto lineAt = [sets](std::uint64_t k) {
            return Addr(k * sets) << CacheModel::regionShift;
        };
        const auto expectExact = [&](const CacheModel& model) {
            for (std::uint64_t k = 0; k <= ways; ++k)
                for (const Addr a : {lineAt(k), lineAt(k) + 64 * KiB})
                    ASSERT_EQ(model.residentInSlotOf(a),
                              ref.residentInSlotOf(a,
                                                   model.residentSlots()))
                        << "ways " << ways << " addr " << a;
        };

        // Fill set 0 and the last set one way at a time.
        std::size_t step = 0;
        ASSERT_EQ(cache.residentSlots(), want[step]);
        for (std::uint64_t k = 0; k < ways; ++k) {
            for (const Addr a : {lineAt(k), lineAt(k) + (sets - 1) * 128}) {
                cache.access(a, k % 2 == 0);
                ref.access(a, k % 2 == 0);
            }
            if (cache.storedWays() > (1u << step))
                ++step;
            ASSERT_EQ(cache.residentSlots(), want[step])
                << "ways " << ways << " stride " << cache.storedWays();
            expectExact(cache);
        }
        EXPECT_EQ(cache.storedWays(), ways);
        EXPECT_EQ(step + 1, want.size());

        // A restored cache sizes and fills its table the same way.
        const std::string bytes = saved(cache);
        CacheModel restored("l2", capacity, 128, ways);
        snapshot::Deserializer in(bytes);
        restored.restoreState(in);
        EXPECT_EQ(restored.residentSlots(), cache.residentSlots());
        expectExact(restored);

        // So does a restore of a cache still at one way.
        CacheModel narrow("l2", capacity, 128, ways);
        narrow.access(0, true);
        const std::string narrow_bytes = saved(narrow);
        CacheModel narrow_restored("l2", capacity, 128, ways);
        snapshot::Deserializer narrow_in(narrow_bytes);
        narrow_restored.restoreState(narrow_in);
        EXPECT_EQ(narrow_restored.residentSlots(), want.front());
        // Region want.front() shares line 0's slot only in that table.
        EXPECT_EQ(narrow_restored.residentInSlotOf(
                      Addr(want.front()) << CacheModel::regionShift),
                  1u);
    }
}

TEST(CacheModel, RestoreRejectsATagHeldTwiceInOneSet)
{
    const std::uint64_t sets = 16 * KiB / 128 / 4;
    auto cache = makeCache();
    cache.access(lineInSet(cache, sets, 0, 0), false);
    cache.access(lineInSet(cache, sets, 0, 1), false);
    const std::string good = saved(cache);

    // Rewrite set 0's way 1 tag (after the section tag, the line count
    // and one 18-byte line) to way 0's tag, 0.
    const std::size_t at = 8 + 5 + 8 + 18;
    std::string bad = good;
    for (int i = 0; i < 8; ++i)
        bad[at + i] = 0;
    auto restored = makeCache();
    snapshot::Deserializer in(bad);
    EXPECT_THROW(restored.restoreState(in), snapshot::SnapshotError);

    // The same two lines with way 1 invalid restore.
    bad[at + 8] = 0;
    snapshot::Deserializer fits(bad);
    EXPECT_NO_THROW(restored.restoreState(fits));
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

/**
 * @file
 * Unit and property tests for the GPS remote write queue: coalescing,
 * FIFO watermark draining, page flushes, hit-rate accounting and the
 * physically-addressed ablation, plus a randomized differential test of
 * the ring-and-index queue against a list-and-hash-map reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "core/remote_write_queue.hh"

namespace gps
{
namespace
{

class WqTest : public ::testing::Test
{
  protected:
    RemoteWriteQueue&
    makeQueue(std::uint32_t entries, bool virtually_addressed = true)
    {
        config.wqEntries = entries;
        config.virtuallyAddressedWq = virtually_addressed;
        queue_ = std::make_unique<RemoteWriteQueue>(
            "wq", config, 128, PageGeometry(64 * KiB));
        queue_->setDrainCallback(
            [this](const WqEntry& e) { drained.push_back(e); });
        return *queue_;
    }

    std::unique_ptr<RemoteWriteQueue> queue_;

    GpsConfig config;
    std::vector<WqEntry> drained;
};

TEST_F(WqTest, FirstStoreAllocatesEntry)
{
    auto& queue = makeQueue(16);
    EXPECT_FALSE(queue.insert(0x1000, 4, 1));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.inserts(), 1u);
}

TEST_F(WqTest, SameLineStoresCoalesce)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    EXPECT_TRUE(queue.insert(0x1004, 4, 1));
    EXPECT_TRUE(queue.insert(0x1040, 8, 1));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.coalesced(), 2u);
}

TEST_F(WqTest, NonConsecutiveSameLineStoresStillCoalesce)
{
    // Section 3.3: stores need not be consecutive to coalesce.
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    queue.insert(0x2000, 4, 1);
    queue.insert(0x3000, 4, 1);
    EXPECT_TRUE(queue.insert(0x1008, 4, 1));
}

TEST_F(WqTest, WatermarkDrainsLeastRecentlyAdded)
{
    auto& queue = makeQueue(4); // watermark = 3
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.insert(2 * 128, 4, 1);
    EXPECT_TRUE(drained.empty());
    queue.insert(3 * 128, 4, 1); // occupancy 4 > 3: drain the oldest
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].line, 0u);
}

TEST_F(WqTest, CoalescingIntoOldEntryDoesNotRefreshItsAge)
{
    auto& queue = makeQueue(4);
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.insert(2 * 128, 4, 1);
    queue.insert(0 * 128 + 4, 4, 1); // coalesces; age unchanged
    queue.insert(3 * 128, 4, 1);     // drain: line 0 is still oldest
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].line, 0u);
    EXPECT_EQ(drained[0].mergedStores, 2u);
}

TEST_F(WqTest, DrainAllFlushesInFifoOrder)
{
    auto& queue = makeQueue(16);
    queue.insert(2 * 128, 4, 1);
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.drainAll();
    ASSERT_EQ(drained.size(), 3u);
    EXPECT_EQ(drained[0].line, 2 * 128u);
    EXPECT_EQ(drained[1].line, 0u);
    EXPECT_EQ(drained[2].line, 1 * 128u);
    EXPECT_EQ(queue.occupancy(), 0u);
}

TEST_F(WqTest, DrainPageFlushesOnlyThatPage)
{
    auto& queue = makeQueue(16);
    const Addr page0 = 0;
    const Addr page1 = 64 * KiB;
    queue.insert(page0, 4, 1);
    queue.insert(page1, 4, 1);
    queue.insert(page0 + 128, 4, 1);
    queue.drainPage(0);
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_TRUE(queue.contains(page1));
    EXPECT_FALSE(queue.contains(page0));
}

TEST_F(WqTest, ContainsChecksLineResidency)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    EXPECT_TRUE(queue.contains(0x1000));
    EXPECT_TRUE(queue.contains(0x107F));
    EXPECT_FALSE(queue.contains(0x1080));
}

TEST_F(WqTest, BytesWrittenAccumulateAndCapAtLine)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 100, 1);
    queue.insert(0x1000, 100, 1);
    queue.drainAll();
    ASSERT_EQ(drained.size(), 1u);
    EXPECT_EQ(drained[0].bytesWritten, 128u);
}

TEST_F(WqTest, HitRateIncludesAtomicBypasses)
{
    // Section 7.4: atomics are not coalesced and count as misses.
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1); // miss
    queue.insert(0x1004, 4, 1); // hit
    queue.noteAtomicBypass();
    queue.noteAtomicBypass();
    EXPECT_DOUBLE_EQ(queue.hitRate(), 0.25);
}

TEST_F(WqTest, PhysicallyAddressedEntriesWeighPerSubscriber)
{
    // Section 5.3 ablation: one entry per (line, subscriber) shrinks
    // effective capacity.
    auto& queue = makeQueue(8, false);
    queue.insert(0, 4, 3);   // weight 3
    queue.insert(128, 4, 3); // weight 3
    EXPECT_EQ(queue.occupancy(), 6u);
    queue.insert(256, 4, 3); // occupancy 9 > watermark 7: drains
    EXPECT_FALSE(drained.empty());
}

TEST_F(WqTest, VirtualAddressingKeepsOneEntryRegardless)
{
    auto& queue = makeQueue(8, true);
    queue.insert(0, 4, 3);
    EXPECT_EQ(queue.occupancy(), 1u);
}

TEST_F(WqTest, CoalescingRefreshesWeightWhenCopiesGrow)
{
    // Physically addressed: an entry's weight is the subscriber copy
    // count, which can change between the allocating store and a later
    // coalescing one. The coalesce must re-charge occupancy.
    auto& queue = makeQueue(16, false);
    queue.insert(0, 4, 1);
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_TRUE(queue.insert(4, 4, 3));
    EXPECT_EQ(queue.occupancy(), 3u);
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
}

TEST_F(WqTest, CoalescingRefreshesWeightWhenCopiesShrink)
{
    auto& queue = makeQueue(16, false);
    queue.insert(0, 4, 3);
    EXPECT_EQ(queue.occupancy(), 3u);
    EXPECT_TRUE(queue.insert(4, 4, 1));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
}

TEST_F(WqTest, WeightGrowthOnCoalesceCanForceWatermarkDrain)
{
    auto& queue = makeQueue(4, false); // watermark = 3
    queue.insert(0 * 128, 4, 1);
    queue.insert(1 * 128, 4, 1);
    queue.insert(2 * 128, 4, 1);
    EXPECT_TRUE(drained.empty());
    // Coalesce into line 0 with more copies: occupancy 5 > watermark 3.
    EXPECT_TRUE(queue.insert(0 * 128 + 4, 4, 3));
    EXPECT_FALSE(drained.empty());
    EXPECT_LE(queue.occupancy(), 3u);
    EXPECT_EQ(queue.inserts(),
              queue.drains() + queue.residentEntries());
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
}

TEST_F(WqTest, VirtualWqIgnoresCopiesOnCoalesce)
{
    auto& queue = makeQueue(16, true);
    queue.insert(0, 4, 1);
    EXPECT_TRUE(queue.insert(4, 4, 3));
    EXPECT_EQ(queue.occupancy(), 1u);
    EXPECT_EQ(queue.weightSum(), 1u);
}

TEST_F(WqTest, DrainPageInterleavedWithWatermarkKeepsConservation)
{
    // drainPage in the middle of watermark-driven churn must keep the
    // books balanced: inserts == drains + resident, occupancy == Σ w.
    auto& queue = makeQueue(4, false);
    const Addr page1 = 64 * KiB;
    queue.insert(0 * 128, 4, 2);        // page 0, weight 2
    queue.insert(page1 + 0 * 128, 4, 1); // page 1
    queue.drainPage(0);                  // flush page 0 only
    queue.insert(page1 + 1 * 128, 4, 2);
    queue.insert(0 * 128, 4, 2);         // page 0 again; forces drains
    queue.insert(page1 + 2 * 128, 4, 1);
    queue.drainPage(1);
    queue.insert(0 * 128 + 8, 4, 2);     // coalesce or realloc
    EXPECT_EQ(queue.inserts(),
              queue.drains() + queue.residentEntries());
    EXPECT_EQ(queue.weightSum(), queue.occupancy());
    queue.drainAll();
    EXPECT_EQ(queue.inserts(), queue.drains());
    EXPECT_EQ(queue.occupancy(), 0u);
    EXPECT_EQ(queue.residentEntries(), 0u);
}

TEST_F(WqTest, ForwardHitsCountAndExport)
{
    auto& queue = makeQueue(16);
    queue.insert(0x1000, 4, 1);
    queue.noteForwardHit();
    queue.noteForwardHit();
    EXPECT_EQ(queue.forwardHits(), 2u);
    StatSet stats;
    queue.exportStats(stats);
    EXPECT_DOUBLE_EQ(stats.get("wq.forward_hits"), 2.0);
}

TEST_F(WqTest, SramFootprintMatchesTable1)
{
    auto& queue = makeQueue(512);
    // 512 entries x 135 B = 69120 B ~ 68 KB (Section 5.2).
    EXPECT_EQ(queue.sramBytes(), 512u * 135u);
    EXPECT_NEAR(static_cast<double>(queue.sramBytes()) / 1024.0, 67.5,
                0.1);
}

/** Property: occupancy never exceeds the watermark after an insert. */
class WqCapacity : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(WqCapacity, OccupancyBoundedByWatermark)
{
    GpsConfig config;
    config.wqEntries = GetParam();
    RemoteWriteQueue queue("wq", config, 128, PageGeometry(64 * KiB));
    queue.setDrainCallback([](const WqEntry&) {});
    for (Addr line = 0; line < 4096; ++line) {
        queue.insert(line * 128, 4, 3);
        ASSERT_LE(queue.occupancy(), config.highWatermark());
    }
}

TEST_P(WqCapacity, EveryInsertEventuallyDrainsExactlyOnce)
{
    GpsConfig config;
    config.wqEntries = GetParam();
    RemoteWriteQueue queue("wq", config, 128, PageGeometry(64 * KiB));
    std::uint64_t drains = 0;
    queue.setDrainCallback([&](const WqEntry&) { ++drains; });
    const std::uint64_t lines = 1000;
    for (Addr line = 0; line < lines; ++line)
        queue.insert(line * 128, 4, 1);
    queue.drainAll();
    EXPECT_EQ(drains, lines);
    EXPECT_EQ(queue.occupancy(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WqCapacity,
                         ::testing::Values(4, 16, 64, 512, 1024));

/**
 * Reference queue: a std::list in insertion order plus a hash map from
 * line to list node, with the same watermark, saturation, coalescing and
 * snapshot rules as RemoteWriteQueue (and no collectors).
 */
class ListQueue
{
  public:
    ListQueue(const GpsConfig& config, std::uint32_t line_bytes,
              PageGeometry geometry)
        : config_(config), lineBytes_(line_bytes), geometry_(geometry)
    {}

    std::vector<WqEntry> drained;

    bool
    insert(Addr addr, std::uint32_t size, std::uint32_t copies)
    {
        const Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
        const std::uint32_t weight =
            config_.virtuallyAddressedWq ? 1 : std::max(copies, 1u);
        const auto hit = index_.find(line);
        if (hit != index_.end()) {
            WqEntry& entry = *hit->second;
            entry.bytesWritten =
                std::min<std::uint32_t>(lineBytes_, entry.bytesWritten + size);
            ++entry.mergedStores;
            ++coalesced;
            if (weight != entry.weight) {
                occupancy = occupancy - entry.weight + weight;
                entry.weight = weight;
                drainToWatermark();
            }
            return true;
        }
        WqEntry entry;
        entry.line = line;
        entry.bytesWritten = std::min<std::uint32_t>(lineBytes_, size);
        entry.mergedStores = 1;
        entry.weight = weight;
        entry.seq = inserts;
        fifo_.push_back(entry);
        index_.emplace(line, std::prev(fifo_.end()));
        occupancy += weight;
        ++inserts;
        drainToWatermark();
        return false;
    }

    bool
    contains(Addr addr) const
    {
        return index_.count(addr & ~static_cast<Addr>(lineBytes_ - 1)) != 0;
    }

    void
    drainAll()
    {
        while (!fifo_.empty())
            drainEntry(fifo_.begin());
    }

    void
    drainPage(PageNum vpn)
    {
        for (auto it = fifo_.begin(); it != fifo_.end();) {
            auto here = it++;
            if (geometry_.pageNum(here->line) == vpn)
                drainEntry(here);
        }
    }

    void setSaturated(bool saturated) { saturated_ = saturated; }

    std::vector<WqEntry>
    entries() const
    {
        return {fifo_.begin(), fifo_.end()};
    }

    /** RemoteWriteQueue::saveState's encoding. */
    std::string
    saved() const
    {
        snapshot::Serializer out;
        out.section("rwq");
        out.u64(fifo_.size());
        for (const WqEntry& e : fifo_) {
            out.u64(e.line);
            out.u64(geometry_.pageNum(e.line));
            out.u32(e.bytesWritten);
            out.u32(e.mergedStores);
            out.u32(e.weight);
            out.u64(e.seq);
        }
        out.u32(occupancy);
        out.u64(inserts);
        out.u64(coalesced);
        out.u64(drains);
        out.u64(0); // atomic bypasses
        out.u64(watermarkDrains);
        out.u64(0); // forward hits
        out.u64(stallDrains);
        out.b(saturated_);
        return out.bytes();
    }

    std::uint32_t occupancy = 0;
    std::uint64_t inserts = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t drains = 0;
    std::uint64_t watermarkDrains = 0;
    std::uint64_t stallDrains = 0;

  private:
    void
    drainToWatermark()
    {
        std::uint32_t watermark = config_.highWatermark();
        if (saturated_ && config_.saturatedWatermarkDivisor > 0)
            watermark = std::min(
                watermark,
                config_.wqEntries / config_.saturatedWatermarkDivisor);
        while (occupancy > watermark && fifo_.size() > 1) {
            ++watermarkDrains;
            if (saturated_)
                ++stallDrains;
            drainEntry(fifo_.begin());
        }
    }

    void
    drainEntry(std::list<WqEntry>::iterator it)
    {
        drained.push_back(*it);
        index_.erase(it->line);
        occupancy -= it->weight;
        fifo_.erase(it);
        ++drains;
    }

    GpsConfig config_;
    std::uint32_t lineBytes_;
    PageGeometry geometry_;
    std::list<WqEntry> fifo_;
    std::unordered_map<Addr, std::list<WqEntry>::iterator> index_;
    bool saturated_ = false;
};

bool
sameEntry(const WqEntry& a, const WqEntry& b)
{
    return a.line == b.line &&
           a.bytesWritten == b.bytesWritten &&
           a.mergedStores == b.mergedStores && a.weight == b.weight &&
           a.seq == b.seq;
}

std::string
describe(const WqEntry& e)
{
    return "line=" + std::to_string(e.line) +
           " bytes=" + std::to_string(e.bytesWritten) +
           " merged=" + std::to_string(e.mergedStores) +
           " weight=" + std::to_string(e.weight) +
           " seq=" + std::to_string(e.seq);
}

std::string
saved(const RemoteWriteQueue& queue)
{
    snapshot::Serializer out;
    queue.saveState(out);
    return out.bytes();
}

struct DiffCase
{
    std::uint32_t wqEntries;
    bool virtuallyAddressed;

    /** Distinct lines the stores draw from (spread over 64 KB pages). */
    std::uint64_t lines;

    /** Stores to this many pool lines, in order, before the random mix. */
    std::uint64_t fillFirst;

    int ops;
};

void
PrintTo(const DiffCase& c, std::ostream* os)
{
    *os << "wq" << c.wqEntries << (c.virtuallyAddressed ? "_va" : "_pa")
        << "_lines" << c.lines;
}

/** Property: the ring-and-index queue matches the list-and-map reference
 *  op for op: drained entries in order, counters, occupancy, resident
 *  entries front to back, and snapshot bytes, across saves and restores
 *  in the middle of the stream. */
class WqDifferential : public ::testing::TestWithParam<DiffCase>
{};

TEST_P(WqDifferential, MatchesListAndMapReference)
{
    const DiffCase c = GetParam();
    GpsConfig config;
    config.wqEntries = c.wqEntries;
    config.virtuallyAddressedWq = c.virtuallyAddressed;
    const PageGeometry geometry(64 * KiB);
    const std::uint64_t lines_per_page = 64 * KiB / 128;

    std::vector<WqEntry> drained;
    const auto make = [&] {
        auto queue =
            std::make_unique<RemoteWriteQueue>("wq", config, 128, geometry);
        queue->setDrainCallback(
            [&drained](const WqEntry& e) { drained.push_back(e); });
        return queue;
    };
    auto queue = make();
    ListQueue ref(config, 128, geometry);
    Rng rng(c.wqEntries * 1000003ULL + c.lines);

    // Distinct lines scattered over the pages (an odd prime stride mod a
    // power of two visits each line once), so page drains hit entries
    // anywhere in the queue.
    const std::uint64_t pages =
        std::bit_ceil(std::max<std::uint64_t>(4, c.lines / lines_per_page + 1));
    std::vector<Addr> pool;
    for (std::uint64_t i = 0; i < c.lines; ++i)
        pool.push_back(i * 7919 % (pages * lines_per_page) * 128);

    std::size_t compared = 0;
    std::uint64_t peak_resident = 0;
    for (std::uint64_t i = 0; i < c.fillFirst; ++i) {
        ASSERT_EQ(queue->insert(pool[i], 4, 1), ref.insert(pool[i], 4, 1));
        peak_resident = std::max(peak_resident, queue->residentEntries());
    }
    for (int op = 0; op < c.ops; ++op) {
        const std::uint64_t kind = rng.below(1000);
        if (kind < 900) {
            const Addr addr = pool[rng.below(pool.size())] + rng.below(128);
            const auto size = static_cast<std::uint32_t>(1 + rng.below(16));
            const auto copies = static_cast<std::uint32_t>(1 + rng.below(255));
            ASSERT_EQ(queue->insert(addr, size, copies),
                      ref.insert(addr, size, copies))
                << "op " << op;
        } else if (kind < 960) {
            const Addr addr = pool[rng.below(pool.size())];
            ASSERT_EQ(queue->contains(addr), ref.contains(addr))
                << "op " << op;
        } else if (kind < 980) {
            const PageNum vpn = rng.below(pages);
            queue->drainPage(vpn);
            ref.drainPage(vpn);
        } else if (kind < 985) {
            queue->drainAll();
            ref.drainAll();
        } else if (kind < 993) {
            const bool saturated = rng.chance(0.5);
            queue->setSaturated(saturated);
            ref.setSaturated(saturated);
        } else {
            // Save mid-stream and carry on in a fresh queue restored
            // from the bytes.
            const std::string bytes = saved(*queue);
            ASSERT_EQ(bytes, ref.saved()) << "op " << op;
            auto restored = make();
            snapshot::Deserializer in(bytes);
            restored->restoreState(in);
            ASSERT_TRUE(in.atEnd());
            ASSERT_EQ(saved(*restored), bytes) << "op " << op;
            queue = std::move(restored);
        }

        ASSERT_EQ(drained.size(), ref.drained.size()) << "op " << op;
        for (; compared < drained.size(); ++compared)
            ASSERT_TRUE(sameEntry(drained[compared], ref.drained[compared]))
                << "op " << op << " drain " << compared << ": "
                << describe(drained[compared]) << " vs "
                << describe(ref.drained[compared]);
        ASSERT_EQ(queue->occupancy(), ref.occupancy) << "op " << op;
        ASSERT_EQ(queue->inserts(), ref.inserts) << "op " << op;
        ASSERT_EQ(queue->coalesced(), ref.coalesced) << "op " << op;
        ASSERT_EQ(queue->drains(), ref.drains) << "op " << op;
        ASSERT_EQ(queue->watermarkDrains(), ref.watermarkDrains)
            << "op " << op;
        ASSERT_EQ(queue->stallDrains(), ref.stallDrains) << "op " << op;
        ASSERT_EQ(queue->weightSum(), queue->occupancy()) << "op " << op;
        peak_resident = std::max(peak_resident, queue->residentEntries());

        if (op % 97 == 0 || op + 1 == c.ops) {
            const std::vector<WqEntry> want = ref.entries();
            std::vector<WqEntry> got;
            queue->forEachEntry(
                [&got](const WqEntry& e) { got.push_back(e); });
            ASSERT_EQ(got.size(), want.size()) << "op " << op;
            ASSERT_EQ(queue->residentEntries(), want.size()) << "op " << op;
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_TRUE(sameEntry(got[i], want[i]))
                    << "op " << op << " entry " << i;
            ASSERT_EQ(saved(*queue), ref.saved()) << "op " << op;
        }
    }

    queue->drainAll();
    ref.drainAll();
    ASSERT_EQ(drained.size(), ref.drained.size());
    for (; compared < drained.size(); ++compared)
        ASSERT_TRUE(sameEntry(drained[compared], ref.drained[compared]));
    EXPECT_EQ(queue->residentEntries(), 0u);
    EXPECT_EQ(saved(*queue), ref.saved());
    EXPECT_GE(peak_resident, std::min<std::uint64_t>(c.fillFirst,
                                                     config.highWatermark()));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, WqDifferential,
    ::testing::Values(
        DiffCase{1, true, 64, 0, 20000}, DiffCase{2, true, 64, 0, 20000},
        DiffCase{3, true, 64, 0, 20000}, DiffCase{1, false, 64, 0, 20000},
        DiffCase{2, false, 64, 0, 20000}, DiffCase{3, false, 64, 0, 20000},
        DiffCase{512, true, 2000, 600, 40000},
        DiffCase{512, false, 2000, 600, 40000},
        // 6,000 resident entries grow the ring past 4,096 slots.
        DiffCase{8192, true, 60000, 6000, 20000}));

TEST(WqSnapshot, RestoreRejectsALineBufferedTwice)
{
    GpsConfig config;
    RemoteWriteQueue queue("wq", config, 128, PageGeometry(64 * KiB));
    queue.setDrainCallback([](const WqEntry&) {});
    queue.insert(0, 4, 1);
    queue.insert(128, 4, 1);
    std::string bytes = saved(queue);

    // Rewrite the second entry's line (after the section tag, the entry
    // count and one 36-byte entry) to the first entry's.
    const std::size_t at = 8 + 3 + 8 + 36;
    for (int i = 0; i < 8; ++i)
        bytes[at + i] = 0;
    RemoteWriteQueue restored("wq", config, 128, PageGeometry(64 * KiB));
    snapshot::Deserializer in(bytes);
    EXPECT_THROW(restored.restoreState(in), snapshot::SnapshotError);
}

} // namespace
} // namespace gps

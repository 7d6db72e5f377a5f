/**
 * @file
 * Unit tests for the GPS access tracking unit.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/stats.hh"
#include "core/access_tracker.hh"

namespace gps
{
namespace
{

TEST(AccessTracker, InactiveMarksAreIgnored)
{
    AccessTracker tracker(4);
    tracker.mark(0, 1);
    EXPECT_FALSE(tracker.touched(0, 1));
    EXPECT_EQ(tracker.marks(), 0u);
}

TEST(AccessTracker, ActiveMarksRecordPerGpu)
{
    AccessTracker tracker(4);
    tracker.start();
    tracker.mark(0, 1);
    tracker.mark(2, 1);
    tracker.mark(2, 5);
    EXPECT_TRUE(tracker.touched(0, 1));
    EXPECT_TRUE(tracker.touched(2, 1));
    EXPECT_FALSE(tracker.touched(1, 1));
    EXPECT_FALSE(tracker.touched(2, 7));
}

TEST(AccessTracker, TouchedMaskAggregates)
{
    AccessTracker tracker(4);
    tracker.start();
    tracker.mark(1, 9);
    tracker.mark(3, 9);
    EXPECT_EQ(tracker.touchedMask(9), gpuBit(1) | gpuBit(3));
    EXPECT_EQ(tracker.touchedMask(10), 0u);
}

TEST(AccessTracker, StopFreezesTheWindow)
{
    AccessTracker tracker(4);
    tracker.start();
    tracker.mark(0, 1);
    tracker.stop();
    tracker.mark(0, 2);
    EXPECT_TRUE(tracker.touched(0, 1));
    EXPECT_FALSE(tracker.touched(0, 2));
}

TEST(AccessTracker, ClearForgetsEverything)
{
    AccessTracker tracker(4);
    tracker.start();
    tracker.mark(0, 1);
    tracker.clear();
    EXPECT_FALSE(tracker.touched(0, 1));
}

TEST(AccessTracker, BitmapFootprintMatchesPaper)
{
    // Section 5.2: one bit per 64 KB page over 32 GB = 64 KB of DRAM.
    EXPECT_EQ(AccessTracker::bitmapBytes(32 * GiB, 64 * KiB), 64 * KiB);
    // 4 KB pages would need 16x more.
    EXPECT_EQ(AccessTracker::bitmapBytes(32 * GiB, 4 * KiB),
              16 * 64 * KiB);
}

TEST(AccessTracker, DuplicateMarksAreIdempotent)
{
    AccessTracker tracker(2);
    tracker.start();
    tracker.mark(0, 1);
    tracker.mark(0, 1);
    EXPECT_EQ(tracker.touchedMask(1), gpuBit(0));
    EXPECT_EQ(tracker.marks(), 2u); // bandwidth accounting still counts
}

TEST(AccessTracker, SnapshotListsEachGpusPagesAscending)
{
    // Marks arrive out of order and below the first page marked, so the
    // per-page masks grow at both ends; the snapshot still holds one
    // ascending VPN list per GPU, and a restore reproduces it.
    AccessTracker tracker(3);
    tracker.start();
    const std::vector<std::pair<GpuId, PageNum>> marks = {
        {2, 500}, {0, 40}, {2, 41}, {0, 500}, {0, 40}, {1, 7}, {2, 40}};
    for (const auto& [gpu, vpn] : marks)
        tracker.mark(gpu, vpn);

    snapshot::Serializer want;
    want.section("tracker");
    want.u64(3);
    for (const std::vector<PageNum>& vpns :
         {std::vector<PageNum>{40, 500}, {7}, {40, 41, 500}}) {
        want.u64(vpns.size());
        for (const PageNum vpn : vpns)
            want.u64(vpn);
    }
    want.b(true);
    want.u64(marks.size());
    snapshot::Serializer got;
    tracker.saveState(got);
    EXPECT_EQ(got.bytes(), want.bytes());

    StatSet stats;
    tracker.exportStats(stats);
    EXPECT_DOUBLE_EQ(stats.get("access_tracker.marks"), 7.0);
    EXPECT_DOUBLE_EQ(stats.get("access_tracker.touched_page_entries"), 6.0);

    AccessTracker restored(3);
    snapshot::Deserializer in(got.bytes());
    restored.restoreState(in, [](PageNum) { return true; });
    EXPECT_EQ(restored.touchedMask(40), gpuBit(0) | gpuBit(2));
    EXPECT_EQ(restored.touchedMask(7), gpuBit(1));
    EXPECT_EQ(restored.touchedMask(8), 0u);
    snapshot::Serializer again;
    restored.saveState(again);
    EXPECT_EQ(again.bytes(), got.bytes());
}

} // namespace
} // namespace gps

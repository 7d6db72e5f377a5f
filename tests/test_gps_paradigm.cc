/**
 * @file
 * Unit tests for the GPS paradigm: load/store routing, store
 * forwarding, write-queue forwarding to loads, sys-scope collapse,
 * profiling-driven unsubscription and manual subscription.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/gps_paradigm.hh"
#include "obs/profile.hh"

namespace gps
{
namespace
{

class GpsParadigmTest : public ::testing::Test
{
  protected:
    GpsParadigmTest()
    {
        SystemConfig config;
        config.numGpus = 4;
        system = std::make_unique<MultiGpuSystem>(config);
        paradigm = std::make_unique<GpsParadigm>(*system);
        traffic = std::make_unique<TrafficMatrix>(4);
        region = &system->driver().mallocGps(2 * 64 * KiB, "gps", 0);
        vpn = system->geometry().pageNum(region->base);
        paradigm->onSetupComplete(); // subscribe-all (auto mode)
    }

    void
    access(GpuId gpu, const MemAccess& a)
    {
        const PageNum page = system->geometry().pageNum(a.vaddr);
        const bool miss = system->gpu(gpu).tlbAccess(page, counters);
        paradigm->access(gpu, a, page, miss, counters, *traffic);
    }

    void
    endKernels()
    {
        for (GpuId g = 0; g < 4; ++g)
            paradigm->endKernel(g, counters, *traffic);
    }

    std::unique_ptr<MultiGpuSystem> system;
    std::unique_ptr<GpsParadigm> paradigm;
    std::unique_ptr<TrafficMatrix> traffic;
    const Region* region = nullptr;
    PageNum vpn = 0;
    KernelCounters counters;
};

TEST_F(GpsParadigmTest, SetupSubscribesEveryGpuToAutoRegions)
{
    EXPECT_EQ(paradigm->subscriptions().subscribers(vpn), maskAll(4));
    EXPECT_TRUE(system->driver().state(vpn).gpsBitSet);
}

TEST_F(GpsParadigmTest, SubscriberLoadIsPurelyLocal)
{
    access(1, MemAccess::load(region->base));
    EXPECT_EQ(counters.remoteLoads, 0u);
    EXPECT_EQ(traffic->total(), 0u);
    EXPECT_EQ(counters.l2Misses, 1u);
}

TEST_F(GpsParadigmTest, WeakStoreEntersWriteQueueNotWire)
{
    access(0, MemAccess::store(region->base));
    EXPECT_EQ(counters.wqInserts, 1u);
    // Nothing drained yet: no traffic until a drain point.
    EXPECT_EQ(traffic->total(), 0u);
}

TEST_F(GpsParadigmTest, DrainForwardsOneLineToEachRemoteSubscriber)
{
    access(0, MemAccess::store(region->base));
    endKernels();
    EXPECT_EQ(counters.wqDrains, 1u);
    const std::uint64_t msg =
        128 + system->topology().spec().headerBytes;
    for (GpuId g = 1; g < 4; ++g)
        EXPECT_EQ(traffic->at(0, g), msg);
    EXPECT_EQ(traffic->at(0, 0), 0u);
    EXPECT_EQ(counters.pushedStoreBytes, 3u * 128u);
}

TEST_F(GpsParadigmTest, SameLineStoresCoalesceBeforeTheWire)
{
    // Two temporally distant same-line stores: one wire message.
    access(0, MemAccess::store(region->base));
    for (Addr a = 128; a < 128 * 40; a += 128)
        access(0, MemAccess::store(region->base + a));
    access(0, MemAccess::store(region->base + 4));
    EXPECT_EQ(counters.wqCoalesced, 1u);
    endKernels();
    EXPECT_EQ(counters.wqDrains, 40u);
}

TEST_F(GpsParadigmTest, SmCoalescerAbsorbsImmediateSameLineStores)
{
    access(0, MemAccess::store(region->base));
    access(0, MemAccess::store(region->base + 4));
    EXPECT_EQ(counters.smCoalesced, 1u);
    EXPECT_EQ(counters.wqInserts, 1u);
}

TEST_F(GpsParadigmTest, AtomicsBypassCoalescingAndForwardEach)
{
    access(0, MemAccess::atomic(region->base, 4));
    access(0, MemAccess::atomic(region->base, 4));
    EXPECT_EQ(counters.wqAtomicBypass, 2u);
    EXPECT_EQ(counters.wqCoalesced, 0u);
    // One message per atomic per subscriber; the wire bytes reach the
    // phase traffic at the kernel boundary.
    endKernels();
    const std::uint64_t msg =
        4 + system->topology().spec().headerBytes;
    EXPECT_EQ(traffic->at(0, 1), 2 * msg);
    EXPECT_DOUBLE_EQ(paradigm->wqHitRate(), 0.0);
}

TEST_F(GpsParadigmTest, SoleSubscriberStoreIsNotForwarded)
{
    // Unsubscribe everyone but GPU0: the page is demoted.
    KernelCounters scratch;
    for (GpuId g = 1; g < 4; ++g)
        paradigm->subscriptions().unsubscribe(vpn, g, &scratch);
    access(0, MemAccess::store(region->base));
    endKernels();
    EXPECT_EQ(traffic->total(), 0u);
    EXPECT_EQ(counters.wqInserts, 0u);
}

TEST_F(GpsParadigmTest, NonSubscriberLoadGoesToASubscriber)
{
    KernelCounters scratch;
    // GPU3 unsubscribes from page 0.
    paradigm->subscriptions().unsubscribe(vpn, 3, &scratch);
    access(3, MemAccess::load(region->base));
    EXPECT_EQ(counters.remoteLoads, 1u);
}

TEST_F(GpsParadigmTest, NonSubscriberLoadForwardsFromOwnWriteQueue)
{
    KernelCounters scratch;
    paradigm->subscriptions().unsubscribe(vpn, 3, &scratch);
    // GPU3 stores first (buffered in its WQ), then loads the same line.
    access(3, MemAccess::store(region->base));
    access(3, MemAccess::load(region->base));
    EXPECT_EQ(counters.remoteLoads, 0u);
}

TEST_F(GpsParadigmTest, SysStoreCollapsesThePage)
{
    access(0, MemAccess::store(region->base)); // in-flight weak store
    access(1, MemAccess::sysStore(region->base));
    EXPECT_EQ(counters.sysCollapses, 1u);
    const PageState& st = system->driver().state(vpn);
    EXPECT_TRUE(st.collapsed);
    EXPECT_EQ(maskCount(st.subscribers), 1u);
    // The in-flight write was flushed before the collapse.
    EXPECT_GE(counters.wqDrains, 1u);
    // Subsequent accesses behave conventionally (single copy).
    const std::uint64_t loads_before = counters.remoteLoads;
    access(2, MemAccess::load(region->base));
    EXPECT_GE(counters.remoteLoads, loads_before);
}

TEST_F(GpsParadigmTest, TrackingStopUnsubscribesUntouchedGpus)
{
    paradigm->trackingStart();
    // Only GPUs 0 and 2 touch page 0 during profiling; nobody touches
    // page 1.
    access(0, MemAccess::store(region->base));
    access(2, MemAccess::load(region->base));
    endKernels();
    paradigm->trackingStop(counters);
    EXPECT_EQ(paradigm->subscriptions().subscribers(vpn),
              gpuBit(0) | gpuBit(2));
    // Untouched page keeps exactly one subscriber.
    EXPECT_EQ(maskCount(paradigm->subscriptions().subscribers(vpn + 1)),
              1u);
}

TEST_F(GpsParadigmTest, TrackingDisabledKeepsAllToAll)
{
    SystemConfig config;
    config.numGpus = 4;
    config.gps.autoUnsubscribe = false;
    MultiGpuSystem sys2(config);
    GpsParadigm p2(sys2);
    const Region& r = sys2.driver().mallocGps(64 * KiB, "gps", 0);
    p2.onSetupComplete();
    p2.trackingStart();
    KernelCounters c;
    p2.trackingStop(c);
    EXPECT_EQ(p2.subscriptions().subscribers(
                  sys2.geometry().pageNum(r.base)),
              maskAll(4));
}

TEST_F(GpsParadigmTest, ManualRegionsAreNotAutoSubscribed)
{
    SystemConfig config;
    config.numGpus = 4;
    MultiGpuSystem sys2(config);
    GpsParadigm p2(sys2);
    const Region& r =
        sys2.driver().mallocGps(64 * KiB, "manual", 1, true);
    p2.onSetupComplete();
    const PageNum p = sys2.geometry().pageNum(r.base);
    EXPECT_EQ(p2.subscriptions().subscribers(p), gpuBit(1));
    // Manual subscription through the memAdvise-style hook.
    p2.adviseSubscribe(r.base, r.size, 3);
    EXPECT_EQ(p2.subscriptions().subscribers(p),
              gpuBit(1) | gpuBit(3));
    EXPECT_TRUE(p2.adviseUnsubscribe(r.base, r.size, 3));
    // Refusing to drop the last subscriber reports false.
    EXPECT_FALSE(p2.adviseUnsubscribe(r.base, r.size, 1));
}

TEST_F(GpsParadigmTest, GpsTlbCountsHitsOnRepeatedDrains)
{
    for (int i = 0; i < 10; ++i) {
        access(0, MemAccess::store(region->base +
                                   static_cast<Addr>(i) * 128));
    }
    endKernels();
    EXPECT_EQ(counters.gpsTlbMisses, 1u);
    EXPECT_EQ(counters.gpsTlbHits, 9u);
    EXPECT_GT(paradigm->gpsTlbHitRate(), 0.8);
}

TEST_F(GpsParadigmTest, SubscriberHistogramReflectsSubscriptions)
{
    KernelCounters scratch;
    paradigm->subscriptions().unsubscribe(vpn, 2, &scratch);
    paradigm->subscriptions().unsubscribe(vpn, 3, &scratch);
    Histogram hist(8);
    EXPECT_TRUE(paradigm->fillSubscriberHistogram(hist));
    EXPECT_EQ(hist.bucket(2), 1u); // page 0: two subscribers
    EXPECT_EQ(hist.bucket(4), 1u); // page 1: still all four
}

/**
 * Hand model of one forwarded message on 16 GPUs in nodes of 8: flat
 * forwarding sends a copy to every remote subscriber; hierarchical
 * forwarding sends one uplink copy per remote node to that node's
 * lowest subscriber, which relays it to its node-mates.
 */
void
expectMessage(TrafficMatrix& want, std::uint64_t& uplinks, GpuId producer,
              const GpuMask& subscribers, std::uint32_t payload,
              std::uint64_t header, bool hier)
{
    const auto node = [](GpuId g) { return g / 8; };
    for (GpuId sub = 0; sub < 16; ++sub) {
        if (sub == producer || !maskHas(subscribers, sub))
            continue;
        GpuId src = producer;
        if (node(sub) != node(producer)) {
            GpuId proxy = sub;
            for (GpuId g = node(sub) * 8; g < sub; ++g) {
                if (maskHas(subscribers, g)) {
                    proxy = g;
                    break;
                }
            }
            if (!hier || proxy == sub)
                ++uplinks;
            else
                src = proxy;
        }
        want.add(src, sub, payload + header, payload);
    }
}

/** Property: per-mask forward sums expanded at endKernel equal a
 *  message-by-message delivery, flat and hierarchical alike. */
void
checkForwardsOnTwoNodes(bool hier)
{
    SCOPED_TRACE(hier ? "hierarchical" : "flat");
    SystemConfig config;
    config.numGpus = 16;
    config.numNodes = 2;
    config.interconnect = InterconnectKind::NvLink3;
    config.interNode = InterconnectKind::IbNdr;
    config.gps.hierarchicalSubscription = hier;
    MultiGpuSystem system(config);
    GpsParadigm paradigm(system);
    const Region& region =
        system.driver().mallocGps(3 * 64 * KiB, "gps", 0);
    paradigm.onSetupComplete(); // every GPU subscribes to every page
    ProfileCollector profile(1, 8);
    paradigm.attachProfile(&profile);

    const PageNum a = system.geometry().pageNum(region.base);
    const PageNum b = a + 1;
    const PageNum c = a + 2;
    const Addr base_a = region.base;
    const Addr base_b = region.base + 64 * KiB;
    const Addr base_c = region.base + 2 * 64 * KiB;
    KernelCounters scratch;
    for (const GpuId g : {3, 4, 5, 6, 7, 11, 13, 14, 15})
        paradigm.subscriptions().unsubscribe(b, g, &scratch);
    const GpuMask all = maskAll(16);
    const GpuMask mask_b = paradigm.subscriptions().subscribers(b);

    KernelCounters counters;
    TrafficMatrix traffic(16);
    const auto access = [&](GpuId gpu, const MemAccess& acc) {
        const PageNum page = system.geometry().pageNum(acc.vaddr);
        const bool miss = system.gpu(gpu).tlbAccess(page, counters);
        paradigm.access(gpu, acc, page, miss, counters, traffic);
    };

    // Weak stores (one line each) and atomics from producers in both
    // nodes.
    for (Addr line = 0; line < 4; ++line)
        access(1, MemAccess::store(base_a + line * 128));
    for (Addr line = 0; line < 3; ++line)
        access(1, MemAccess::store(base_b + line * 128));
    for (Addr line = 0; line < 2; ++line) {
        access(9, MemAccess::store(base_a + 1024 + line * 128));
        access(9, MemAccess::store(base_b + 1024 + line * 128));
    }
    access(1, MemAccess::atomic(base_a + 4096, 4));
    access(1, MemAccess::atomic(base_a + 4096, 4));
    access(9, MemAccess::atomic(base_b + 4096, 8));
    // Page C collapses mid-kernel: its buffered lines drain under the
    // full pre-collapse mask.
    for (Addr line = 0; line < 3; ++line)
        access(1, MemAccess::store(base_c + line * 128));
    access(12, MemAccess::store(base_c + 2048));
    access(1, MemAccess::sysStore(base_c + 8192));
    ASSERT_TRUE(system.driver().state(c).collapsed);
    ASSERT_EQ(counters.wqDrains, 4u); // only page C drained so far
    // Page B loses a subscriber before its lines drain.
    paradigm.subscriptions().unsubscribe(b, 10, &scratch);
    const GpuMask mask_b2 = paradigm.subscriptions().subscribers(b);

    for (GpuId g = 0; g < 16; ++g)
        paradigm.endKernel(g, counters, traffic);
    EXPECT_EQ(counters.wqDrains, 15u);

    struct Message
    {
        GpuId producer;
        GpuMask subscribers;
        std::uint32_t payload;
        PageNum vpn;
        int count;
    };
    const std::vector<Message> messages = {
        {1, all, 128, a, 4},     {1, mask_b2, 128, b, 3},
        {9, all, 128, a, 2},     {9, mask_b2, 128, b, 2},
        {1, all, 4, a, 2},       {9, mask_b, 8, b, 1},
        {1, all, 128, c, 3},     {12, all, 128, c, 1},
    };
    const std::uint64_t header = system.topology().spec().headerBytes;
    TrafficMatrix want(16);
    std::uint64_t uplinks = 0;
    std::uint64_t pushed = 0;
    std::map<PageNum, PageHeat> heat;
    for (const Message& m : messages) {
        const std::uint64_t fanout =
            maskCount(maskClear(m.subscribers, m.producer));
        for (int i = 0; i < m.count; ++i) {
            expectMessage(want, uplinks, m.producer, m.subscribers,
                          m.payload, header, hier);
            pushed += m.payload * fanout;
            heat[m.vpn].remoteWritesForwarded += fanout;
            heat[m.vpn].rwqBytes += m.payload * fanout;
        }
    }

    for (GpuId src = 0; src < 16; ++src)
        for (GpuId dst = 0; dst < 16; ++dst)
            EXPECT_EQ(traffic.at(src, dst), want.at(src, dst))
                << src << " -> " << dst;
    EXPECT_EQ(traffic.payload(), want.payload());
    EXPECT_EQ(paradigm.uplinkForwards(), uplinks);
    EXPECT_EQ(counters.pushedStoreBytes, pushed);
    const ProfileReport report = profile.finalize();
    for (const auto& [vpn, expected] : heat) {
        const auto row = std::find_if(
            report.hotPages.begin(), report.hotPages.end(),
            [vpn = vpn](const HotPage& p) { return p.firstVpn == vpn; });
        ASSERT_NE(row, report.hotPages.end()) << "page " << vpn;
        EXPECT_EQ(row->heat.remoteWritesForwarded,
                  expected.remoteWritesForwarded)
            << "page " << vpn;
        EXPECT_EQ(row->heat.rwqBytes, expected.rwqBytes) << "page " << vpn;
    }

    // A second kernel starts from empty sums.
    TrafficMatrix next(16);
    for (GpuId g = 0; g < 16; ++g)
        paradigm.endKernel(g, counters, next);
    EXPECT_EQ(next.total(), 0u);
}

TEST(GpsForwarding, MaskSumsMatchPerMessageDeliveryFlat)
{
    checkForwardsOnTwoNodes(false);
}

TEST(GpsForwarding, MaskSumsMatchPerMessageDeliveryHierarchical)
{
    checkForwardsOnTwoNodes(true);
}

} // namespace
} // namespace gps

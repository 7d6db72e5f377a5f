/**
 * @file
 * Unit tests for the GPS paradigm: load/store routing, store
 * forwarding, write-queue forwarding to loads, sys-scope collapse,
 * profiling-driven unsubscription and manual subscription.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/sink.hh"
#include "common/rng.hh"
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
    system.sinks().profile = &profile;

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

/** Records every check-sink call with the page state it saw. */
class SinkLog : public GpsCheckSink
{
  public:
    explicit SinkLog(Driver& driver) : driver_(&driver) {}

    void
    noteSubscribe(PageNum vpn, GpuId gpu) override
    {
        note("subscribe", vpn, gpu);
    }

    void
    noteUnsubscribe(PageNum vpn, GpuId gpu) override
    {
        note("unsubscribe", vpn, gpu);
    }

    void
    noteCollapse(PageNum vpn, GpuId keeper) override
    {
        note("collapse", vpn, keeper);
    }

    void
    noteSysFlush(PageNum vpn) override
    {
        note("sys_flush", vpn, invalidGpu);
    }

    void
    noteWqSaturation(GpuId gpu, bool saturated) override
    {
        calls.push_back("wq_saturation " + std::to_string(gpu) +
                        (saturated ? " on" : " off"));
    }

    std::vector<std::string> calls;

  private:
    void
    note(const char* what, PageNum vpn, GpuId gpu)
    {
        const PageState& st = driver_->state(vpn);
        std::ostringstream os;
        os << what << " vpn=" << vpn << " gpu=" << gpu
           << " subscribers=" << st.subscribers << " mapped=" << st.mapped
           << " backed=" << st.backed << " location=" << st.location
           << " gps_bit=" << st.gpsBitSet;
        calls.push_back(os.str());
    }

    Driver* driver_;
};

/** One system whose profiling window ends in a tracking stop. */
struct TrackingSide
{
    explicit TrackingSide(std::size_t gpus)
        : system(configFor(gpus)), paradigm(system),
          sink(system.driver()), profile(1, 1 << 20)
    {}

    static SystemConfig
    configFor(std::size_t gpus)
    {
        SystemConfig config;
        config.numGpus = gpus;
        return config;
    }

    /** Driver, every GPU (TLB, L2, frames) and the GPS state. */
    std::string
    stateBytes()
    {
        snapshot::Serializer out;
        system.driver().saveState(out);
        for (std::size_t g = 0; g < system.numGpus(); ++g)
            system.gpu(static_cast<GpuId>(g)).saveState(out);
        paradigm.saveState(out);
        return out.bytes();
    }

    /** Subscription flips per page, as the profile collector saw them. */
    std::vector<std::pair<PageNum, std::uint64_t>>
    flips() const
    {
        std::vector<std::pair<PageNum, std::uint64_t>> out;
        for (const HotPage& page : profile.finalize().hotPages)
            out.emplace_back(page.firstVpn, page.heat.subFlips);
        return out;
    }

    MultiGpuSystem system;
    GpsParadigm paradigm;
    SinkLog sink;
    ProfileCollector profile;
    KernelCounters counters;
};

/**
 * The tracking stop as it was before subscriptions were dropped in one
 * batch per page: one unsubscribe per untouched subscriber, ascending.
 */
void
perGpuTrackingStop(GpsParadigm& paradigm, const Driver& driver,
                   KernelCounters& counters)
{
    paradigm.tracker().stop();
    for (const auto& [base, region] : driver.addressSpace().regions()) {
        if (region.kind != MemKind::Gps || region.manualSubscription)
            continue;
        driver.forEachPage(region, [&](PageNum vpn) {
            const GpuMask touched = paradigm.tracker().touchedMask(vpn);
            const GpuMask subscribers =
                paradigm.subscriptions().subscribers(vpn);
            maskForEach(subscribers, [&](GpuId g) {
                if (!maskHas(touched, g))
                    paradigm.subscriptions().unsubscribe(vpn, g,
                                                         &counters);
            });
        });
    }
    paradigm.tracker().clear();
}

/** Property: the batched tracking stop leaves every byte of state, every
 *  counter and every sink call exactly as the per-GPU loop does. */
void
checkTrackingStopMatchesPerGpuLoop(std::size_t gpus)
{
    SCOPED_TRACE(std::to_string(gpus) + " GPUs");
    constexpr std::size_t pages = 40;
    TrackingSide per_gpu(gpus);
    TrackingSide batched(gpus);
    std::size_t untouched_kept = 0;
    std::size_t location_moves = 0;
    std::vector<GpuId> location_before(pages);
    std::vector<GpuMask> subscribers_before(pages);
    std::vector<GpuMask> touched(pages);
    for (TrackingSide* side : {&per_gpu, &batched}) {
        Rng rng(gpus); // the same draws on both sides
        Driver& drv = side->system.driver();
        const GpuId home = static_cast<GpuId>(gpus / 2);
        const Region& region =
            drv.mallocGps(pages * 64 * KiB, "gps", home);
        side->paradigm.onSetupComplete(); // subscribe-all
        const PageNum first = side->system.geometry().pageNum(region.base);
        KernelCounters scratch;
        for (std::size_t i = 0; i < pages; ++i) {
            const PageNum vpn = first + i;
            // Random subscriber masks, from everyone to one survivor.
            const double drop = std::min(1.0, (i % 5) / 4.0);
            for (std::size_t g = 0; g < gpus; ++g) {
                if (rng.chance(drop))
                    side->paradigm.subscriptions().unsubscribe(
                        vpn, static_cast<GpuId>(g), &scratch);
            }
            // Cached translations, so unsubscribes shoot some down.
            for (std::size_t g = 0; g < gpus; ++g) {
                if (rng.chance(0.3))
                    side->system.gpu(static_cast<GpuId>(g))
                        .tlbAccess(vpn, scratch);
            }
            const PageState& st = drv.state(vpn);
            GpuMask mask = 0;
            switch (rng.below(4)) {
              case 0: // nobody touched it: one subscriber stays
                break;
              case 1:
                for (std::size_t g = 0; g < gpus; ++g) {
                    if (rng.chance(0.5))
                        mask = maskSet(mask, static_cast<GpuId>(g));
                }
                break;
              case 2:
                mask = gpuBit(static_cast<GpuId>(rng.below(gpus)));
                break;
              default: // everyone but the location: it moves
                mask = maskClear(maskAll(gpus), st.location);
                break;
            }
            touched[i] = mask;
            location_before[i] = st.location;
            subscribers_before[i] = st.subscribers;
        }
        side->system.sinks().check = &side->sink;
        side->system.sinks().profile = &side->profile;
        side->paradigm.trackingStart();
        for (std::size_t i = 0; i < pages; ++i) {
            maskForEach(touched[i], [&](GpuId g) {
                side->paradigm.tracker().mark(g, first + i);
            });
        }
        if (side == &per_gpu) {
            perGpuTrackingStop(side->paradigm, drv, side->counters);
            continue;
        }
        side->paradigm.trackingStop(side->counters);
        for (std::size_t i = 0; i < pages; ++i) {
            const PageState& st = drv.state(first + i);
            if ((touched[i] & subscribers_before[i]) == 0 &&
                maskCount(subscribers_before[i]) >= 2 &&
                maskCount(st.subscribers) == 1)
                ++untouched_kept;
            if (st.location != location_before[i])
                ++location_moves;
        }
    }

    // Not EXPECT_EQ: a mismatch would print megabytes of state.
    EXPECT_TRUE(per_gpu.stateBytes() == batched.stateBytes());
    const std::vector<std::string>& want = per_gpu.sink.calls;
    const std::vector<std::string>& got = batched.sink.calls;
    ASSERT_EQ(want.size(), got.size());
    const auto [w, g] = std::mismatch(want.begin(), want.end(), got.begin());
    EXPECT_TRUE(w == want.end())
        << "sink call " << (w - want.begin()) << ": " << *w << " vs " << *g;
    EXPECT_EQ(per_gpu.flips(), batched.flips());
    EXPECT_EQ(per_gpu.counters.tlbShootdowns,
              batched.counters.tlbShootdowns);
    // The draws reach every case the property is about.
    EXPECT_FALSE(batched.sink.calls.empty());
    EXPECT_GT(batched.counters.tlbShootdowns, 0u);
    EXPECT_GT(untouched_kept, 0u);
    EXPECT_GT(location_moves, 0u);
}

TEST(GpsTrackingStop, MatchesThePerGpuLoopAtFourGpus)
{
    checkTrackingStopMatchesPerGpuLoop(4);
}

TEST(GpsTrackingStop, MatchesThePerGpuLoopAt33Gpus)
{
    checkTrackingStopMatchesPerGpuLoop(33);
}

TEST(GpsTrackingStop, MatchesThePerGpuLoopAt256Gpus)
{
    checkTrackingStopMatchesPerGpuLoop(256);
}

} // namespace
} // namespace gps

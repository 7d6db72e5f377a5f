#include "core/subscription.hh"

#include "check/sink.hh"
#include "common/logging.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"

namespace gps
{

SubscriptionManager::SubscriptionManager(Driver& driver,
                                         GpsPageTable& table)
    : SimObject("subscription_manager"), driver_(&driver), table_(&table)
{
}

bool
SubscriptionManager::swapOutOneReplica(GpuId gpu)
{
    bool done = false;
    bool ok = false;
    table_->forEach([&](PageNum vpn, const GpsPte& pte) {
        if (pte.replicas.size() >= 2 && pte.hasSubscriber(gpu) &&
            !driver_->state(vpn).collapsed) {
            ++swapOuts_;
            ok = unsubscribe(vpn, gpu) == UnsubscribeResult::Ok;
            done = true;
            return false; // stop at the first (lowest-VPN) victim
        }
        return true;
    });
    return done && ok;
}

void
SubscriptionManager::installReclaimHook()
{
    driver_->setReclaimHook(
        [this](GpuId gpu) { return swapOutOneReplica(gpu); });
}

bool
SubscriptionManager::retireReplica(PageNum vpn, GpuId gpu)
{
    if (unsubscribe(vpn, gpu) != UnsubscribeResult::Ok)
        return false;
    // The unsubscribe freed the replica's frame; take it (or an
    // equivalent free frame) out of service for good.
    driver_->gpu(gpu).memory().retireFrames(1);
    ++replicaRetires_;
    return true;
}

SubscribeResult
SubscriptionManager::subscribe(PageNum vpn, GpuId gpu)
{
    PageState& st = driver_->state(vpn);
    gps_assert(st.kind == MemKind::Gps,
               "subscribe to non-GPS page ", vpn);

    // Mirror pre-existing subscribers (the allocation-time home
    // replica) into the GPS page table. Only the first subscribe of a
    // page has any to mirror: every later subscriber enters the table
    // below, and unsubscribe never empties it (the last subscriber
    // stays).
    if (table_->lookup(vpn) == nullptr) {
        maskForEach(st.subscribers, [&](GpuId existing) {
            const Pte* pte = driver_->pageTable(existing).lookup(vpn);
            if (pte != nullptr && pte->location == existing)
                table_->addReplica(vpn, existing, pte->ppn);
        });
    }

    if (maskHas(st.subscribers, gpu)) {
        // Keep the GPS page table in sync even for pre-existing
        // subscribers (e.g. the allocation-time home replica).
        const Pte* pte = driver_->pageTable(gpu).lookup(vpn);
        gps_assert(pte != nullptr, "subscriber without mapping");
        table_->addReplica(vpn, gpu, pte->ppn);
        return SubscribeResult::AlreadySubscribed;
    }

    if (!driver_->backPage(vpn, gpu)) {
        ++oversubscriptionRejects_;
        return SubscribeResult::OutOfMemory;
    }
    st.subscribers = maskSet(st.subscribers, gpu);
    const Pte* pte = driver_->pageTable(gpu).lookup(vpn);
    table_->addReplica(vpn, gpu, pte->ppn);
    refreshGpsBit(vpn);
    ++subscribeOps_;
    if (profile_ != nullptr)
        profile_->noteSubscriptionFlip(vpn);
    if (check_ != nullptr)
        check_->noteSubscribe(vpn, gpu);
    return SubscribeResult::Ok;
}

UnsubscribeResult
SubscriptionManager::unsubscribe(PageNum vpn, GpuId gpu,
                                 KernelCounters* counters)
{
    PageState& st = driver_->state(vpn);
    gps_assert(st.kind == MemKind::Gps,
               "unsubscribe from non-GPS page ", vpn);
    if (!maskHas(st.subscribers, gpu))
        return UnsubscribeResult::NotSubscribed;
    if (maskCount(st.subscribers) == 1)
        return UnsubscribeResult::LastSubscriber;

    driver_->unbackPage(vpn, gpu, counters);
    st.subscribers = maskClear(st.subscribers, gpu);
    table_->removeReplica(vpn, gpu);
    if (st.location == gpu)
        st.location = maskFirst(st.subscribers);
    refreshGpsBit(vpn);
    ++unsubscribeOps_;
    if (profile_ != nullptr)
        profile_->noteSubscriptionFlip(vpn);
    if (check_ != nullptr)
        check_->noteUnsubscribe(vpn, gpu);
    return UnsubscribeResult::Ok;
}

void
SubscriptionManager::subscribeAll(const Region& region)
{
    const std::size_t n = driver_->numGpus();
    driver_->forEachPage(region, [&](PageNum vpn) {
        for (GpuId g = 0; g < n; ++g)
            subscribe(vpn, g);
    });
}

void
SubscriptionManager::subscribeRange(Addr base, std::uint64_t len,
                                    GpuId gpu)
{
    if (len == 0)
        return;
    const PageGeometry& geo = driver_->geometry();
    const PageNum first = geo.pageNum(base);
    const PageNum last = geo.pageNum(base + len - 1);
    for (PageNum vpn = first; vpn <= last; ++vpn)
        subscribe(vpn, gpu);
}

UnsubscribeResult
SubscriptionManager::unsubscribeRange(Addr base, std::uint64_t len,
                                      GpuId gpu)
{
    if (len == 0)
        return UnsubscribeResult::Ok;
    UnsubscribeResult worst = UnsubscribeResult::Ok;
    const PageGeometry& geo = driver_->geometry();
    const PageNum first = geo.pageNum(base);
    const PageNum last = geo.pageNum(base + len - 1);
    for (PageNum vpn = first; vpn <= last; ++vpn) {
        const UnsubscribeResult r = unsubscribe(vpn, gpu);
        if (r == UnsubscribeResult::LastSubscriber)
            worst = r;
    }
    return worst;
}

GpuMask
SubscriptionManager::subscribers(PageNum vpn) const
{
    return driver_->state(vpn).subscribers;
}

void
SubscriptionManager::collapse(PageNum vpn, GpuId keeper,
                              KernelCounters& counters)
{
    PageState& st = driver_->state(vpn);
    gps_assert(maskHas(st.subscribers, keeper),
               "collapse keeper must be a subscriber");
    maskForEach(st.subscribers, [&](GpuId g) {
        if (g != keeper)
            unsubscribe(vpn, g, &counters);
    });
    st.collapsed = true;
    st.location = keeper;
    refreshGpsBit(vpn);
    ++collapses_;
    if (check_ != nullptr)
        check_->noteCollapse(vpn, keeper);
}

void
SubscriptionManager::fillHistogram(Histogram& hist) const
{
    table_->forEach([&](PageNum, const GpsPte& pte) {
        const std::size_t count = pte.replicas.size();
        if (count >= 2)
            hist.sample(count);
    });
}

void
SubscriptionManager::refreshGpsBit(PageNum vpn)
{
    PageState& st = driver_->state(vpn);
    const bool multi = maskCount(st.subscribers) >= 2 && !st.collapsed;
    // Every mapping is created with st.gpsBitSet and only this function
    // changes it, so the mappings already agree unless the bit flips.
    if (st.gpsBitSet == multi)
        return;
    st.gpsBitSet = multi;
    maskForEach(st.mapped, [&](GpuId g) {
        Pte* pte = driver_->pageTable(g).lookupMutable(vpn);
        if (pte != nullptr)
            pte->gpsBit = multi;
    });
}

void
SubscriptionManager::exportStats(StatSet& out) const
{
    out.set(name() + ".subscribe_ops",
            static_cast<double>(subscribeOps_));
    out.set(name() + ".unsubscribe_ops",
            static_cast<double>(unsubscribeOps_));
    out.set(name() + ".oversubscription_rejects",
            static_cast<double>(oversubscriptionRejects_));
    out.set(name() + ".collapses", static_cast<double>(collapses_));
    out.set(name() + ".swap_outs", static_cast<double>(swapOuts_));
    if (replicaRetires_ > 0)
        out.set(name() + ".replica_retires",
                static_cast<double>(replicaRetires_));
}

void
SubscriptionManager::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "subscribe_ops", "events",
                [this] { return static_cast<double>(subscribeOps_); });
    reg.counter(p + "unsubscribe_ops", "events",
                [this] { return static_cast<double>(unsubscribeOps_); });
    reg.counter(p + "oversubscription_rejects", "events", [this] {
        return static_cast<double>(oversubscriptionRejects_);
    });
    reg.counter(p + "collapses", "events",
                [this] { return static_cast<double>(collapses_); });
    reg.counter(p + "swap_outs", "events",
                [this] { return static_cast<double>(swapOuts_); });
    reg.counter(p + "replica_retires", "events",
                [this] { return static_cast<double>(replicaRetires_); });
}

} // namespace gps

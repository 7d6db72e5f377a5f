/**
 * @file
 * GPS subscription manager (Section 3.2).
 *
 * Owns the policy state tying GPS pages to subscriber sets: subscribing
 * backs a local replica and records it in the GPS page table; the GPS bit
 * in the conventional PTEs is set exactly when a page has two or more
 * subscribers; unsubscribing frees the replica and never removes the last
 * subscriber.
 */

#ifndef GPS_CORE_SUBSCRIPTION_HH
#define GPS_CORE_SUBSCRIPTION_HH

#include "common/gpu_mask.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/gps_page_table.hh"
#include "driver/driver.hh"
#include "sim/run_sinks.hh"
#include "sim/sim_object.hh"

namespace gps
{

/** Outcome of a subscription request. */
enum class SubscribeResult : std::uint8_t {
    Ok,
    AlreadySubscribed,
    OutOfMemory,   ///< oversubscription: GPU stays unsubscribed (§5.3)
};

/** Outcome of an unsubscription request. */
enum class UnsubscribeResult : std::uint8_t {
    Ok,
    NotSubscribed,
    LastSubscriber,  ///< refused: a region keeps >= 1 subscriber (§4)
};

/** Manages GPS page subscriber sets and replica backing. */
class SubscriptionManager : public SimObject
{
  public:
    /**
     * @param sinks collectors fed per successful subscribe/unsubscribe
     *        (profile churn heat; check-sink events, which mirror the
     *        flips and collapses into the checker's reference model)
     */
    SubscriptionManager(Driver& driver, GpsPageTable& table,
                        const RunSinks& sinks = noSinks);

    /**
     * Swap out one of @p gpu's GPS replicas to free a frame: the first
     * multi-subscriber page holding a replica there is unsubscribed
     * (that GPU then accesses it remotely — Section 5.3).
     * @return true if a frame was freed.
     */
    bool swapOutOneReplica(GpuId gpu);

    /** Install this manager as the driver's oversubscription hook. */
    void installReclaimHook();

    /**
     * Fault injection: @p gpu's replica of @p vpn is lost and its frame
     * permanently retired. Reuses the §5.3 swap-out path (unsubscribe,
     * remote access from then on) but removes the frame from service.
     * @return false when refused (last subscriber or not subscribed).
     */
    bool retireReplica(PageNum vpn, GpuId gpu);

    /** Replicas lost to fault injection. */
    std::uint64_t replicaRetires() const { return replicaRetires_; }

    /** Subscribe @p gpu to @p vpn (backs a replica frame). */
    SubscribeResult subscribe(PageNum vpn, GpuId gpu);

    /** Unsubscribe @p gpu from @p vpn (frees its replica frame). */
    UnsubscribeResult unsubscribe(PageNum vpn, GpuId gpu,
                                  KernelCounters* counters = nullptr);

    /**
     * Unsubscribe every subscriber of @p vpn outside @p keep, in
     * ascending GPU order, exactly as one unsubscribe() each would
     * (the last subscriber is still refused), but drop their replica
     * records from the GPS page table in one pass at the end
     * (cuGPSTrackingStop with @p keep the touched set).
     */
    void unsubscribeExcept(PageNum vpn, const GpuMask& keep,
                           KernelCounters* counters);

    /** Subscribe every GPU to every page of @p region. */
    void subscribeAll(const Region& region);

    /** memAdvise(GPS_SUBSCRIBE) over a byte range. */
    void subscribeRange(Addr base, std::uint64_t len, GpuId gpu);

    /** memAdvise(GPS_UNSUBSCRIBE) over a byte range. */
    UnsubscribeResult unsubscribeRange(Addr base, std::uint64_t len,
                                       GpuId gpu);

    /** Current subscriber mask of @p vpn. */
    GpuMask subscribers(PageNum vpn) const;

    bool
    isSubscriber(PageNum vpn, GpuId gpu) const
    {
        return maskHas(subscribers(vpn), gpu);
    }

    /**
     * Collapse @p vpn to a single copy on @p keeper (sys-scope handling,
     * Section 5.3): all other replicas are freed and the page is demoted
     * to a conventional page.
     */
    void collapse(PageNum vpn, GpuId keeper, KernelCounters& counters);

    /**
     * Histogram of subscriber counts over pages that currently have more
     * than one subscriber (Figure 9's "shared pages").
     */
    void fillHistogram(Histogram& hist) const;

    /** Subscription events so far. */
    std::uint64_t subscribeOps() const { return subscribeOps_; }
    std::uint64_t unsubscribeOps() const { return unsubscribeOps_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize the op counters. The subscription state itself lives
     * in the driver page state and the GPS page table, both covered by
     * their own saveState.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("subs");
        out.u64(subscribeOps_);
        out.u64(unsubscribeOps_);
        out.u64(oversubscriptionRejects_);
        out.u64(collapses_);
        out.u64(swapOuts_);
        out.u64(replicaRetires_);
    }

    /** Counterpart of saveState. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("subs");
        subscribeOps_ = in.u64();
        unsubscribeOps_ = in.u64();
        oversubscriptionRejects_ = in.u64();
        collapses_ = in.u64();
        swapOuts_ = in.u64();
        replicaRetires_ = in.u64();
    }

  private:
    /**
     * Everything unsubscribe() does to a subscriber @p gpu that is not
     * the last one, except removing its GPS page table record.
     */
    void dropSubscriber(PageNum vpn, PageState& st, GpuId gpu,
                        KernelCounters* counters);

    /** Keep PageState and conventional/GPS page tables consistent. */
    void refreshGpsBit(PageNum vpn);

    Driver* driver_;
    GpsPageTable* table_;
    std::uint64_t subscribeOps_ = 0;
    std::uint64_t unsubscribeOps_ = 0;
    std::uint64_t oversubscriptionRejects_ = 0;
    std::uint64_t collapses_ = 0;
    std::uint64_t swapOuts_ = 0;
    std::uint64_t replicaRetires_ = 0;
    const RunSinks& sinks_;
};

} // namespace gps

#endif // GPS_CORE_SUBSCRIPTION_HH

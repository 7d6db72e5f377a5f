/**
 * @file
 * Memory-management paradigm framework.
 *
 * A Paradigm is the policy layer that decides where each traced access is
 * serviced and what driver-level activity (faults, migrations, broadcasts,
 * subscriptions) it triggers. The six paradigms of the paper's evaluation
 * (Section 6) all implement this interface: UM, UM+hints, RDL, Memcpy,
 * GPS and the infinite-bandwidth upper bound.
 */

#ifndef GPS_PARADIGM_PARADIGM_HH
#define GPS_PARADIGM_PARADIGM_HH

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/system.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/kernel_counters.hh"
#include "interconnect/topology.hh"
#include "sim/sim_object.hh"
#include "trace/access.hh"
#include "trace/kernel_trace.hh"

namespace gps
{

struct FaultReport;

/** The evaluated multi-GPU programming paradigms. */
enum class ParadigmKind : std::uint8_t {
    Um,          ///< Unified Memory, fault-based migration
    UmHints,     ///< UM with preferred-location/accessed-by/prefetch hints
    Rdl,         ///< remote demand loads (expert peer-to-peer reads)
    Memcpy,      ///< bulk-synchronous broadcast at barriers
    Gps,         ///< this paper's publish-subscribe proposal
    InfiniteBw,  ///< memcpy with all transfer costs elided
};

std::string to_string(ParadigmKind kind);

/** All paradigms in the order Figure 8 plots them. */
std::vector<ParadigmKind> allParadigms();

/** Base class for paradigm policies. */
class Paradigm : public SimObject
{
  public:
    Paradigm(std::string name, MultiGpuSystem& system);

    virtual ParadigmKind kind() const = 0;

    /** MemKind this paradigm gives to the workload's shared regions. */
    virtual MemKind sharedKind() const = 0;

    /** Called once after the workload allocated all of its regions. */
    virtual void onSetupComplete() {}

    /** Called at the start of each application iteration. */
    virtual void beginIteration(std::size_t iter) { (void)iter; }

    /**
     * Called before a phase's kernels start; UM+hints issues the phase's
     * prefetches here.
     * @return serialized pre-kernel overhead (transfer time is derived
     *         from @p prefetch_traffic by the runner)
     */
    virtual Tick
    beginPhase(const Phase& phase, KernelCounters& counters,
               TrafficMatrix& prefetch_traffic)
    {
        (void)phase;
        (void)counters;
        (void)prefetch_traffic;
        return 0;
    }

    /**
     * Route one traced access.
     * @param gpu issuing GPU
     * @param access the traced operation
     * @param vpn virtual page number of the access
     * @param tlb_miss whether the conventional TLB missed
     * @param counters issuing GPU's kernel counters
     * @param traffic the phase's interconnect traffic matrix
     */
    void access(GpuId gpu, const MemAccess& access, PageNum vpn,
                bool tlb_miss, KernelCounters& counters,
                TrafficMatrix& traffic);

    /**
     * Hot-path variant: the caller already holds the page's driver
     * state (the replay loop caches the PageState of the last-touched
     * VPN per kernel cursor, so same-page runs skip re-translation).
     */
    void access(GpuId gpu, const MemAccess& access, PageNum vpn,
                PageState& st, bool tlb_miss, KernelCounters& counters,
                TrafficMatrix& traffic);

    /** End of one GPU's kernel: the implicit grid-wide release point. */
    virtual void
    endKernel(GpuId gpu, KernelCounters& counters, TrafficMatrix& traffic)
    {
        (void)gpu;
        (void)counters;
        (void)traffic;
    }

    /**
     * The barrier closing a phase. Bulk-synchronous paradigms broadcast
     * dirty data here.
     * @return serialized overhead (transfer time is derived from
     *         @p barrier_traffic by the runner)
     */
    virtual Tick
    atBarrier(KernelCounters& counters, TrafficMatrix& barrier_traffic)
    {
        (void)counters;
        (void)barrier_traffic;
        return 0;
    }

    /**
     * Manual subscription hints (cuMemAdvise GPS flags); meaningful only
     * under GPS, no-ops elsewhere so workloads stay paradigm-agnostic.
     */
    virtual void
    adviseSubscribe(Addr base, std::uint64_t len, GpuId gpu)
    {
        (void)base;
        (void)len;
        (void)gpu;
    }

    /** @return false when refused (unsubscribing the last subscriber). */
    virtual bool
    adviseUnsubscribe(Addr base, std::uint64_t len, GpuId gpu)
    {
        (void)base;
        (void)len;
        (void)gpu;
        return true;
    }

    /**
     * Fault injection: @p count frames on @p gpu are retired. The base
     * implementation shrinks the GPU's free-frame pool; GPS additionally
     * evicts replicas when free frames don't cover the loss.
     */
    virtual void onFaultPageRetire(GpuId gpu, std::uint64_t count,
                                   FaultReport& report);

    /**
     * Fault injection: the remote write queue of @p gpu (or of every GPU
     * when @p gpu is invalidGpu) enters/leaves Saturated mode. Only GPS
     * has a write queue, so the base implementation is a no-op.
     */
    virtual void
    onFaultWqSaturate(GpuId gpu, bool saturated, FaultReport& report)
    {
        (void)gpu;
        (void)saturated;
        (void)report;
    }

    /** GPS profiling window (no-ops for other paradigms). */
    virtual void trackingStart() {}
    virtual void trackingStop(KernelCounters& counters)
    {
        (void)counters;
    }

    /**
     * Fill @p hist with the subscriber-count distribution of shared
     * pages (bucket = subscriber count); GPS only.
     * @return true if the paradigm produced data.
     */
    virtual bool
    fillSubscriberHistogram(Histogram& hist) const
    {
        (void)hist;
        return false;
    }

    /**
     * Serialize paradigm-owned mutable state (GPS queues and tables,
     * bulk-synchronous dirty tracking). The base implementation
     * persists nothing — stateless paradigms inherit it as-is.
     */
    virtual void saveState(snapshot::Serializer& out) const
    {
        out.section("paradigm:none");
    }

    /** Counterpart of saveState. */
    virtual void restoreState(snapshot::Deserializer& in)
    {
        in.section("paradigm:none");
    }

  protected:
    /** Policy hook for accesses to this paradigm's shared regions. */
    virtual void accessShared(GpuId gpu, const MemAccess& access,
                              PageNum vpn, PageState& st, bool tlb_miss,
                              KernelCounters& counters,
                              TrafficMatrix& traffic) = 0;

    /**
     * Serialize an unordered dirty-page set in ascending VPN order so
     * snapshot bytes never depend on hash iteration order (the sets
     * feed only commutative barrier work, so order is result-neutral).
     */
    static void
    saveDirtyPages(snapshot::Serializer& out,
                   const std::unordered_set<PageNum>& pages)
    {
        std::vector<PageNum> vpns(pages.begin(), pages.end());
        std::sort(vpns.begin(), vpns.end());
        out.u64(vpns.size());
        for (const PageNum vpn : vpns)
            out.u64(vpn);
    }

    /** Counterpart of saveDirtyPages. */
    static void
    restoreDirtyPages(snapshot::Deserializer& in,
                      std::unordered_set<PageNum>& pages)
    {
        pages.clear();
        const std::uint64_t n = in.count(1ULL << 40);
        pages.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            pages.insert(in.u64());
    }

    MultiGpuSystem& sys() { return *system_; }
    const MultiGpuSystem& sys() const { return *system_; }
    Driver& drv() { return system_->driver(); }
    Topology& topo() { return system_->topology(); }
    std::uint32_t lineBytes() const;
    std::uint32_t headerBytes() const;

    /** Service an access from the issuing GPU's local L2/DRAM. */
    void
    localAccess(GpuId gpu, const MemAccess& access,
                KernelCounters& counters)
    {
        sys().gpu(gpu).l2Path(access.vaddr, access.isWrite(), counters);
    }

    /** Demand load from @p owner's memory (stall-prone). */
    void remoteLoad(GpuId gpu, GpuId owner, const MemAccess& access,
                    KernelCounters& counters, TrafficMatrix& traffic);

    /** Proactive peer store to @p owner's memory (non-stalling). */
    void remoteStore(GpuId gpu, GpuId owner, const MemAccess& access,
                     KernelCounters& counters, TrafficMatrix& traffic);

    /** Remote atomic performed at @p owner (stalls like a load). */
    void remoteAtomic(GpuId gpu, GpuId owner, const MemAccess& access,
                      KernelCounters& counters, TrafficMatrix& traffic);

  private:
    MultiGpuSystem* system_;
};

/** Construct the paradigm implementation for @p kind. */
std::unique_ptr<Paradigm> makeParadigm(ParadigmKind kind,
                                       MultiGpuSystem& system);

} // namespace gps

#endif // GPS_PARADIGM_PARADIGM_HH

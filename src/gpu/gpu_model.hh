/**
 * @file
 * Per-GPU model: memory-side structures (L2, TLB, SM store coalescer,
 * physical memory) plus the analytic kernel timing formula.
 *
 * Timing abstraction: a kernel's duration is the maximum of its bottleneck
 * terms (issue throughput, L2 throughput, local DRAM bandwidth, remote
 * demand-load latency, TLB page walks) plus serialized terms that stall
 * the GPU outright (page-fault handling, TLB shootdowns). Interconnect
 * bandwidth terms are applied at phase level by the runner, which knows
 * the full traffic matrix of concurrently executing kernels.
 */

#ifndef GPS_GPU_GPU_MODEL_HH
#define GPS_GPU_GPU_MODEL_HH

#include <memory>
#include <string>

#include "cache/cache_model.hh"
#include "common/types.hh"
#include "gpu/gpu_config.hh"
#include "gpu/kernel_counters.hh"
#include "gpu/store_coalescer.hh"
#include "interconnect/topology.hh"
#include "mem/page.hh"
#include "mem/physical_memory.hh"
#include "mem/tlb.hh"
#include "sim/sim_object.hh"

namespace gps
{

/** Timing constants for driver-level events charged to kernels. */
struct FaultTiming
{
    /** End-to-end GPU page fault handling latency. */
    Tick faultLatency = usToTicks(25.0);

    /** Faults the driver resolves concurrently (batching). */
    std::uint32_t faultConcurrency = 8;

    /** Cost of one TLB shootdown round. */
    Tick shootdownLatency = usToTicks(3.0);

    /** Concurrent conventional page walkers. */
    std::uint32_t walkConcurrency = 8;
};

/**
 * The per-resource service demands behind one kernelTime() result.
 * Overlappable bounds (compute, L2, DRAM, walks) compose as a max;
 * remote stalls and the serialized terms extend it. `total` is exactly
 * what kernelTime() returns.
 */
struct KernelTimeBreakdown
{
    Tick tCompute = 0;
    Tick tL2 = 0;
    Tick tDram = 0;
    Tick tWalks = 0;
    Tick tRemote = 0;
    Tick tFaults = 0;
    Tick tShootdowns = 0;
    Tick tWqStall = 0;
    Tick total = 0;
};

/** One GPU of the simulated system. */
class GpuModel : public SimObject
{
  public:
    GpuModel(GpuId id, const GpuConfig& config, PageGeometry geometry);

    GpuId id() const { return id_; }
    const GpuConfig& config() const { return config_; }

    CacheModel& l2() { return *l2_; }
    const CacheModel& l2() const { return *l2_; }
    Tlb& tlb() { return *tlb_; }
    const Tlb& tlb() const { return *tlb_; }
    StoreCoalescer& storeCoalescer() { return *coalescer_; }
    PhysicalMemory& memory() { return *memory_; }
    const PhysicalMemory& memory() const { return *memory_; }

    /**
     * Drive one access through the local L2 towards DRAM, updating
     * @p counters (hits/misses/DRAM bytes).
     */
    void
    l2Path(Addr addr, bool is_write, KernelCounters& counters)
    {
        const CacheResult result = l2_->access(addr, is_write);
        if (result.hit) {
            ++counters.l2Hits;
        } else {
            ++counters.l2Misses;
            counters.dramBytes += config_.cacheLineBytes;
        }
        counters.dramBytes += result.writebackBytes;
    }

    /**
     * Model the conventional TLB for @p vpn: on a miss the entry is
     * filled and the miss counted (page-walk cost lands in timing).
     * @return true if the access missed (used by the GPS access tracker).
     */
    bool
    tlbAccess(PageNum vpn, KernelCounters& counters)
    {
        if (tlb_->lookup(vpn))
            return false;
        ++counters.tlbMisses;
        tlb_->fill(vpn);
        return true;
    }

    /**
     * Analytic duration of a kernel with the given event counts.
     * @param counters replayed event counts
     * @param topology interconnect (for remote-load latency)
     */
    Tick kernelTime(const KernelCounters& counters,
                    const Topology& topology) const;

    /** kernelTime() with every intermediate term exposed (profiling). */
    KernelTimeBreakdown kernelTimeBreakdown(
        const KernelCounters& counters, const Topology& topology) const;

    const FaultTiming& faultTiming() const { return faultTiming_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /** Serialize L2, TLB, coalescer, and physical-memory state. */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("gpu");
        out.u32(id_);
        l2_->saveState(out);
        tlb_->saveState(out);
        coalescer_->saveState(out);
        memory_->saveState(out);
    }

    /** Counterpart of saveState. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("gpu");
        if (in.u32() != id_)
            throw snapshot::SnapshotError(
                "snapshot GPU id differs from the configured GPU");
        l2_->restoreState(in);
        tlb_->restoreState(in);
        coalescer_->restoreState(in);
        memory_->restoreState(in);
    }

  private:
    GpuId id_;
    GpuConfig config_;
    FaultTiming faultTiming_;
    std::unique_ptr<CacheModel> l2_;
    std::unique_ptr<Tlb> tlb_;
    std::unique_ptr<StoreCoalescer> coalescer_;
    std::unique_ptr<PhysicalMemory> memory_;
};

} // namespace gps

#endif // GPS_GPU_GPU_MODEL_HH

#include "gpu/gpu_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"
#include "obs/metric_registry.hh"

namespace gps
{

void
KernelCounters::merge(const KernelCounters& other)
{
    computeInstrs += other.computeInstrs;
    accesses += other.accesses;
    loads += other.loads;
    stores += other.stores;
    atomics += other.atomics;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    dramBytes += other.dramBytes;
    remoteLoads += other.remoteLoads;
    remoteLoadBytes += other.remoteLoadBytes;
    remoteAtomics += other.remoteAtomics;
    pushedStoreBytes += other.pushedStoreBytes;
    tlbMisses += other.tlbMisses;
    pageFaults += other.pageFaults;
    pageMigrations += other.pageMigrations;
    migrationBytes += other.migrationBytes;
    tlbShootdowns += other.tlbShootdowns;
    wqInserts += other.wqInserts;
    wqCoalesced += other.wqCoalesced;
    wqDrains += other.wqDrains;
    wqAtomicBypass += other.wqAtomicBypass;
    smCoalesced += other.smCoalesced;
    gpsTlbHits += other.gpsTlbHits;
    gpsTlbMisses += other.gpsTlbMisses;
    sysCollapses += other.sysCollapses;
    wqStallDrains += other.wqStallDrains;
    wqStallTicks += other.wqStallTicks;
}

void
KernelCounters::exportStats(StatSet& out, const std::string& prefix) const
{
    out.add(prefix + ".compute_instrs",
            static_cast<double>(computeInstrs));
    out.add(prefix + ".accesses", static_cast<double>(accesses));
    out.add(prefix + ".loads", static_cast<double>(loads));
    out.add(prefix + ".stores", static_cast<double>(stores));
    out.add(prefix + ".atomics", static_cast<double>(atomics));
    out.add(prefix + ".l2_hits", static_cast<double>(l2Hits));
    out.add(prefix + ".l2_misses", static_cast<double>(l2Misses));
    out.add(prefix + ".dram_bytes", static_cast<double>(dramBytes));
    out.add(prefix + ".remote_loads", static_cast<double>(remoteLoads));
    out.add(prefix + ".remote_load_bytes",
            static_cast<double>(remoteLoadBytes));
    out.add(prefix + ".remote_atomics",
            static_cast<double>(remoteAtomics));
    out.add(prefix + ".pushed_store_bytes",
            static_cast<double>(pushedStoreBytes));
    out.add(prefix + ".tlb_misses", static_cast<double>(tlbMisses));
    out.add(prefix + ".page_faults", static_cast<double>(pageFaults));
    out.add(prefix + ".page_migrations",
            static_cast<double>(pageMigrations));
    out.add(prefix + ".migration_bytes",
            static_cast<double>(migrationBytes));
    out.add(prefix + ".tlb_shootdowns",
            static_cast<double>(tlbShootdowns));
    out.add(prefix + ".wq_inserts", static_cast<double>(wqInserts));
    out.add(prefix + ".wq_coalesced", static_cast<double>(wqCoalesced));
    out.add(prefix + ".wq_drains", static_cast<double>(wqDrains));
    out.add(prefix + ".wq_atomic_bypass",
            static_cast<double>(wqAtomicBypass));
    out.add(prefix + ".sm_coalesced", static_cast<double>(smCoalesced));
    out.add(prefix + ".gps_tlb_hits", static_cast<double>(gpsTlbHits));
    out.add(prefix + ".gps_tlb_misses",
            static_cast<double>(gpsTlbMisses));
    out.add(prefix + ".sys_collapses", static_cast<double>(sysCollapses));
    out.add(prefix + ".wq_stall_drains",
            static_cast<double>(wqStallDrains));
    out.add(prefix + ".wq_stall_ticks",
            static_cast<double>(wqStallTicks));
}

GpuModel::GpuModel(GpuId id, const GpuConfig& config, PageGeometry geometry)
    : SimObject("gpu" + std::to_string(id)), id_(id), config_(config),
      l2_(std::make_unique<CacheModel>(name() + ".l2",
                                       config.l2CacheBytes,
                                       config.cacheLineBytes,
                                       config.l2Ways)),
      tlb_(std::make_unique<Tlb>(name() + ".tlb", config.tlbEntries,
                                 config.tlbWays)),
      coalescer_(std::make_unique<StoreCoalescer>(name() + ".sm_coalescer",
                                                  config.smCoalescerDepth,
                                                  config.cacheLineBytes)),
      memory_(std::make_unique<PhysicalMemory>(name() + ".dram",
                                               config.globalMemoryBytes,
                                               geometry))
{
}

Tick
GpuModel::kernelTime(const KernelCounters& counters,
                     const Topology& topology) const
{
    return kernelTimeBreakdown(counters, topology).total;
}

KernelTimeBreakdown
GpuModel::kernelTimeBreakdown(const KernelCounters& counters,
                              const Topology& topology) const
{
    KernelTimeBreakdown bd;
    const double period = config_.clockPeriodTicks();

    // Issue-throughput bound.
    const double compute_cycles =
        static_cast<double>(counters.computeInstrs) / config_.issueWidth();
    bd.tCompute = static_cast<Tick>(compute_cycles * period);

    // L2 throughput bound: every access moves one line through L2.
    const std::uint64_t l2_bytes =
        (counters.l2Hits + counters.l2Misses) *
        static_cast<std::uint64_t>(config_.cacheLineBytes);
    bd.tL2 = transferTicks(l2_bytes, config_.l2Bandwidth);

    // Local DRAM bandwidth bound.
    bd.tDram = transferTicks(counters.dramBytes, config_.dramBandwidth);

    // Remote demand loads and atomics: round-trip latency divided by
    // the parallelism the GPU can sustain. These sit on the dependence
    // critical path, so they extend the kernel rather than hiding under
    // it. Bandwidth occupancy of the responses is charged at the phase
    // level through the traffic matrix.
    if (!topology.spec().infinite) {
        const Tick line_time =
            topology.linkTime(config_.cacheLineBytes +
                              topology.spec().headerBytes);
        const Tick round_trip = 2 * topology.latency() + line_time;
        if (counters.remoteLoads > 0) {
            const double batches =
                std::ceil(static_cast<double>(counters.remoteLoads) /
                          static_cast<double>(config_.remoteLoadMlp));
            bd.tRemote += static_cast<Tick>(
                batches * static_cast<double>(round_trip));
        }
        if (counters.remoteAtomics > 0) {
            const double batches = std::ceil(
                static_cast<double>(counters.remoteAtomics) /
                static_cast<double>(config_.remoteAtomicMlp));
            bd.tRemote += static_cast<Tick>(
                batches * static_cast<double>(round_trip));
        }
    }

    // Conventional page walks, overlapped across walkers.
    bd.tWalks = static_cast<Tick>(
        static_cast<double>(counters.tlbMisses) *
        static_cast<double>(config_.pageWalkLatency) /
        static_cast<double>(faultTiming_.walkConcurrency));

    // Overlappable bounds compose as a max; remote stalls extend it.
    Tick t_core =
        std::max({bd.tCompute, bd.tL2, bd.tDram, bd.tWalks}) + bd.tRemote;

    // Serialized stalls: page faults (batched) and TLB shootdowns.
    if (counters.pageFaults > 0) {
        const double batches =
            std::ceil(static_cast<double>(counters.pageFaults) /
                      static_cast<double>(faultTiming_.faultConcurrency));
        bd.tFaults = static_cast<Tick>(
            batches * static_cast<double>(faultTiming_.faultLatency));
        t_core += bd.tFaults;
    }
    bd.tShootdowns = counters.tlbShootdowns * faultTiming_.shootdownLatency;
    t_core += bd.tShootdowns;

    // Saturated-WQ drains stall the producing SM serially.
    bd.tWqStall = counters.wqStallTicks;
    t_core += bd.tWqStall;

    bd.total = t_core;
    return bd;
}

void
GpuModel::registerMetrics(MetricRegistry& reg) const
{
    l2_->registerMetrics(reg);
    tlb_->registerMetrics(reg);
    coalescer_->registerMetrics(reg);
    memory_->registerMetrics(reg);
}

} // namespace gps

#include "paradigm/paradigm.hh"

#include "common/logging.hh"
#include "core/gps_paradigm.hh"
#include "fault/fault_plan.hh"
#include "paradigm/infinite.hh"
#include "paradigm/memcpy_paradigm.hh"
#include "paradigm/rdl.hh"
#include "paradigm/um.hh"
#include "paradigm/um_hints.hh"

namespace gps
{

std::string
to_string(ParadigmKind kind)
{
    switch (kind) {
      case ParadigmKind::Um: return "UM";
      case ParadigmKind::UmHints: return "UM+hints";
      case ParadigmKind::Rdl: return "RDL";
      case ParadigmKind::Memcpy: return "Memcpy";
      case ParadigmKind::Gps: return "GPS";
      case ParadigmKind::InfiniteBw: return "Infinite BW";
    }
    return "?";
}

std::vector<ParadigmKind>
allParadigms()
{
    return {ParadigmKind::Um, ParadigmKind::UmHints, ParadigmKind::Rdl,
            ParadigmKind::Memcpy, ParadigmKind::Gps,
            ParadigmKind::InfiniteBw};
}

Paradigm::Paradigm(std::string name, MultiGpuSystem& system)
    : SimObject(std::move(name)), system_(&system)
{
}

std::uint32_t
Paradigm::lineBytes() const
{
    return system_->config().gpu.cacheLineBytes;
}

std::uint32_t
Paradigm::headerBytes() const
{
    return system_->topology().spec().headerBytes;
}

void
Paradigm::onFaultPageRetire(GpuId gpu, std::uint64_t count,
                            FaultReport& report)
{
    // Without replication there is nothing to unsubscribe: the fault
    // simply shrinks the GPU's allocatable memory.
    report.pagesRetired +=
        sys().gpu(gpu).memory().retireFrames(count);
}

void
Paradigm::access(GpuId gpu, const MemAccess& access, PageNum vpn,
                 bool tlb_miss, KernelCounters& counters,
                 TrafficMatrix& traffic)
{
    this->access(gpu, access, vpn, drv().state(vpn), tlb_miss, counters,
                 traffic);
}

void
Paradigm::access(GpuId gpu, const MemAccess& access, PageNum vpn,
                 PageState& st, bool tlb_miss, KernelCounters& counters,
                 TrafficMatrix& traffic)
{
    if (st.kind == MemKind::Pinned) {
        // Private allocations: local when owned, conventional peer
        // access otherwise (identical under every paradigm).
        if (st.location == gpu) {
            localAccess(gpu, access, counters);
        } else if (access.isLoad()) {
            remoteLoad(gpu, st.location, access, counters, traffic);
        } else if (access.isAtomic()) {
            remoteAtomic(gpu, st.location, access, counters, traffic);
        } else {
            remoteStore(gpu, st.location, access, counters, traffic);
        }
        return;
    }
    accessShared(gpu, access, vpn, st, tlb_miss, counters, traffic);
}

void
Paradigm::remoteLoad(GpuId gpu, GpuId owner, const MemAccess& access,
                     KernelCounters& counters, TrafficMatrix& traffic)
{
    gps_assert(owner != invalidGpu, "remote load with no owner");
    // Peer loads are cached in the local L2 once fetched; only misses
    // cross the interconnect.
    const CacheResult result =
        sys().gpu(gpu).l2().access(access.vaddr, false);
    if (result.hit) {
        ++counters.l2Hits;
    } else {
        ++counters.l2Misses;
        ++counters.remoteLoads;
        counters.remoteLoadBytes += lineBytes();
        traffic.add(gpu, owner, headerBytes(), 0);            // request
        traffic.add(owner, gpu, lineBytes() + headerBytes(),
                    lineBytes());                             // response
    }
    counters.dramBytes += result.writebackBytes;
}

void
Paradigm::remoteStore(GpuId gpu, GpuId owner, const MemAccess& access,
                      KernelCounters& counters, TrafficMatrix& traffic)
{
    gps_assert(owner != invalidGpu, "remote store with no owner");
    counters.pushedStoreBytes += access.size;
    traffic.add(gpu, owner, access.size + headerBytes(), access.size);
}

void
Paradigm::remoteAtomic(GpuId gpu, GpuId owner, const MemAccess& access,
                       KernelCounters& counters, TrafficMatrix& traffic)
{
    gps_assert(owner != invalidGpu, "remote atomic with no owner");
    // Round trip to the owner's memory: read-modify-write serialization
    // sustains far less parallelism than plain loads.
    ++counters.remoteAtomics;
    counters.remoteLoadBytes += access.size;
    traffic.add(gpu, owner, access.size + headerBytes(), access.size);
    traffic.add(owner, gpu, headerBytes(), 0);
}

std::unique_ptr<Paradigm>
makeParadigm(ParadigmKind kind, MultiGpuSystem& system)
{
    switch (kind) {
      case ParadigmKind::Um:
        return std::make_unique<UmParadigm>(system);
      case ParadigmKind::UmHints:
        return std::make_unique<UmHintsParadigm>(system);
      case ParadigmKind::Rdl:
        return std::make_unique<RdlParadigm>(system);
      case ParadigmKind::Memcpy:
        return std::make_unique<MemcpyParadigm>(system);
      case ParadigmKind::Gps:
        return std::make_unique<GpsParadigm>(system);
      case ParadigmKind::InfiniteBw:
        return std::make_unique<InfiniteBwParadigm>(system);
    }
    gps_panic("unknown paradigm kind");
}

} // namespace gps

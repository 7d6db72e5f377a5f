#include "check/invariants.hh"

#include <sstream>

#include "api/system.hh"
#include "core/gps_paradigm.hh"
#include "interconnect/node_topology.hh"

namespace gps
{

namespace
{

CheckFinding
makeFinding(std::string invariant, std::string detail,
            const std::string& phase, GpuId gpu = invalidGpu)
{
    CheckFinding f;
    f.invariant = std::move(invariant);
    f.detail = std::move(detail);
    f.phase = phase;
    f.gpu = gpu;
    return f;
}

} // namespace

void
InvariantChecker::runAll(const std::string& phase, CheckReport& report)
{
    runCheap(phase, report);
    checkSubscriptions(phase, report);
}

void
InvariantChecker::runCheap(const std::string& phase, CheckReport& report)
{
    checkQueues(phase, report);
    checkFrames(phase, report);
    checkInterconnect(phase, report);
    checkUplinks(phase, report);
}

void
InvariantChecker::checkQueues(const std::string& phase,
                              CheckReport& report)
{
    if (gps_ == nullptr)
        return;
    for (std::size_t g = 0; g < system_->numGpus(); ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const RemoteWriteQueue& wq = gps_->writeQueue(gpu);

        ++report.invariantChecks;
        if (wq.inserts() != wq.drains() + wq.residentEntries()) {
            std::ostringstream os;
            os << "inserts=" << wq.inserts() << " drains=" << wq.drains()
               << " resident=" << wq.residentEntries();
            addFinding(report, makeFinding("rwq.conservation", os.str(),
                                           phase, gpu));
        }

        ++report.invariantChecks;
        if (wq.occupancy() != wq.weightSum()) {
            std::ostringstream os;
            os << "occupancy=" << wq.occupancy()
               << " weight_sum=" << wq.weightSum();
            addFinding(report, makeFinding("rwq.occupancy-weight",
                                           os.str(), phase, gpu));
        }
    }
}

void
InvariantChecker::checkInterconnect(const std::string& phase,
                                    CheckReport& report)
{
    Topology& topo = system_->topology();
    std::uint64_t egress = 0;
    std::uint64_t ingress = 0;
    for (std::size_t g = 0; g < system_->numGpus(); ++g) {
        egress += topo.egressLink(static_cast<GpuId>(g)).totalBytes();
        ingress += topo.ingressLink(static_cast<GpuId>(g)).totalBytes();
    }

    ++report.invariantChecks;
    if (topo.totalBytes() != egress) {
        std::ostringstream os;
        os << "total_bytes=" << topo.totalBytes()
           << " sum_egress=" << egress;
        addFinding(report,
                   makeFinding("interconnect.total-vs-links", os.str(),
                               phase));
    }

    ++report.invariantChecks;
    if (egress != ingress) {
        std::ostringstream os;
        os << "sum_egress=" << egress << " sum_ingress=" << ingress;
        addFinding(report,
                   makeFinding("interconnect.egress-vs-ingress",
                               os.str(), phase));
    }
}

void
InvariantChecker::checkUplinks(const std::string& phase,
                               CheckReport& report)
{
    auto* topo = dynamic_cast<NodeTopology*>(&system_->topology());
    if (topo == nullptr)
        return;
    const std::size_t nodes = topo->numNodes();
    std::uint64_t egress_sum = 0;
    std::uint64_t ingress_sum = 0;
    for (std::size_t n = 0; n < nodes; ++n) {
        std::uint64_t row = 0;
        std::uint64_t col = 0;
        for (std::size_t m = 0; m < nodes; ++m) {
            row += topo->crossNodeBytes(n, m);
            col += topo->crossNodeBytes(m, n);
        }
        const std::uint64_t egress = topo->uplinkEgress(n).totalBytes();
        const std::uint64_t ingress = topo->uplinkIngress(n).totalBytes();
        egress_sum += egress;
        ingress_sum += ingress;

        ++report.invariantChecks;
        if (egress != row) {
            std::ostringstream os;
            os << "node=" << n << " uplink_egress=" << egress
               << " cross_row_sum=" << row;
            addFinding(report, makeFinding("uplink.egress-vs-cross",
                                           os.str(), phase));
        }

        ++report.invariantChecks;
        if (ingress != col) {
            std::ostringstream os;
            os << "node=" << n << " uplink_ingress=" << ingress
               << " cross_col_sum=" << col;
            addFinding(report, makeFinding("uplink.ingress-vs-cross",
                                           os.str(), phase));
        }
    }

    // Every byte that leaves a node arrives at exactly one other node.
    ++report.invariantChecks;
    if (egress_sum != ingress_sum) {
        std::ostringstream os;
        os << "sum_uplink_egress=" << egress_sum
           << " sum_uplink_ingress=" << ingress_sum;
        addFinding(report, makeFinding("uplink.egress-vs-ingress",
                                       os.str(), phase));
    }
}

void
InvariantChecker::checkSubscriptions(const std::string& phase,
                                     CheckReport& report)
{
    if (gps_ == nullptr)
        return;
    Driver& drv = system_->driver();
    gps_->gpsPageTable().forEach([&](PageNum vpn, const GpsPte& pte) {
        ++report.invariantChecks;
        const PageState* st = drv.findState(vpn);
        if (st == nullptr) {
            CheckFinding f = makeFinding(
                "subscription.orphan-pte",
                "GPS PTE for a page with no driver state", phase);
            f.vpn = vpn;
            f.hasVpn = true;
            addFinding(report, std::move(f));
            return;
        }

        // Replica set must be a subset of the driver's subscriber mask.
        const GpuMask replicas = pte.subscriberMask();
        if ((replicas & ~st->subscribers) != 0) {
            std::ostringstream os;
            os << "replica_mask=0x" << std::hex << replicas
               << " subscriber_mask=0x" << st->subscribers;
            CheckFinding f = makeFinding("subscription.replica-subset",
                                         os.str(), phase);
            f.vpn = vpn;
            f.hasVpn = true;
            addFinding(report, std::move(f));
        }

        // No replica may live on an unallocated (retired/freed) frame.
        ++report.invariantChecks;
        for (const GpsReplica& r : pte.replicas) {
            if (!drv.gpu(r.gpu).memory().allocated(r.ppn)) {
                std::ostringstream os;
                os << "replica ppn=" << r.ppn
                   << " is not an allocated frame";
                CheckFinding f =
                    makeFinding("subscription.replica-frame", os.str(),
                                phase, r.gpu);
                f.vpn = vpn;
                f.hasVpn = true;
                addFinding(report, std::move(f));
            }
        }

        // GPS bit <=> expanded multi-subscriber page, and every mapping
        // carries the page's bit.
        ++report.invariantChecks;
        const bool multi =
            maskCount(st->subscribers) >= 2 && !st->collapsed;
        if (st->gpsBitSet != multi) {
            std::ostringstream os;
            os << "gps_bit=" << st->gpsBitSet
               << " subscribers=" << maskCount(st->subscribers)
               << " collapsed=" << st->collapsed;
            CheckFinding f =
                makeFinding("subscription.gps-bit", os.str(), phase);
            f.vpn = vpn;
            f.hasVpn = true;
            addFinding(report, std::move(f));
        }
        maskForEach(st->mapped, [&](GpuId g) {
            const Pte* mapping = drv.pageTable(g).lookup(vpn);
            if (mapping == nullptr || mapping->gpsBit == st->gpsBitSet)
                return;
            std::ostringstream os;
            os << "pte_gps_bit=" << mapping->gpsBit
               << " page_gps_bit=" << st->gpsBitSet;
            CheckFinding f =
                makeFinding("subscription.gps-bit", os.str(), phase, g);
            f.vpn = vpn;
            f.hasVpn = true;
            addFinding(report, std::move(f));
        });
    });
}

void
InvariantChecker::checkFrames(const std::string& phase,
                              CheckReport& report)
{
    for (std::size_t g = 0; g < system_->numGpus(); ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const PhysicalMemory& mem = system_->gpu(gpu).memory();

        ++report.invariantChecks;
        if (mem.framesFree() != mem.allocatableFrames()) {
            std::ostringstream os;
            os << "frames_free=" << mem.framesFree()
               << " allocatable=" << mem.allocatableFrames();
            addFinding(report, makeFinding("frames.free-vs-allocatable",
                                           os.str(), phase, gpu));
        }

        ++report.invariantChecks;
        if (mem.initialFrames() !=
            mem.totalFrames() + mem.framesRetired()) {
            std::ostringstream os;
            os << "initial=" << mem.initialFrames()
               << " total=" << mem.totalFrames()
               << " retired=" << mem.framesRetired();
            addFinding(report, makeFinding("frames.retirement-ledger",
                                           os.str(), phase, gpu));
        }
    }
}

} // namespace gps

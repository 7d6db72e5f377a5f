#include "core/gps_page_table.hh"

#include <cassert>
#include <string>

#include "obs/metric_registry.hh"

namespace gps
{

GpsPte&
GpsPageTable::slot(PageNum vpn)
{
    if (table_.empty()) {
        base_ = vpn;
        table_.resize(1);
        return table_.front();
    }
    if (vpn < base_) {
        // Rare: a lower GPS region appears after a higher one was
        // touched first. Prepend the gap.
        const std::size_t grow = static_cast<std::size_t>(base_ - vpn);
        table_.insert(table_.begin(), grow, GpsPte{});
        base_ = vpn;
        return table_.front();
    }
    const std::size_t off = static_cast<std::size_t>(vpn - base_);
    if (off >= table_.size())
        table_.resize(off + 1);
    return table_[off];
}

void
GpsPageTable::addReplica(PageNum vpn, GpuId gpu, PageNum ppn)
{
    GpsPte& pte = slot(vpn);
    if (pte.replicas.empty())
        ++live_;
    for (auto& r : pte.replicas) {
        if (r.gpu == gpu) {
            r.ppn = ppn;
            return;
        }
    }
    pte.replicas.push_back({gpu, ppn});
}

void
GpsPageTable::appendReplica(PageNum vpn, GpuId gpu, PageNum ppn)
{
    GpsPte& pte = slot(vpn);
    assert(!pte.hasSubscriber(gpu) && "replica of a non-subscriber");
    if (pte.replicas.empty())
        ++live_;
    pte.replicas.push_back({gpu, ppn});
}

void
GpsPageTable::removeReplicas(PageNum vpn, const GpuMask& gpus)
{
    if (table_.empty() || vpn < base_ ||
        vpn - base_ >= table_.size())
        return;
    auto& replicas = table_[vpn - base_].replicas;
    if (replicas.empty())
        return;
    std::erase_if(replicas, [&gpus](const GpsReplica& r) {
        return maskHas(gpus, r.gpu);
    });
    if (replicas.empty())
        --live_;
}

const GpsPte*
GpsPageTable::lookup(PageNum vpn) const
{
    if (table_.empty() || vpn < base_ ||
        vpn - base_ >= table_.size())
        return nullptr;
    const GpsPte& pte = table_[vpn - base_];
    return pte.replicas.empty() ? nullptr : &pte;
}

void
GpsPageTable::restoreState(snapshot::Deserializer& in)
{
    in.section("gpstable");
    base_ = in.u64();
    table_.assign(in.count(1ULL << 32), GpsPte{});
    std::size_t nonEmpty = 0;
    for (GpsPte& pte : table_) {
        // A replica list can never exceed the mask width.
        pte.replicas.resize(in.count(maxGpus));
        GpuMask seen = 0;
        for (GpsReplica& r : pte.replicas) {
            const std::uint32_t gpu = in.u32();
            if (gpu >= maxGpus || maskHas(seen, static_cast<GpuId>(gpu)))
                throw snapshot::SnapshotError(
                    "corrupt snapshot: GPS replica list names GPU " +
                    std::to_string(gpu) +
                    " twice or beyond the mask width");
            r.gpu = static_cast<GpuId>(gpu);
            r.ppn = in.u64();
            seen = maskSet(seen, r.gpu);
        }
        if (!pte.replicas.empty())
            ++nonEmpty;
    }
    live_ = in.u64();
    if (live_ != nonEmpty)
        throw snapshot::SnapshotError(
            "corrupt snapshot: GPS page table live count " +
            std::to_string(live_) + " differs from its " +
            std::to_string(nonEmpty) + " non-empty replica lists");
}

std::uint64_t
GpsPageTable::pteBits(std::size_t num_gpus, std::uint32_t vpn_bits,
                      std::uint32_t ppn_bits)
{
    // One VPN tag plus one PPN per possible remote subscriber: the
    // paper's 4-GPU example is 33 + 3*31 = 126 bits.
    return vpn_bits +
           static_cast<std::uint64_t>(num_gpus - 1) * ppn_bits;
}

void
GpsPageTable::registerMetrics(MetricRegistry& reg) const
{
    reg.gauge(name() + ".entries", "entries",
              [this] { return static_cast<double>(live_); });
}

} // namespace gps

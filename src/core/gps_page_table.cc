#include "core/gps_page_table.hh"

#include <algorithm>

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
GpsPageTable::removeReplica(PageNum vpn, GpuId gpu)
{
    if (table_.empty() || vpn < base_ ||
        vpn - base_ >= table_.size())
        return;
    auto& replicas = table_[vpn - base_].replicas;
    if (replicas.empty())
        return;
    replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                  [gpu](const GpsReplica& r) {
                                      return r.gpu == gpu;
                                  }),
                   replicas.end());
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

#include "mem/page_table.hh"

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

void
PageTable::map(PageNum vpn, const Pte& pte)
{
    table_[vpn] = pte;
    ++mapOps_;
}

void
PageTable::unmap(PageNum vpn)
{
    if (table_.erase(vpn) > 0)
        ++unmapOps_;
}

const Pte*
PageTable::lookup(PageNum vpn) const
{
    auto it = table_.find(vpn);
    return it == table_.end() ? nullptr : &it->second;
}

Pte*
PageTable::lookupMutable(PageNum vpn)
{
    auto it = table_.find(vpn);
    return it == table_.end() ? nullptr : &it->second;
}

void
PageTable::setGpsBit(PageNum vpn, bool value)
{
    Pte* pte = lookupMutable(vpn);
    gps_assert(pte != nullptr, "setGpsBit on unmapped vpn ", vpn);
    pte->gpsBit = value;
}

void
PageTable::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.gauge(p + "mappings", "pages",
              [this] { return static_cast<double>(table_.size()); });
    reg.counter(p + "map_ops", "events",
                [this] { return static_cast<double>(mapOps_); });
    reg.counter(p + "unmap_ops", "events",
                [this] { return static_cast<double>(unmapOps_); });
}

} // namespace gps

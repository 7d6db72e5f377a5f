#include "core/gps_translation_unit.hh"

#include "obs/metric_registry.hh"

namespace gps
{

GpsTranslationUnit::GpsTranslationUnit(std::string name,
                                       const GpsConfig& config,
                                       const GpsPageTable& table)
    : SimObject(std::move(name)), table_(&table),
      tlb_(std::make_unique<Tlb>(this->name() + ".gps_tlb",
                                 config.gpsTlbEntries, config.gpsTlbWays))
{
}

const GpsPte*
GpsTranslationUnit::translate(PageNum vpn, KernelCounters& counters)
{
    if (tlb_->lookup(vpn)) {
        ++counters.gpsTlbHits;
    } else {
        ++counters.gpsTlbMisses;
        ++walks_;
        tlb_->fill(vpn);
    }
    return table_->lookup(vpn);
}

void
GpsTranslationUnit::registerMetrics(MetricRegistry& reg) const
{
    tlb_->registerMetrics(reg);
    reg.counter(name() + ".walks", "events",
                [this] { return static_cast<double>(walks_); });
}

} // namespace gps

#include "interconnect/link.hh"

#include "common/units.hh"
#include "obs/metric_registry.hh"

namespace gps
{

Tick
Link::transferTime(std::uint64_t bytes) const
{
    if (spec_->infinite)
        return 0;
    return transferTicks(bytes, spec_->bandwidth);
}

void
Link::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "bytes", "bytes",
                [this] { return static_cast<double>(totalBytes_); });
    reg.counter(p + "busy_us", "us",
                [this] { return ticksToUs(busyTime_); });
}

} // namespace gps

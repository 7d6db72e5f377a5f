#include "sim/sim_object.hh"

#include "obs/metric_registry.hh"

namespace gps
{

void
SimObject::exportStats(StatSet& out) const
{
    MetricRegistry reg;
    registerMetrics(reg);
    for (const MetricDef& def : reg.metrics())
        out.set(def.name, def.read());
}

} // namespace gps

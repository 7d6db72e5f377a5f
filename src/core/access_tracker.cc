#include "core/access_tracker.hh"

#include "obs/metric_registry.hh"

namespace gps
{

void
AccessTracker::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "marks", "events",
                [this] { return static_cast<double>(marks_); });
    reg.gauge(p + "touched_page_entries", "entries", [this] {
        std::uint64_t touched = 0;
        for (const auto& set : perGpu_)
            touched += set.size();
        return static_cast<double>(touched);
    });
}

} // namespace gps

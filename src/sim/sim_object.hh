/**
 * @file
 * Base class for named simulated components that export statistics.
 */

#ifndef GPS_SIM_SIM_OBJECT_HH
#define GPS_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "common/stats.hh"

namespace gps
{

class MetricRegistry;

/**
 * A named component of the simulated system. Its counters are listed
 * once, in registerMetrics(); the run's StatSet (exportStats()) and the
 * observability registry both read that one list.
 */
class SimObject
{
  public:
    explicit SimObject(std::string name)
        : name_(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    const std::string& name() const { return name_; }

    /**
     * Register this component's metrics (prefixed with its name) into
     * @p reg. Getters must be read-only (see obs/metric_registry.hh).
     */
    virtual void registerMetrics(MetricRegistry& reg) const { (void)reg; }

    /**
     * Set one stat per metric registerMetrics() lists, same name, its
     * current value.
     */
    void exportStats(StatSet& out) const;

  private:
    std::string name_;
};

} // namespace gps

#endif // GPS_SIM_SIM_OBJECT_HH

/**
 * @file
 * Pull-based metric registry: every component's one list of counters.
 *
 * Components register named, typed metrics whose values are *read* on
 * demand through a getter closure. The observability layer samples a
 * registry of the whole system; SimObject::exportStats() reads a
 * scratch registry of one component into the run's StatSet. Reading a
 * metric never mutates component state, so the simulation's hot paths
 * carry zero overhead (and produce byte-identical results) whether or
 * not a registry exists.
 *
 * Naming scheme (see docs/observability.md):
 *   <component>.<subcomponent>.<metric>, e.g.
 *   gpu0.l2.hits, interconnect.gpu2.egress.bytes,
 *   gpu1.remote_write_queue.drains, driver.migrations, faults.reroutes
 */

#ifndef GPS_OBS_METRIC_REGISTRY_HH
#define GPS_OBS_METRIC_REGISTRY_HH

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gps
{

/** How a metric's value behaves over simulated time. */
enum class MetricKind : std::uint8_t {
    Counter, ///< Monotonically non-decreasing event count.
    Gauge,   ///< Instantaneous level (occupancy, hit rate, ...).
};

std::string to_string(MetricKind kind);

/** One registered metric: identity plus a value getter. */
struct MetricDef
{
    std::string name;
    MetricKind kind = MetricKind::Counter;

    /** Unit label ("events", "bytes", "ratio", "us", ...). */
    std::string unit;

    /** Reads the current value; must not mutate simulation state. */
    std::function<double()> read;
};

/** A flat snapshot of every metric at one instant. */
struct MetricValue
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::string unit;
    double value = 0.0;
};

/**
 * Registry of every metric the instrumented system exposes. Owned by the
 * per-run Observability bundle; the getters capture component pointers,
 * so the registry must not outlive the MultiGpuSystem it instruments.
 */
class MetricRegistry
{
  public:
    /** Register a monotonic counter. Names must be unique. */
    void counter(std::string name, std::string unit,
                 std::function<double()> read);

    /** Register an instantaneous gauge. Names must be unique. */
    void gauge(std::string name, std::string unit,
               std::function<double()> read);

    const std::vector<MetricDef>& metrics() const { return defs_; }
    std::size_t size() const { return defs_.size(); }

    /** Definition of the named metric, or nullptr. */
    const MetricDef* find(const std::string& name) const;

    /** Read every metric now. */
    std::vector<MetricValue> snapshot() const;

  private:
    void add(MetricDef def);

    std::vector<MetricDef> defs_;
    std::unordered_map<std::string, std::size_t> index_;
};

} // namespace gps

#endif // GPS_OBS_METRIC_REGISTRY_HH

/**
 * @file
 * Fault plans: deterministic, seeded schedules of injected adversity.
 *
 * A FaultPlan is an ordered list of FaultEvents (time + kind + target)
 * parsed from CLI specs ("link:down@2ms:gpu0-gpu1") or from a small JSON
 * plan file. The FaultEngine replays the plan against a running system;
 * FaultReport accumulates what was injected and how the system degraded
 * (reroutes, PCIe fallbacks, retired pages, write-queue stalls).
 */

#ifndef GPS_FAULT_FAULT_PLAN_HH
#define GPS_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace gps
{

/** What kind of adversity a FaultEvent injects. */
enum class FaultKind : std::uint8_t {
    LinkDown,    ///< Path between two GPUs stops carrying traffic.
    LinkDegrade, ///< Path keeps working at a fraction of its bandwidth.
    LinkRestore, ///< Path returns to full health.
    PageRetire,  ///< Frames on one GPU are permanently taken out of service.
    WqSaturate,  ///< Remote write queue drains stall the producing SM.
    WqRestore,   ///< Remote write queue returns to normal draining.
};

const char* to_string(FaultKind kind);

/** One scheduled fault. Interpretation of the fields depends on kind. */
struct FaultEvent {
    Tick time = 0;           ///< Simulated time the fault fires.
    FaultKind kind = FaultKind::LinkDown;
    GpuId a = invalidGpu;    ///< Link endpoint / target GPU.
    GpuId b = invalidGpu;    ///< Second link endpoint; invalidGpu = wildcard.
    double factor = 1.0;     ///< Bandwidth fraction for LinkDegrade, (0, 1].
    std::uint64_t count = 1; ///< Frames to retire for PageRetire.

    /** Render back to the CLI spec grammar (for reports and logs). */
    std::string describe() const;
};

/** Everything the system did about the injected faults, for RunResult. */
struct FaultReport {
    std::uint64_t faultsInjected = 0;
    std::uint64_t linksDown = 0;
    std::uint64_t linksDegraded = 0;
    std::uint64_t linksRestored = 0;
    std::uint64_t reroutes = 0;
    std::uint64_t reroutedBytes = 0;
    std::uint64_t pcieFallbacks = 0;
    std::uint64_t pcieFallbackBytes = 0;
    std::uint64_t pagesRetired = 0;
    std::uint64_t replicasLost = 0;
    std::uint64_t pagesDegraded = 0;
    std::uint64_t resubscribes = 0;
    std::uint64_t wqSaturations = 0;
    std::uint64_t wqSaturatedDrains = 0;
    Tick stallTicks = 0;
};

/** A parsed, time-sorted schedule of faults plus injection policy. */
struct FaultPlan {
    std::vector<FaultEvent> events;
    std::uint64_t seed = 0;
    bool pcieFallback = true; ///< Host-staged fallback for dead partitions.

    bool empty() const { return events.empty(); }

    /** Append one CLI spec, e.g. "link:down@2ms:gpu0-gpu1". Fatal on
     *  grammar errors. Call sort() once all specs are added. */
    void addSpec(const std::string& spec);

    /** Stable-sort events by time (CLI order breaks ties). */
    void sort();

    /** Parse a single CLI spec into an event. Fatal on grammar errors. */
    static FaultEvent parseSpec(const std::string& spec);

    /** Parse a JSON plan document (see docs/faults.md for the schema). */
    static FaultPlan fromJsonText(const std::string& text);

    /** Load and parse a JSON plan file. Fatal if unreadable. */
    static FaultPlan fromJsonFile(const std::string& path);
};

} // namespace gps

#endif // GPS_FAULT_FAULT_PLAN_HH

/**
 * @file
 * Replays a FaultPlan against a running MultiGpuSystem.
 *
 * The engine is pumped by the runner at phase boundaries: every plan event
 * whose time has arrived is applied, in plan order, at the current tick
 * through the paradigm's degradation hooks. Injection is fully
 * deterministic — event order comes from the sorted plan and any victim
 * selection uses the plan's seeded Rng.
 */

#ifndef GPS_FAULT_FAULT_ENGINE_HH
#define GPS_FAULT_FAULT_ENGINE_HH

#include <cstddef>

#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

class MetricRegistry;
class MultiGpuSystem;
class Paradigm;

/** Deterministic, seeded fault injector. */
class FaultEngine : public SimObject
{
  public:
    /** Validates targets against the system; fatal on out-of-range ids. */
    FaultEngine(FaultPlan plan, MultiGpuSystem& system);

    /**
     * Apply, in plan order, every not-yet-fired event due at or before
     * @p now. Faults therefore take effect at phase granularity, which
     * keeps the runner's phase-time invariant intact. Each injected
     * fault is a timeline instant on the fault track and a causal
     * fault->reroute edge when the system's collectors are on.
     */
    void pump(Tick now, Paradigm& paradigm);

    /** Whether every plan event has fired. */
    bool done() const { return next_ >= plan_.events.size(); }

    FaultReport& report() { return report_; }
    const FaultReport& report() const { return report_; }
    Rng& rng() { return rng_; }
    const FaultPlan& plan() const { return plan_; }

    /** Register every FaultReport counter under the "faults." prefix. */
    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize injection progress: RNG stream position, report
     * counters, and the next-event cursor. The plan itself is rebuilt
     * from the run configuration at restore.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("faults");
        std::uint64_t words[4];
        rng_.saveState(words);
        for (const std::uint64_t w : words)
            out.u64(w);
        out.u64(report_.faultsInjected);
        out.u64(report_.linksDown);
        out.u64(report_.linksDegraded);
        out.u64(report_.linksRestored);
        out.u64(report_.reroutes);
        out.u64(report_.reroutedBytes);
        out.u64(report_.pcieFallbacks);
        out.u64(report_.pcieFallbackBytes);
        out.u64(report_.pagesRetired);
        out.u64(report_.replicasLost);
        out.u64(report_.pagesDegraded);
        out.u64(report_.resubscribes);
        out.u64(report_.wqSaturations);
        out.u64(report_.wqSaturatedDrains);
        out.u64(report_.stallTicks);
        out.u64(next_);
    }

    /** Counterpart of saveState; the plan must already match. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("faults");
        std::uint64_t words[4];
        for (std::uint64_t& w : words)
            w = in.u64();
        rng_.restoreState(words);
        report_.faultsInjected = in.u64();
        report_.linksDown = in.u64();
        report_.linksDegraded = in.u64();
        report_.linksRestored = in.u64();
        report_.reroutes = in.u64();
        report_.reroutedBytes = in.u64();
        report_.pcieFallbacks = in.u64();
        report_.pcieFallbackBytes = in.u64();
        report_.pagesRetired = in.u64();
        report_.replicasLost = in.u64();
        report_.pagesDegraded = in.u64();
        report_.resubscribes = in.u64();
        report_.wqSaturations = in.u64();
        report_.wqSaturatedDrains = in.u64();
        report_.stallTicks = in.u64();
        next_ = in.u64();
        if (next_ > plan_.events.size())
            throw snapshot::SnapshotError(
                "snapshot fault cursor exceeds the configured plan");
    }

  private:
    void apply(const FaultEvent& ev, Paradigm& paradigm);

    FaultPlan plan_;
    MultiGpuSystem* system_;
    Rng rng_;
    FaultReport report_;
    std::size_t next_ = 0;
};

} // namespace gps

#endif // GPS_FAULT_FAULT_ENGINE_HH

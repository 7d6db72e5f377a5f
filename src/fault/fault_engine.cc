#include "fault/fault_engine.hh"

#include "api/system.hh"
#include "common/logging.hh"
#include "interconnect/topology.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/timeline.hh"
#include "paradigm/paradigm.hh"

namespace gps
{

FaultEngine::FaultEngine(FaultPlan plan, MultiGpuSystem& system)
    : SimObject("faults"), plan_(std::move(plan)), system_(&system),
      rng_(plan_.seed)
{
    plan_.sort();
    const std::size_t num_gpus = system.numGpus();
    for (const FaultEvent& ev : plan_.events) {
        if (ev.a != invalidGpu && ev.a >= num_gpus)
            gps_fatal("fault '", ev.describe(), "' targets GPU ", ev.a,
                      " but the system has ", num_gpus, " GPUs");
        if (ev.b != invalidGpu && ev.b >= num_gpus)
            gps_fatal("fault '", ev.describe(), "' targets GPU ", ev.b,
                      " but the system has ", num_gpus, " GPUs");
        if (ev.kind == FaultKind::PageRetire && ev.a == invalidGpu)
            gps_fatal("fault '", ev.describe(),
                      "' needs a concrete GPU target");
    }
    system.topology().setPcieFallback(plan_.pcieFallback);
}

void
FaultEngine::pump(Tick now, Paradigm& paradigm)
{
    while (next_ < plan_.events.size() && plan_.events[next_].time <= now)
        apply(plan_.events[next_++], paradigm);
}

void
FaultEngine::apply(const FaultEvent& ev, Paradigm& paradigm)
{
    ++report_.faultsInjected;
    const RunSinks& sinks = system_->sinks();
    if (sinks.recorder != nullptr)
        sinks.recorder->instant(TimelineRecorder::faultTid, ev.describe(),
                                "fault", ev.time);
    if (sinks.causal != nullptr)
        sinks.causal->noteDep(CausalEdge::FaultToReroute);
    Topology& topo = system_->topology();

    const auto for_each_pair = [&](auto&& fn) {
        if (ev.b != invalidGpu) {
            fn(ev.a, ev.b);
            return;
        }
        for (std::size_t peer = 0; peer < system_->numGpus(); ++peer)
            if (peer != ev.a)
                fn(ev.a, static_cast<GpuId>(peer));
    };

    switch (ev.kind) {
    case FaultKind::LinkDown:
        for_each_pair([&](GpuId a, GpuId b) {
            topo.setPathState(a, b, PathHealth::Down);
            ++report_.linksDown;
        });
        break;
    case FaultKind::LinkDegrade:
        for_each_pair([&](GpuId a, GpuId b) {
            topo.setPathState(a, b, PathHealth::Degraded, ev.factor);
            ++report_.linksDegraded;
        });
        break;
    case FaultKind::LinkRestore:
        for_each_pair([&](GpuId a, GpuId b) {
            topo.setPathState(a, b, PathHealth::Healthy);
            ++report_.linksRestored;
        });
        break;
    case FaultKind::PageRetire:
        paradigm.onFaultPageRetire(ev.a, ev.count, report_);
        break;
    case FaultKind::WqSaturate:
        ++report_.wqSaturations;
        paradigm.onFaultWqSaturate(ev.a, true, report_);
        break;
    case FaultKind::WqRestore:
        paradigm.onFaultWqSaturate(ev.a, false, report_);
        break;
    }
}

void
FaultEngine::registerMetrics(MetricRegistry& reg) const
{
    const FaultReport& r = report_;
    const std::string p = name() + '.';
    const auto count = [&](const char* metric, const char* unit,
                           const std::uint64_t& field) {
        reg.counter(p + metric, unit,
                    [&field] { return static_cast<double>(field); });
    };
    count("injected", "events", r.faultsInjected);
    count("links_down", "links", r.linksDown);
    count("links_degraded", "links", r.linksDegraded);
    count("links_restored", "links", r.linksRestored);
    count("reroutes", "flows", r.reroutes);
    count("rerouted_bytes", "bytes", r.reroutedBytes);
    count("pcie_fallbacks", "flows", r.pcieFallbacks);
    count("pcie_fallback_bytes", "bytes", r.pcieFallbackBytes);
    count("pages_retired", "pages", r.pagesRetired);
    count("replicas_lost", "pages", r.replicasLost);
    count("pages_degraded", "pages", r.pagesDegraded);
    count("resubscribes", "pages", r.resubscribes);
    count("wq_saturations", "events", r.wqSaturations);
    count("wq_saturated_drains", "entries", r.wqSaturatedDrains);
    count("stall_ticks", "ticks", r.stallTicks);
}

} // namespace gps

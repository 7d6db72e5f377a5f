#include "mirror.hh"

#include <algorithm>

#include "api/result_export.hh"
#include "common/json.hh"

namespace hostbench
{

using namespace gps;

const char*
layerName(Layer layer)
{
    switch (layer) {
      case Layer::SystemBuild: return "system.build";
      case Layer::ParadigmSetup: return "paradigm.setup";
      case Layer::AppsSetup: return "apps.setup";
      case Layer::AppsIteration: return "apps.iteration";
      case Layer::TraceStream: return "trace.stream";
      case Layer::ReplayAccess: return "replay.access";
      case Layer::ParadigmBeginPhase: return "paradigm.begin_phase";
      case Layer::ParadigmEndKernel: return "paradigm.end_kernel";
      case Layer::ParadigmBarrier: return "paradigm.barrier";
      case Layer::ParadigmTracking: return "paradigm.tracking";
      case Layer::GpuKernelTime: return "gpu.kernel_time";
      case Layer::InterconnectPhaseTraffic:
        return "interconnect.phase_traffic";
      case Layer::ExportResult: return "export.result";
      case Layer::SystemTeardown: return "system.teardown";
      case Layer::Count: break;
    }
    return "?";
}

double
Tracer::since(Clock::time_point t) const
{
    return std::chrono::duration<double>(t - origin_).count();
}

std::uint32_t
Tracer::open(const char* kind, std::string name, std::uint32_t parent)
{
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.kind = kind;
    s.name = std::move(name);
    s.start = since(Clock::now());
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::close(std::uint32_t id)
{
    span(id).end = since(Clock::now());
}

double
Tracer::seconds(Layer layer) const
{
    return std::chrono::duration<double>(
               layers_[static_cast<std::size_t>(layer)])
        .count();
}

std::string
Tracer::toJson(const std::string& workload, std::uint64_t seed) const
{
    JsonWriter w;
    w.beginObject();
    w.field("workload", workload);
    w.field("seed", seed);
    w.key("layers_s").beginObject();
    for (std::size_t l = 0; l < numLayers; ++l)
        w.field(layerName(static_cast<Layer>(l)),
                seconds(static_cast<Layer>(l)));
    w.endObject();
    w.key("spans").beginArray();
    for (const Span& s : spans_) {
        w.beginObject();
        w.field("id", static_cast<std::uint64_t>(s.id));
        w.field("parent", static_cast<std::uint64_t>(s.parent));
        w.field("kind", s.kind);
        w.field("name", s.name);
        w.field("start_s", s.start);
        w.field("end_s", s.end);
        if (std::string(s.kind) == "phase") {
            w.field("trace.stream_s", s.streamSeconds);
            w.field("replay.access_s", s.accessSeconds);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

Rig
buildRig(const Row& row, Tracer* tracer)
{
    auto timed = [tracer](Layer layer, auto&& fn) {
        if (tracer != nullptr)
            tracer->time(layer, fn);
        else
            fn();
    };
    const RunConfig& config = row.config;
    Rig rig;
    timed(Layer::SystemBuild, [&] {
        rig.system = std::make_unique<MultiGpuSystem>(config.system);
    });
    timed(Layer::ParadigmSetup, [&] {
        rig.paradigm = makeParadigm(config.paradigm, *rig.system);
    });
    rig.ctx = std::make_unique<WorkloadContext>(*rig.system, *rig.paradigm);
    timed(Layer::AppsSetup, [&] {
        rig.workload = makeWorkload(row.app);
        rig.workload->setScale(config.scale);
        rig.workload->setup(*rig.ctx);
        if (rig.paradigm->kind() == ParadigmKind::UmHints)
            rig.workload->applyUmHints(*rig.ctx);
    });
    timed(Layer::ParadigmSetup, [&] { rig.paradigm->onSetupComplete(); });
    return rig;
}

namespace
{

/** Runner::executePhase without faults, collectors or checker. */
Tick
tracedPhase(const RunConfig& config, MultiGpuSystem& system,
            Paradigm& paradigm, Phase& phase, KernelCounters& totals,
            Tracer& tr, std::uint32_t parent, const MirrorOptions& options)
{
    using Clock = Tracer::Clock;
    const std::uint32_t phase_span = tr.open("phase", phase.name, parent);
    const std::size_t n = system.numGpus();
    Topology& topo = system.topology();
    const PageGeometry& geo = system.geometry();

    TrafficMatrix traffic = tr.time(Layer::InterconnectPhaseTraffic,
                                    [n] { return TrafficMatrix(n); });
    KernelCounters stage_counters;
    const Tick prefetch_time = tr.time(Layer::ParadigmBeginPhase, [&] {
        return paradigm.beginPhase(phase, stage_counters, traffic);
    });

    std::vector<KernelCounters> counters(n);
    struct Cursor
    {
        KernelLaunch* kernel;
        bool done = false;
        PageNum lastVpn = ~PageNum(0);
        PageState* lastState = nullptr;
    };
    std::vector<Cursor> cursors;
    for (KernelLaunch& kernel : phase.kernels) {
        counters[kernel.gpu].computeInstrs += kernel.computeInstrs;
        counters[kernel.gpu].dramBytes += kernel.prechargedDramBytes;
        cursors.push_back({&kernel, false, ~PageNum(0), nullptr});
    }

    // Chunked round-robin replay, timed per chunk: the pull is charged
    // to trace.stream, the access loop to replay.access.
    Driver& driver = system.driver();
    const std::size_t chunk = std::max<std::size_t>(config.replayChunk, 1);
    std::vector<MemAccess> batch(chunk);
    std::size_t live = cursors.size();
    Clock::duration stream_time{};
    Clock::duration access_time{};
    Clock::time_point t0 = Clock::now();
    while (live > 0) {
        for (Cursor& cursor : cursors) {
            if (cursor.done)
                continue;
            const GpuId gpu = cursor.kernel->gpu;
            GpuModel& gpu_model = system.gpu(gpu);
            KernelCounters& c = counters[gpu];
            const std::size_t got =
                cursor.kernel->stream->nextBatch(batch.data(), chunk);
            const Clock::time_point t1 = Clock::now();
            stream_time += t1 - t0;
            if (got < chunk) {
                cursor.done = true;
                --live;
            }
            for (std::size_t i = 0; i < got; ++i) {
                const MemAccess& access = batch[i];
                ++c.accesses;
                switch (access.type) {
                  case AccessType::Load: ++c.loads; break;
                  case AccessType::Store: ++c.stores; break;
                  case AccessType::Atomic: ++c.atomics; break;
                }
                const PageNum vpn = geo.pageNum(access.vaddr);
                const bool tlb_miss = gpu_model.tlbAccess(vpn, c);
                if (vpn != cursor.lastVpn) {
                    cursor.lastVpn = vpn;
                    cursor.lastState = &driver.state(vpn);
                }
                paradigm.access(gpu, access, vpn, *cursor.lastState,
                                tlb_miss, c, traffic);
            }
            t0 = Clock::now();
            access_time += t0 - t1;
        }
    }
    tr.add(Layer::TraceStream, stream_time);
    tr.add(Layer::ReplayAccess, access_time);
    tr.span(phase_span).streamSeconds =
        std::chrono::duration<double>(stream_time).count();
    tr.span(phase_span).accessSeconds =
        std::chrono::duration<double>(access_time).count();

    if (!options.skipEndKernel)
        tr.time(Layer::ParadigmEndKernel, [&] {
            for (Cursor& cursor : cursors)
                paradigm.endKernel(cursor.kernel->gpu,
                                   counters[cursor.kernel->gpu], traffic);
        });

    const Tick launch = system.config().gpu.kernelLaunchOverhead;
    Tick slowest = 0;
    for (const Cursor& cursor : cursors) {
        const GpuId gpu = cursor.kernel->gpu;
        const KernelTimeBreakdown bd = tr.time(Layer::GpuKernelTime, [&] {
            return system.gpu(gpu).kernelTimeBreakdown(counters[gpu], topo);
        });
        const Tick link_time =
            tr.time(Layer::InterconnectPhaseTraffic, [&] {
                return std::max(topo.egressTime(traffic, gpu),
                                topo.ingressTime(traffic, gpu));
            });
        slowest = std::max({slowest, bd.total + launch, link_time});
    }
    TrafficMatrix barrier_traffic =
        tr.time(Layer::InterconnectPhaseTraffic, [&] {
            topo.applyPhaseTraffic(traffic);
            return TrafficMatrix(n);
        });
    const Tick barrier_overhead = tr.time(Layer::ParadigmBarrier, [&] {
        return paradigm.atBarrier(stage_counters, barrier_traffic);
    });
    const Tick barrier_time =
        tr.time(Layer::InterconnectPhaseTraffic, [&] {
            return topo.applyPhaseTraffic(barrier_traffic);
        }) +
        barrier_overhead;

    for (const KernelCounters& c : counters)
        totals.merge(c);
    totals.merge(stage_counters);
    tr.close(phase_span);
    return prefetch_time + slowest + barrier_time;
}

double
hitRate(std::uint64_t hits, std::uint64_t misses)
{
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
}

} // namespace

RunResult
tracedRun(const Row& row, Tracer& tr, const MirrorOptions& options)
{
    const RunConfig& config = row.config;
    const std::uint32_t row_span = tr.open("row", row.label, 0);
    Rig rig = buildRig(row, &tr);
    MultiGpuSystem& system = *rig.system;
    Paradigm& paradigm = *rig.paradigm;
    Workload& workload = *rig.workload;

    const std::size_t eff_requested =
        config.effectiveIterationsOverride != 0
            ? config.effectiveIterationsOverride
            : workload.effectiveIterations();
    const std::size_t max_iters = std::max<std::size_t>(eff_requested, 1);
    const std::size_t sim_iters =
        std::min<std::size_t>(1 + config.steadyIterations, max_iters);

    RunResult result;
    result.workload = workload.name();
    result.paradigm = to_string(paradigm.kind());
    result.numGpus = system.numGpus();

    KernelCounters totals;
    std::vector<Tick> iter_time;
    std::vector<std::uint64_t> iter_bytes;
    Tick now = 0;
    for (std::size_t iter = 0; iter < sim_iters; ++iter) {
        const std::uint32_t iter_span =
            tr.open("iteration", "iter" + std::to_string(iter), row_span);
        tr.time(Layer::ParadigmTracking, [&] {
            paradigm.beginIteration(iter);
            if (iter == 0)
                paradigm.trackingStart();
        });
        const Tick t_before = now;
        const std::uint64_t b_before =
            system.topology().totalPayloadBytes();
        std::vector<Phase> phases = tr.time(Layer::AppsIteration, [&] {
            return workload.iteration(iter, *rig.ctx);
        });
        for (Phase& phase : phases)
            now += tracedPhase(config, system, paradigm, phase, totals, tr,
                               iter_span, options);
        tr.time(Layer::AppsIteration, [&] { phases.clear(); });
        if (iter == 0)
            tr.time(Layer::ParadigmTracking, [&] {
                paradigm.trackingStop(totals);
                result.hasSubscriberHist =
                    paradigm.fillSubscriberHistogram(result.subscriberHist);
            });
        iter_time.push_back(now - t_before);
        iter_bytes.push_back(system.topology().totalPayloadBytes() -
                             b_before);
        tr.close(iter_span);
    }

    // Extrapolate the simulated steady state exactly as Runner::run does.
    const std::size_t n_sim = iter_time.size();
    Tick total_time = iter_time.empty() ? 0 : iter_time.front();
    double total_bytes =
        iter_bytes.empty() ? 0.0 : static_cast<double>(iter_bytes.front());
    if (n_sim > 1) {
        Tick steady_sum = 0;
        double steady_bytes = 0.0;
        for (std::size_t i = 1; i < n_sim; ++i) {
            steady_sum += iter_time[i];
            steady_bytes += static_cast<double>(iter_bytes[i]);
        }
        const double steady_count = static_cast<double>(n_sim - 1);
        const double remaining = static_cast<double>(eff_requested - 1);
        total_time += static_cast<Tick>(static_cast<double>(steady_sum) /
                                        steady_count * remaining);
        total_bytes += steady_bytes / steady_count * remaining;
    }
    result.totalTime = total_time;
    result.interconnectBytes = clampToUint64(total_bytes);
    result.totals = totals;

    tr.time(Layer::ExportResult, [&] {
        std::uint64_t l2_hits = 0, l2_misses = 0;
        std::uint64_t tlb_hits = 0, tlb_misses = 0;
        for (std::size_t g = 0; g < system.numGpus(); ++g) {
            const GpuModel& gpu = system.gpu(static_cast<GpuId>(g));
            l2_hits += gpu.l2().hits();
            l2_misses += gpu.l2().misses();
            tlb_hits += gpu.tlb().hits();
            tlb_misses += gpu.tlb().misses();
        }
        result.l2HitRate = hitRate(l2_hits, l2_misses);
        result.tlbHitRate = hitRate(tlb_hits, tlb_misses);
        result.stats = system.stats();
        paradigm.exportStats(result.stats);
        totals.exportStats(result.stats, "totals");
        result.wqHitRate = result.stats.get("gps.wq_hit_rate");
        result.gpsTlbHitRate = result.stats.get("gps.gps_tlb_hit_rate");
        (void)resultToJson(result);
    });

    // Runner::run's locals die in reverse order; the workload, owned by
    // its caller, dies last.
    tr.time(Layer::SystemTeardown, [&] {
        rig.ctx.reset();
        rig.paradigm.reset();
        rig.system.reset();
        rig.workload.reset();
    });
    tr.close(row_span);
    return result;
}

} // namespace hostbench

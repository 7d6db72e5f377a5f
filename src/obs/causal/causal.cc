#include "obs/causal/causal.hh"

#include <algorithm>
#include <map>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace gps
{

std::string
to_string(CausalEdge edge)
{
    switch (edge) {
      case CausalEdge::KernelToPhase: return "kernel_to_phase";
      case CausalEdge::LinkToRwqInsert: return "link_to_rwq_insert";
      case CausalEdge::RwqInsertToDrain: return "rwq_insert_to_drain";
      case CausalEdge::RwqSaturationStall:
        return "rwq_saturation_stall";
      case CausalEdge::MigrationToStall: return "migration_to_stall";
      case CausalEdge::FaultToReroute: return "fault_to_reroute";
      case CausalEdge::Count: break;
    }
    return "unknown";
}

void
CausalRecorder::saveState(snapshot::Serializer& out) const
{
    out.section("causal");
    out.f64(data_.model.linkBandwidth);
    out.b(data_.model.linkInfinite);
    out.u64(data_.model.linkLatency);
    out.u32(data_.model.headerBytes);
    out.u32(data_.model.cacheLineBytes);
    out.u64(data_.model.kernelLaunchOverhead);
    out.f64(data_.model.wqDrainScale);
    out.u64(data_.model.numGpus);
    out.u64(data_.model.effectiveIterations);

    out.u64(data_.phases.size());
    for (const CausalPhase& ph : data_.phases) {
        out.str(ph.name);
        out.u64(ph.iter);
        out.u64(ph.start);
        out.u64(ph.prefetchTime);
        out.u64(ph.barrierOverhead);
        out.u64(ph.barrierTime);
        out.u64(ph.phaseTime);
        out.u64(ph.kernels.size());
        for (const CausalKernel& k : ph.kernels) {
            out.u32(k.gpu);
            out.u64(k.tCompute);
            out.u64(k.tL2);
            out.u64(k.tDram);
            out.u64(k.tWalks);
            out.f64(k.batchesLoads);
            out.f64(k.batchesAtomics);
            out.u64(k.tFaults);
            out.u64(k.tShootdowns);
            out.u64(k.tWqStall);
            out.u64(k.egressBytes);
            out.u64(k.ingressBytes);
            out.u64(k.gpuTime);
        }
        out.u64(ph.barrierEgress.size());
        for (const std::uint64_t b : ph.barrierEgress)
            out.u64(b);
        out.u64(ph.barrierIngress.size());
        for (const std::uint64_t b : ph.barrierIngress)
            out.u64(b);
    }

    out.u64(data_.iterations.size());
    for (const CausalIteration& it : data_.iterations) {
        out.u64(it.iter);
        out.u64(it.start);
        out.u64(it.end);
    }
    for (const std::uint64_t e : data_.edges)
        out.u64(e);
    out.u64(data_.droppedPhases);
    out.u64(openIter_);
    out.u64(openStart_);
    out.b(openValid_);
}

void
CausalRecorder::restoreState(snapshot::Deserializer& in)
{
    in.section("causal");
    data_ = CausalReport{};
    data_.model.linkBandwidth = in.f64();
    data_.model.linkInfinite = in.b();
    data_.model.linkLatency = in.u64();
    data_.model.headerBytes = in.u32();
    data_.model.cacheLineBytes = in.u32();
    data_.model.kernelLaunchOverhead = in.u64();
    data_.model.wqDrainScale = in.f64();
    data_.model.numGpus = in.u64();
    data_.model.effectiveIterations = in.u64();

    const std::uint64_t phases = in.count(1ULL << 32);
    data_.phases.reserve(phases);
    for (std::uint64_t p = 0; p < phases; ++p) {
        CausalPhase ph;
        ph.name = in.str();
        ph.iter = in.u64();
        ph.start = in.u64();
        ph.prefetchTime = in.u64();
        ph.barrierOverhead = in.u64();
        ph.barrierTime = in.u64();
        ph.phaseTime = in.u64();
        const std::uint64_t kernels = in.count(1ULL << 24);
        ph.kernels.reserve(kernels);
        for (std::uint64_t i = 0; i < kernels; ++i) {
            CausalKernel k;
            k.gpu = in.u32();
            k.tCompute = in.u64();
            k.tL2 = in.u64();
            k.tDram = in.u64();
            k.tWalks = in.u64();
            k.batchesLoads = in.f64();
            k.batchesAtomics = in.f64();
            k.tFaults = in.u64();
            k.tShootdowns = in.u64();
            k.tWqStall = in.u64();
            k.egressBytes = in.u64();
            k.ingressBytes = in.u64();
            k.gpuTime = in.u64();
            ph.kernels.push_back(k);
        }
        std::uint64_t n = in.count(1ULL << 24);
        ph.barrierEgress.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            ph.barrierEgress.push_back(in.u64());
        n = in.count(1ULL << 24);
        ph.barrierIngress.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
            ph.barrierIngress.push_back(in.u64());
        data_.phases.push_back(std::move(ph));
    }

    const std::uint64_t iters = in.count(1ULL << 32);
    data_.iterations.reserve(iters);
    for (std::uint64_t i = 0; i < iters; ++i) {
        CausalIteration it;
        it.iter = in.u64();
        it.start = in.u64();
        it.end = in.u64();
        data_.iterations.push_back(it);
    }
    for (std::uint64_t& e : data_.edges)
        e = in.u64();
    data_.droppedPhases = in.u64();
    openIter_ = in.u64();
    openStart_ = in.u64();
    openValid_ = in.b();
}

namespace
{

Tick
modelLinkTime(const CausalModel& m, std::uint64_t bytes)
{
    if (m.linkInfinite)
        return 0;
    return transferTicks(bytes, m.linkBandwidth);
}

/** Mirror of GpuModel::kernelTimeBreakdown's remote-stall term. */
Tick
modelRemoteTime(const CausalModel& m, const CausalKernel& k)
{
    if (m.linkInfinite)
        return 0;
    const Tick line_time =
        modelLinkTime(m, m.cacheLineBytes + m.headerBytes);
    const Tick round_trip = 2 * m.linkLatency + line_time;
    Tick t = 0;
    if (k.batchesLoads > 0.0)
        t += static_cast<Tick>(k.batchesLoads *
                               static_cast<double>(round_trip));
    if (k.batchesAtomics > 0.0)
        t += static_cast<Tick>(k.batchesAtomics *
                               static_cast<double>(round_trip));
    return t;
}

const char*
coreLane(const CausalKernel& k)
{
    // Mirror std::max({tCompute, tL2, tDram, tWalks}): first largest.
    const Tick m = std::max({k.tCompute, k.tL2, k.tDram, k.tWalks});
    if (k.tCompute == m)
        return "compute";
    if (k.tL2 == m)
        return "l2";
    if (k.tDram == m)
        return "dram";
    return "page_walk";
}

} // namespace

CriticalPathReport
analyzeCriticalPath(const CausalReport& report)
{
    CriticalPathReport out;
    const CausalModel& m = report.model;
    std::map<std::string, Tick> lanes;

    auto emit = [&](const std::string& phase, std::uint64_t iter,
                    const char* lane, int gpu, Tick start, Tick ticks) {
        if (ticks == 0)
            return;
        out.segments.push_back({phase, iter, lane, gpu, start, ticks});
        lanes[lane] += ticks;
        out.totalTicks += ticks;
    };

    // Per-iteration sum of recorded phase times, to expose any residual
    // (simulated time the clock advanced outside phase execution).
    std::map<std::uint64_t, Tick> phase_sum;

    for (const CausalPhase& ph : report.phases) {
        phase_sum[ph.iter] += ph.phaseTime;
        Tick cursor = ph.start;
        emit(ph.name, ph.iter, "host_prefetch", -1, cursor,
             ph.prefetchTime);
        cursor += ph.prefetchTime;

        const Tick slowest =
            ph.phaseTime - ph.prefetchTime - ph.barrierTime;
        if (ph.kernels.empty()) {
            emit(ph.name, ph.iter, "other", -1, cursor, slowest);
        } else {
            // Mirror the runner: first GPU reaching the phase maximum.
            const CausalKernel* winner = &ph.kernels.front();
            for (const CausalKernel& k : ph.kernels)
                if (k.gpuTime > winner->gpuTime)
                    winner = &k;
            const CausalKernel& k = *winner;
            const int gpu = static_cast<int>(k.gpu);
            const Tick remote = modelRemoteTime(m, k);
            const Tick core =
                std::max({k.tCompute, k.tL2, k.tDram, k.tWalks});
            const Tick kernel_time = core + remote + k.tFaults +
                                     k.tShootdowns + k.tWqStall +
                                     m.kernelLaunchOverhead;
            const Tick egress = modelLinkTime(m, k.egressBytes);
            const Tick ingress = modelLinkTime(m, k.ingressBytes);
            if (kernel_time >= egress && kernel_time >= ingress) {
                emit(ph.name, ph.iter, coreLane(k), gpu, cursor, core);
                cursor += core;
                emit(ph.name, ph.iter, "remote_round_trip", gpu, cursor,
                     remote);
                cursor += remote;
                emit(ph.name, ph.iter, "fault_stall", gpu, cursor,
                     k.tFaults);
                cursor += k.tFaults;
                emit(ph.name, ph.iter, "tlb_shootdown", gpu, cursor,
                     k.tShootdowns);
                cursor += k.tShootdowns;
                emit(ph.name, ph.iter, "rwq_stall", gpu, cursor,
                     k.tWqStall);
                cursor += k.tWqStall;
                emit(ph.name, ph.iter, "kernel_launch", gpu, cursor,
                     m.kernelLaunchOverhead);
                cursor += m.kernelLaunchOverhead;
                // Idle gap behind a slower sibling GPU (winner per
                // recorded gpuTime, which may exceed this kernel's own
                // bound under fault-inflated recorded times).
                emit(ph.name, ph.iter, "other", gpu, cursor,
                     slowest > kernel_time ? slowest - kernel_time : 0);
            } else if (egress >= ingress) {
                emit(ph.name, ph.iter, "link_egress", gpu, cursor,
                     egress);
                emit(ph.name, ph.iter, "other", gpu, cursor + egress,
                     slowest > egress ? slowest - egress : 0);
            } else {
                emit(ph.name, ph.iter, "link_ingress", gpu, cursor,
                     ingress);
                emit(ph.name, ph.iter, "other", gpu, cursor + ingress,
                     slowest > ingress ? slowest - ingress : 0);
            }
            cursor = ph.start + ph.prefetchTime + slowest;
        }

        const Tick wire = ph.barrierTime - ph.barrierOverhead;
        emit(ph.name, ph.iter, "barrier_wire", -1, cursor, wire);
        emit(ph.name, ph.iter, "barrier_overhead", -1, cursor + wire,
             ph.barrierOverhead);
    }

    // Residual inside each simulated iteration window (normally zero).
    for (const CausalIteration& it : report.iterations) {
        const Tick window = it.end - it.start;
        const auto found = phase_sum.find(it.iter);
        const Tick covered =
            found == phase_sum.end() ? 0 : found->second;
        if (window > covered)
            emit("iteration", it.iter, "other", -1, it.start + covered,
                 window - covered);
    }

    out.laneTicks.assign(lanes.begin(), lanes.end());
    std::sort(out.laneTicks.begin(), out.laneTicks.end(),
              [](const auto& a, const auto& b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first;
              });
    return out;
}

std::string
causalToJson(const CausalReport& report)
{
    const CriticalPathReport path = analyzeCriticalPath(report);
    JsonWriter w;
    w.beginObject();
    w.field("schema", std::uint64_t(1));

    w.key("model").beginObject();
    w.field("link_bandwidth", report.model.linkBandwidth);
    w.field("link_infinite", report.model.linkInfinite);
    w.field("link_latency", report.model.linkLatency);
    w.field("header_bytes",
            static_cast<std::uint64_t>(report.model.headerBytes));
    w.field("cache_line_bytes",
            static_cast<std::uint64_t>(report.model.cacheLineBytes));
    w.field("kernel_launch_overhead",
            report.model.kernelLaunchOverhead);
    w.field("wq_drain_scale", report.model.wqDrainScale);
    w.field("num_gpus", report.model.numGpus);
    w.field("effective_iterations", report.model.effectiveIterations);
    w.endObject();

    w.key("edges").beginObject();
    for (std::size_t e = 0;
         e < static_cast<std::size_t>(CausalEdge::Count); ++e)
        w.field(to_string(static_cast<CausalEdge>(e)),
                report.edges[e]);
    w.endObject();
    w.field("dropped_phases", report.droppedPhases);

    w.key("phases").beginArray();
    for (const CausalPhase& ph : report.phases) {
        w.beginObject();
        w.field("name", ph.name);
        w.field("iter", ph.iter);
        w.field("start", ph.start);
        w.field("prefetch_time", ph.prefetchTime);
        w.field("barrier_overhead", ph.barrierOverhead);
        w.field("barrier_time", ph.barrierTime);
        w.field("phase_time", ph.phaseTime);
        w.key("kernels").beginArray();
        for (const CausalKernel& k : ph.kernels) {
            w.beginObject();
            w.field("gpu", static_cast<std::uint64_t>(k.gpu));
            w.field("t_compute", k.tCompute);
            w.field("t_l2", k.tL2);
            w.field("t_dram", k.tDram);
            w.field("t_walks", k.tWalks);
            w.field("batches_loads", k.batchesLoads);
            w.field("batches_atomics", k.batchesAtomics);
            w.field("t_faults", k.tFaults);
            w.field("t_shootdowns", k.tShootdowns);
            w.field("t_wq_stall", k.tWqStall);
            w.field("egress_bytes", k.egressBytes);
            w.field("ingress_bytes", k.ingressBytes);
            w.field("gpu_time", k.gpuTime);
            w.endObject();
        }
        w.endArray();
        w.key("barrier_egress").beginArray();
        for (const std::uint64_t b : ph.barrierEgress)
            w.value(b);
        w.endArray();
        w.key("barrier_ingress").beginArray();
        for (const std::uint64_t b : ph.barrierIngress)
            w.value(b);
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("iterations").beginArray();
    for (const CausalIteration& it : report.iterations) {
        w.beginObject();
        w.field("iter", it.iter);
        w.field("start", it.start);
        w.field("end", it.end);
        w.endObject();
    }
    w.endArray();

    w.key("critical_path").beginObject();
    w.field("total_ticks", path.totalTicks);
    w.key("lanes").beginArray();
    for (const auto& [lane, ticks] : path.laneTicks) {
        w.beginObject();
        w.field("lane", lane);
        w.field("ticks", ticks);
        w.endObject();
    }
    w.endArray();
    w.key("segments").beginArray();
    for (const CriticalSegment& seg : path.segments) {
        w.beginObject();
        w.field("phase", seg.phase);
        w.field("iter", seg.iter);
        w.field("lane", seg.lane);
        w.field("gpu", static_cast<double>(seg.gpu));
        w.field("start", seg.start);
        w.field("ticks", seg.ticks);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.endObject();
    return w.str();
}

} // namespace gps

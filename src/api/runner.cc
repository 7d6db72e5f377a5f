#include "api/runner.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "check/check.hh"
#include "common/logging.hh"
#include "fault/fault_engine.hh"

namespace gps
{

std::string
systemConfigError(const SystemConfig& system)
{
    if (system.numGpus < 1 || system.numGpus > maxGpus)
        return "GPU count must be in [1, " + std::to_string(maxGpus) +
               "], got " + std::to_string(system.numGpus);
    const std::uint64_t page = system.pageBytes;
    if (page < 4 * KiB || page > 2 * MiB || (page & (page - 1)) != 0)
        return "page size must be a power of two from 4 KiB to 2 MiB, "
               "got " + std::to_string(page) + " bytes";
    if (system.gps.wqEntries < 1)
        return "the remote write queue needs at least one entry";
    return "";
}

RunResult
Runner::run(Workload& workload)
{
    if (!validScale(config_.scale))
        gps_fatal("problem scale must be in (0, 2^32], got ",
                  config_.scale);
    if (const std::string error = systemConfigError(config_.system);
        !error.empty())
        gps_fatal(error);

    // Snapshots freeze the bare simulation state plus the serializable
    // collectors (sampler series, timeline, causal graph). The check
    // layer and the profile collector keep live external mirrors
    // (reference model, heat maps) without save/restore support, so
    // those combinations are rejected up front.
    const bool capturing =
        config_.snapshotAt.active() &&
        (!config_.snapshotOut.empty() ||
         config_.snapshotSink != nullptr);
    std::optional<snapshot::Snapshot> snap;
    if (config_.restoreBlob != nullptr)
        snap = snapshot::decodeSnapshot(config_.restoreBlob);
    else if (!config_.restoreFrom.empty())
        snap = snapshot::readSnapshotFile(config_.restoreFrom);
    if ((capturing || snap.has_value()) && config_.check.enabled)
        throw snapshot::SnapshotError(
            "snapshot capture/restore cannot be combined with the "
            "check layer");
    if ((capturing || snap.has_value()) && config_.obs.profile)
        throw snapshot::SnapshotError(
            "snapshot capture/restore cannot be combined with profile "
            "collection");

    MultiGpuSystem system(config_.system);
    std::unique_ptr<Paradigm> paradigm =
        makeParadigm(config_.paradigm, system);
    WorkloadContext ctx(system, *paradigm);

    // An empty plan constructs no engine at all, so fault-free runs take
    // exactly the pre-fault-subsystem code paths.
    std::unique_ptr<FaultEngine> fault_engine;
    if (!config_.faultPlan.empty()) {
        fault_engine =
            std::make_unique<FaultEngine>(config_.faultPlan, system);
        system.installFaultEngine(fault_engine.get());
        faults_ = fault_engine.get();
    }

    workload.setScale(config_.scale);
    workload.setup(ctx);
    if (paradigm->kind() == ParadigmKind::UmHints)
        workload.applyUmHints(ctx);

    // Differential validation: constructed only when requested, so the
    // disabled path runs exactly the pre-check code. In the sink table
    // before onSetupComplete() so setup-time subscriptions reach it.
    RunSinks& sinks = system.sinks();
    std::unique_ptr<CheckContext> check;
    if (config_.check.enabled) {
        check = std::make_unique<CheckContext>(config_.check, system);
        check->attachParadigm(paradigm.get());
        sinks.check = check.get();
        check_ = check.get();
    }

    paradigm->onSetupComplete();

    // Observability: constructed only when requested, so the disabled
    // path runs exactly the pre-observability code.
    std::unique_ptr<Observability> obs;
    if (config_.obs.enabled()) {
        obs = std::make_unique<Observability>(config_.obs);
        system.registerMetrics(obs->registry());
        paradigm->registerMetrics(obs->registry());
        if (fault_engine != nullptr)
            fault_engine->registerMetrics(obs->registry());
        sinks.recorder = obs->recorder();
        sinks.profile = obs->profile();
        sinks.causal = obs->causal();
        if (TimelineRecorder* rec = sinks.recorder) {
            for (std::size_t g = 0; g < system.numGpus(); ++g)
                rec->nameTrack(static_cast<int>(g),
                               "gpu" + std::to_string(g));
            rec->nameTrack(TimelineRecorder::systemTid, "system");
            rec->nameTrack(TimelineRecorder::faultTid, "faults");
            rec->nameTrack(TimelineRecorder::driverTid, "driver");
            const std::size_t nodes = system.config().numNodes;
            if (nodes > 1)
                for (std::size_t n = 0; n < nodes; ++n)
                    rec->nameTrack(TimelineRecorder::uplinkTidBase +
                                       static_cast<int>(n),
                                   "node" + std::to_string(n) + ".uplink");
        }
        if (ProfileCollector* prof = sinks.profile) {
            // Resolved at finalize(), while the system is still alive.
            prof->setRegionResolver([&system](PageNum vpn) {
                const Region* region = system.driver().regionOf(
                    system.geometry().pageBase(vpn));
                return region != nullptr ? region->label
                                         : std::string("<unmapped>");
            });
        }
        if (CausalRecorder* causal = sinks.causal) {
            CausalModel model;
            const InterconnectSpec& spec = system.topology().spec();
            model.linkBandwidth = spec.bandwidth;
            model.linkInfinite = spec.infinite;
            model.linkLatency = spec.latency;
            model.headerBytes = spec.headerBytes;
            model.cacheLineBytes = system.config().gpu.cacheLineBytes;
            model.kernelLaunchOverhead =
                system.config().gpu.kernelLaunchOverhead;
            model.wqDrainScale = system.config().gps.wqDrainScale;
            model.numGpus = system.numGpus();
            causal->setModel(model);
        }
        obs_ = obs.get();
    }

    const std::size_t eff_requested =
        config_.effectiveIterationsOverride != 0
            ? config_.effectiveIterationsOverride
            : workload.effectiveIterations();
    const std::size_t max_iters = std::max<std::size_t>(eff_requested, 1);
    const std::size_t sim_iters =
        std::min<std::size_t>(1 + config_.steadyIterations, max_iters);
    if (sinks.causal != nullptr)
        sinks.causal->setEffectiveIterations(
            std::max<std::uint64_t>(eff_requested, 1));

    RunResult result;
    result.workload = workload.name();
    result.paradigm = to_string(paradigm->kind());
    result.numGpus = system.numGpus();

    KernelCounters totals;
    std::vector<Tick> iter_time;
    std::vector<std::uint64_t> iter_bytes;

    // --- Restore: rebuild loop position and machine state from the
    // snapshot, verified before any phase replays. The iteration()
    // calls the original run made before the capture point are
    // re-issued first so workload-internal generator state matches;
    // any paradigm/driver state they touch is overwritten by
    // applyState() right after. ---
    std::size_t start_iter = 0;
    std::size_t resume_phase = 0;
    bool resume_mid = false;
    std::vector<Phase> resume_phases;
    Tick resume_t_before = 0;
    std::uint64_t resume_b_before = 0;
    std::uint64_t global_phases = 0;

    if (snap.has_value()) {
        const snapshot::SnapshotMeta& meta = snap->meta;
        if (meta.workload != workload.name())
            throw snapshot::SnapshotError(
                "snapshot was taken from workload '" + meta.workload +
                "', this run is '" + workload.name() + "'");
        if (meta.paradigm !=
            static_cast<std::uint8_t>(paradigm->kind()))
            throw snapshot::SnapshotError(
                "snapshot paradigm differs from the configured run");
        if (meta.numGpus != system.numGpus())
            throw snapshot::SnapshotError(
                "snapshot GPU count differs from the configured run");
        if (meta.pageBytes != config_.system.pageBytes)
            throw snapshot::SnapshotError(
                "snapshot page size differs from the configured run");
        if (meta.scale != config_.scale)
            throw snapshot::SnapshotError(
                "snapshot problem scale differs from the configured "
                "run");

        const snapshot::RunnerProgress& prog = snap->progress;
        start_iter = static_cast<std::size_t>(prog.resumeIter);
        resume_phase = static_cast<std::size_t>(prog.resumePhase);
        for (std::size_t i = 0; i < start_iter; ++i)
            (void)workload.iteration(i, ctx);
        if (resume_phase > 0) {
            paradigm->beginIteration(start_iter);
            if (start_iter == 0)
                paradigm->trackingStart();
            resume_phases = workload.iteration(start_iter, ctx);
            if (resume_phase > resume_phases.size())
                throw snapshot::SnapshotError(
                    "snapshot resume phase is beyond the workload's "
                    "iteration");
            resume_mid = true;
        }

        snapshot::applyState(*snap, system, *paradigm,
                             fault_engine.get(),
                             config_.restoreMutateForTest);

        // Collector state resumes with the machine state so a restored
        // run's timeline/metrics/causal outputs are byte-identical to
        // the uninterrupted run's.
        if (prog.hasObs) {
            if (obs == nullptr)
                throw snapshot::SnapshotError(
                    "snapshot carries observability state but this "
                    "run has observability off");
            snapshot::Deserializer obs_in(prog.obsState);
            obs->restoreState(obs_in);
        } else if (obs != nullptr) {
            gps_warn("resuming an observability run from a snapshot "
                     "without collector state; outputs cover only the "
                     "resumed window");
        }

        totals = prog.totals;
        iter_time = prog.iterTime;
        iter_bytes = prog.iterBytes;
        global_phases = prog.globalPhases;
        resume_t_before = prog.tBefore;
        resume_b_before = prog.bBefore;
        result.hasSubscriberHist = prog.hasSubscriberHist;
        if (prog.hasSubscriberHist) {
            result.subscriberHist.clear();
            const std::size_t buckets =
                std::min(prog.histBuckets.size(),
                         result.subscriberHist.size());
            for (std::size_t i = 0; i < buckets; ++i)
                if (prog.histBuckets[i] != 0)
                    result.subscriberHist.sample(i,
                                                 prog.histBuckets[i]);
        }
        // Nothing reads the decoded snapshot past this point; its body
        // is as large as the encoded bytes.
        snap.reset();
    }

    // The baseline sample is taken at the tick the replay starts from,
    // with the restored counters when resuming. A snapshot carrying
    // collector state already restored the sampler; this is then a
    // no-op.
    if (obs != nullptr)
        obs->startSampling(system.now());

    // --- Capture: encode the quiescent system once the requested
    // point is reached, tagged with the loop position to resume at. ---
    bool captured = false;
    auto capture = [&](std::uint64_t at_iter, std::uint64_t at_phase,
                       Tick t_before, std::uint64_t b_before) {
        if (captured)
            return;
        snapshot::SnapshotMeta meta;
        meta.workload = workload.name();
        meta.paradigm = static_cast<std::uint8_t>(paradigm->kind());
        meta.numGpus = static_cast<std::uint32_t>(system.numGpus());
        meta.pageBytes = config_.system.pageBytes;
        meta.scale = config_.scale;
        meta.stateKey = config_.snapshotKey;
        snapshot::RunnerProgress prog;
        prog.resumeIter = at_iter;
        prog.resumePhase = at_phase;
        prog.globalPhases = global_phases;
        prog.tBefore = t_before;
        prog.bBefore = b_before;
        prog.totals = totals;
        prog.iterTime = iter_time;
        prog.iterBytes = iter_bytes;
        prog.hasSubscriberHist = result.hasSubscriberHist;
        if (result.hasSubscriberHist)
            for (std::size_t i = 0; i < result.subscriberHist.size();
                 ++i)
                prog.histBuckets.push_back(
                    result.subscriberHist.bucket(i));
        if (obs != nullptr) {
            prog.hasObs = true;
            snapshot::Serializer obs_out;
            obs->saveState(obs_out);
            prog.obsState = obs_out.bytes();
        }
        std::string bytes = snapshot::encodeSnapshot(
            system, *paradigm, fault_engine.get(), meta, prog);
        if (!config_.snapshotOut.empty())
            snapshot::writeSnapshotFile(config_.snapshotOut, bytes);
        if (config_.snapshotSink != nullptr)
            *config_.snapshotSink = std::move(bytes);
        captured = true;
    };

    // Normally the steady state is sampled and extrapolated; a pending
    // fault plan extends the simulated window (up to the workload's full
    // run) so events scheduled deep into the run still come due.
    CancelToken* cancel = config_.cancel.get();
    for (std::size_t iter = start_iter; iter < max_iters; ++iter) {
        if (iter >= sim_iters &&
            (fault_engine == nullptr || fault_engine->done()))
            break;
        if (cancel != nullptr)
            cancel->throwIfCancelled();

        const bool resuming = resume_mid && iter == start_iter;
        if (capturing && !resuming &&
            config_.snapshotAt.kind == snapshot::AtKind::Iter &&
            config_.snapshotAt.n == iter)
            capture(iter, 0, system.now(),
                    system.topology().totalPayloadBytes());

        Tick t_before = 0;
        std::uint64_t b_before = 0;
        std::vector<Phase> phases;
        std::size_t first_phase = 0;
        if (resuming) {
            phases = std::move(resume_phases);
            first_phase = resume_phase;
            t_before = resume_t_before;
            b_before = resume_b_before;
        } else {
            paradigm->beginIteration(iter);
            if (iter == 0)
                paradigm->trackingStart();
            t_before = system.now();
            b_before = system.topology().totalPayloadBytes();
            if (sinks.causal != nullptr)
                sinks.causal->beginIteration(iter, t_before);
            phases = workload.iteration(iter, ctx);
        }

        for (std::size_t p = first_phase; p < phases.size(); ++p) {
            executePhase(system, *paradigm, phases[p], totals);
            ++global_phases;
            if (capturing &&
                config_.snapshotAt.kind == snapshot::AtKind::Phase &&
                config_.snapshotAt.n == global_phases)
                capture(iter, p + 1, t_before, b_before);
        }

        if (iter == 0) {
            // The profile point sits after iteration 0's phases but
            // before cuGPSTrackingStop(): the warm boundary shared by
            // every config that only differs in post-profile policy
            // (e.g. gps.autoUnsubscribe).
            if (capturing &&
                config_.snapshotAt.kind == snapshot::AtKind::Profile)
                capture(0, phases.size(), t_before, b_before);
            paradigm->trackingStop(totals);
            result.hasSubscriberHist =
                paradigm->fillSubscriberHistogram(result.subscriberHist);
        }

        if (sinks.causal != nullptr)
            sinks.causal->endIteration(system.now());
        iter_time.push_back(system.now() - t_before);
        iter_bytes.push_back(system.topology().totalPayloadBytes() -
                             b_before);
    }
    if (capturing && !captured)
        gps_warn("snapshot point ",
                 snapshot::to_string(config_.snapshotAt),
                 " was never reached; no snapshot written");

    // Extrapolate the simulated steady state to the full run length.
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
        const double remaining =
            static_cast<double>(eff_requested - 1);
        total_time += static_cast<Tick>(
            static_cast<double>(steady_sum) / steady_count * remaining);
        total_bytes += steady_bytes / steady_count * remaining;
    }

    result.totalTime = total_time;
    result.interconnectBytes = clampToUint64(total_bytes);
    result.totals = totals;

    // Aggregate cache/TLB rates across GPUs.
    std::uint64_t l2_hits = 0, l2_misses = 0;
    std::uint64_t tlb_hits = 0, tlb_misses = 0;
    for (std::size_t g = 0; g < system.numGpus(); ++g) {
        const GpuModel& gpu = system.gpu(static_cast<GpuId>(g));
        l2_hits += gpu.l2().hits();
        l2_misses += gpu.l2().misses();
        tlb_hits += gpu.tlb().hits();
        tlb_misses += gpu.tlb().misses();
    }
    result.l2HitRate =
        (l2_hits + l2_misses) == 0
            ? 0.0
            : static_cast<double>(l2_hits) /
                  static_cast<double>(l2_hits + l2_misses);
    result.tlbHitRate =
        (tlb_hits + tlb_misses) == 0
            ? 0.0
            : static_cast<double>(tlb_hits) /
                  static_cast<double>(tlb_hits + tlb_misses);

    result.stats = system.stats();
    paradigm->exportStats(result.stats);
    totals.exportStats(result.stats, "totals");
    result.wqHitRate = result.stats.get("gps.wq_hit_rate");
    result.gpsTlbHitRate = result.stats.get("gps.gps_tlb_hit_rate");

    if (faults_ != nullptr) {
        if (!faults_->done())
            gps_warn("fault plan has events beyond the simulated run; ",
                     "they were never injected");
        faults_->exportStats(result.stats);
        result.faultReport = faults_->report();
        result.hasFaultReport = true;
        system.installFaultEngine(nullptr);
        faults_ = nullptr;
    }

    if (check != nullptr) {
        result.check = std::make_shared<const CheckReport>(
            check->finalize(totals, result.stats));
        check_ = nullptr;
    }

    if (obs != nullptr) {
        result.obs = std::make_shared<const ObsReport>(
            obs->finalize(system.now()));
        obs_ = nullptr;
    }
    sinks = RunSinks{};
    return result;
}

RunResult
Runner::runByName(const std::string& workload_name)
{
    std::unique_ptr<Workload> workload = makeWorkload(workload_name);
    return run(*workload);
}

Tick
Runner::executePhase(MultiGpuSystem& system, Paradigm& paradigm,
                     Phase& phase, KernelCounters& totals)
{
    const std::size_t n = system.numGpus();
    Topology& topo = system.topology();
    const PageGeometry& geo = system.geometry();
    const Tick start = system.now();

    // Inject any faults that have come due before the phase begins; they
    // fire at the current tick so the phase timing below holds.
    if (faults_ != nullptr)
        faults_->pump(start, paradigm);

    // Intra-phase events (drains, migrations, link transfers) are
    // recorded against the phase's start tick.
    TimelineRecorder* rec = system.sinks().recorder;
    if (rec != nullptr)
        rec->advanceTo(start);

    // --- Pre-kernel stage: prefetch hints (UM+hints). Prefetches are
    // asynchronous, so their transfers overlap with the kernels (they
    // share the phase traffic matrix); only the API launch chain
    // serializes. ---
    TrafficMatrix traffic(n);
    KernelCounters stage_counters;
    if (check_ != nullptr)
        check_->beginPhase(phase.name);
    const Tick prefetch_time =
        paradigm.beginPhase(phase, stage_counters, traffic);

    // --- Concurrent kernels: chunked round-robin replay. Each turn
    // pulls one chunk through the batched stream API (one virtual call
    // per chunk, not per access) and caches the driver state of the
    // last-touched page so same-page runs skip state re-translation.
    // The access order, TLB behavior and counter semantics are
    // byte-identical to the scalar next() loop. ---
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
        gps_assert(kernel.gpu < n, "kernel on unknown GPU");
        gps_assert(kernel.stream != nullptr, "kernel without a stream");
        counters[kernel.gpu].computeInstrs += kernel.computeInstrs;
        counters[kernel.gpu].dramBytes += kernel.prechargedDramBytes;
        cursors.push_back({&kernel, false, ~PageNum(0), nullptr});
    }

    Driver& driver = system.driver();
    const std::size_t chunk =
        std::max<std::size_t>(config_.replayChunk, 1);
    // Cancellation granularity: once per round-robin turn over all
    // kernels (one chunk per GPU), so a cancel or deadline lands within
    // microseconds without touching the per-access hot loop.
    CancelToken* cancel = config_.cancel.get();
    std::vector<MemAccess> batch(chunk);
    std::size_t live = cursors.size();
    while (live > 0) {
        if (cancel != nullptr)
            cancel->throwIfCancelled();
        for (Cursor& cursor : cursors) {
            if (cursor.done)
                continue;
            const GpuId gpu = cursor.kernel->gpu;
            GpuModel& gpu_model = system.gpu(gpu);
            KernelCounters& c = counters[gpu];
            const std::size_t got =
                cursor.kernel->stream->nextBatch(batch.data(), chunk);
            if (got < chunk) {
                // nextBatch() under-fills only at end of stream.
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
                if (check_ != nullptr)
                    check_->onAccess(gpu, access, vpn);
            }
        }
    }

    // End of each grid: implicit release (GPS drains its write queues).
    for (Cursor& cursor : cursors) {
        paradigm.endKernel(cursor.kernel->gpu, counters[cursor.kernel->gpu],
                           traffic);
        if (check_ != nullptr)
            check_->onKernelEnd(cursor.kernel->gpu);
    }

    // Faulted paths: move flows off Down links, inflate Degraded ones.
    if (faults_ != nullptr)
        topo.routeAroundFaults(traffic, faults_->report());

    // --- Timing: per-GPU bottleneck, then the barrier max. ---
    // kernelTimeBreakdown().total is exactly kernelTime(); the
    // intermediate terms only leave this loop when profiling is on.
    ProfileCollector* prof = system.sinks().profile;
    CausalRecorder* causal = system.sinks().causal;
    const Tick launch = system.config().gpu.kernelLaunchOverhead;
    Tick slowest = 0;
    std::vector<Tick> gpu_time(n, 0);
    std::vector<CausalKernel> causal_kernels;
    for (const Cursor& cursor : cursors) {
        const GpuId gpu = cursor.kernel->gpu;
        const KernelTimeBreakdown bd =
            system.gpu(gpu).kernelTimeBreakdown(counters[gpu], topo);
        const Tick kernel_time = bd.total + launch;
        const Tick egress_time = topo.egressTime(traffic, gpu);
        const Tick ingress_time = topo.ingressTime(traffic, gpu);
        gpu_time[gpu] =
            std::max({kernel_time, egress_time, ingress_time});
        slowest = std::max(slowest, gpu_time[gpu]);
        if (causal != nullptr) {
            // Mirror every input of the timing formula; remote stalls
            // are kept as round-trip batch counts so the predictor can
            // re-derive them under a scaled link.
            const GpuConfig& gcfg = system.config().gpu;
            CausalKernel ck;
            ck.gpu = gpu;
            ck.tCompute = bd.tCompute;
            ck.tL2 = bd.tL2;
            ck.tDram = bd.tDram;
            ck.tWalks = bd.tWalks;
            if (counters[gpu].remoteLoads > 0)
                ck.batchesLoads = std::ceil(
                    static_cast<double>(counters[gpu].remoteLoads) /
                    static_cast<double>(gcfg.remoteLoadMlp));
            if (counters[gpu].remoteAtomics > 0)
                ck.batchesAtomics = std::ceil(
                    static_cast<double>(counters[gpu].remoteAtomics) /
                    static_cast<double>(gcfg.remoteAtomicMlp));
            ck.tFaults = bd.tFaults;
            ck.tShootdowns = bd.tShootdowns;
            ck.tWqStall = bd.tWqStall;
            ck.egressBytes = traffic.egress(gpu);
            ck.ingressBytes = traffic.ingress(gpu);
            ck.gpuTime = gpu_time[gpu];
            causal_kernels.push_back(ck);
        }
        if (prof != nullptr) {
            BottleneckProfile p;
            p.phase = phase.name;
            p.gpu = gpu;
            p.tCompute = bd.tCompute;
            p.tL2 = bd.tL2;
            p.tDram = bd.tDram;
            p.tWalks = bd.tWalks;
            p.tRemote = bd.tRemote;
            p.tFaults = bd.tFaults;
            p.tShootdowns = bd.tShootdowns;
            p.tWqStall = bd.tWqStall;
            p.tEgress = egress_time;
            p.tIngress = ingress_time;
            p.total = gpu_time[gpu];
            p.dramBytes = counters[gpu].dramBytes;
            p.egressBytes = traffic.egress(gpu);
            p.ingressBytes = traffic.ingress(gpu);
            p.peakDramBps = system.config().gpu.dramBandwidth;
            p.peakLinkBps =
                topo.spec().infinite ? 0.0 : topo.spec().bandwidth;
            prof->addKernel(std::move(p));
        }
    }
    topo.applyPhaseTraffic(traffic);

    // --- Barrier stage: bulk-synchronous broadcasts. ---
    TrafficMatrix barrier_traffic(n);
    const Tick barrier_overhead =
        paradigm.atBarrier(stage_counters, barrier_traffic);
    if (faults_ != nullptr)
        topo.routeAroundFaults(barrier_traffic, faults_->report());
    const Tick barrier_time =
        topo.applyPhaseTraffic(barrier_traffic) + barrier_overhead;

    const Tick phase_time = prefetch_time + slowest + barrier_time;

    if (causal != nullptr) {
        CausalPhase cp;
        cp.name = phase.name;
        cp.iter = causal->currentIteration();
        cp.start = start;
        cp.prefetchTime = prefetch_time;
        cp.barrierOverhead = barrier_overhead;
        cp.barrierTime = barrier_time;
        cp.phaseTime = phase_time;
        cp.kernels = std::move(causal_kernels);
        cp.barrierEgress.reserve(n);
        cp.barrierIngress.reserve(n);
        for (std::size_t g = 0; g < n; ++g) {
            cp.barrierEgress.push_back(
                barrier_traffic.egress(static_cast<GpuId>(g)));
            cp.barrierIngress.push_back(
                barrier_traffic.ingress(static_cast<GpuId>(g)));
        }
        causal->addPhase(std::move(cp));
    }

    // Poll the sampler at each kernel's completion in time order, then
    // at the phase end, so a period boundary crossed mid-phase is
    // sampled at the first completion at or after it.
    if (obs_ != nullptr) {
        std::vector<Tick> done;
        done.reserve(cursors.size());
        for (const Cursor& cursor : cursors)
            done.push_back(start + prefetch_time +
                           gpu_time[cursor.kernel->gpu]);
        std::sort(done.begin(), done.end());
        for (const Tick t : done)
            obs_->poll(t);
        obs_->poll(start + phase_time);
        if (causal != nullptr)
            causal->noteDep(CausalEdge::KernelToPhase, cursors.size());
    }
    system.advanceTo(start + phase_time);

    if (rec != nullptr) {
        if (prefetch_time > 0)
            rec->complete(TimelineRecorder::driverTid,
                          phase.name + ".prefetch", "prefetch", start,
                          prefetch_time);
        for (const Cursor& cursor : cursors) {
            const GpuId gpu = cursor.kernel->gpu;
            rec->complete(
                static_cast<int>(gpu), phase.name, "kernel",
                start + prefetch_time, gpu_time[gpu],
                {{"accesses",
                  static_cast<double>(counters[gpu].accesses)}});
        }
        if (barrier_time > 0)
            rec->complete(TimelineRecorder::systemTid,
                          phase.name + ".barrier", "barrier",
                          start + prefetch_time + slowest, barrier_time);
        rec->complete(TimelineRecorder::systemTid, phase.name, "phase",
                      start, phase_time);
    }

    for (const KernelCounters& c : counters)
        totals.merge(c);
    totals.merge(stage_counters);
    return phase_time;
}

RunResult
runWorkload(const std::string& workload_name, const RunConfig& config)
{
    Runner runner(config);
    return runner.runByName(workload_name);
}

} // namespace gps

#include "obs/observability.hh"

#include "common/json.hh"

namespace gps
{

Observability::Observability(const ObsConfig& config)
    : config_(config)
{
    if (config_.timeline)
        recorder_ =
            std::make_unique<TimelineRecorder>(config_.maxTimelineEvents);
    if (config_.profile)
        profile_ = std::make_unique<ProfileCollector>(
            config_.profilePagesPerBucket, config_.profileTopN);
    if (config_.causal)
        causal_ =
            std::make_unique<CausalRecorder>(config_.maxCausalPhases);
}

void
Observability::startSampling(Tick start)
{
    if (!config_.metrics || sampler_)
        return;
    sampler_ = std::make_unique<Sampler>(registry_, config_.sampleEvery);
    sampler_->start(start);
}

namespace
{

/**
 * Draw one Perfetto flow arrow per recorded phase, from the completion
 * of the phase-time-defining kernel (the runner's first-argmax winner)
 * to the phase boundary on the system track.
 */
void
emitCriticalFlows(const CausalReport& causal, TimelineRecorder& recorder)
{
    std::uint64_t flow_id = 0;
    for (const CausalPhase& phase : causal.phases) {
        ++flow_id;
        if (phase.kernels.empty())
            continue;
        const CausalKernel* winner = &phase.kernels.front();
        for (const CausalKernel& k : phase.kernels)
            if (k.gpuTime > winner->gpuTime)
                winner = &k;
        const Tick done =
            phase.start + phase.prefetchTime + winner->gpuTime;
        recorder.flow(static_cast<int>(winner->gpu), "critical",
                      "causal", done, flow_id, true);
        recorder.flow(TimelineRecorder::systemTid, "critical", "causal",
                      phase.start + phase.phaseTime, flow_id, false);
    }
}

} // namespace

ObsReport
Observability::finalize(Tick end)
{
    ObsReport report;
    if (causal_ && recorder_)
        emitCriticalFlows(causal_->data(), *recorder_);
    if (config_.metrics) {
        report.hasMetrics = true;
        if (sampler_ == nullptr)
            startSampling(end);
        sampler_->finish(end);
        report.finals = registry_.snapshot();
        report.sampleTicks = sampler_->sampleTicks();
        report.seriesColumns = sampler_->columns();
    }
    if (recorder_) {
        report.hasTimeline = true;
        report.timeline = recorder_->events();
        report.timelineTracks = recorder_->trackNames();
        report.timelineDropped = recorder_->dropped();
    }
    if (profile_) {
        report.hasProfile = true;
        report.profile = profile_->finalize();
    }
    if (causal_) {
        report.hasCausal = true;
        report.causal = causal_->finalize();
    }
    return report;
}

void
Observability::saveState(snapshot::Serializer& out) const
{
    out.section("obs");
    out.b(sampler_ != nullptr);
    if (sampler_) {
        out.u64(sampler_->sampleTicks().size());
        for (const Tick t : sampler_->sampleTicks())
            out.u64(t);
        out.u64(sampler_->columns().size());
        for (const auto& column : sampler_->columns()) {
            out.u64(column.size());
            for (const double v : column)
                out.f64(v);
        }
    }
    out.b(recorder_ != nullptr);
    if (recorder_)
        recorder_->saveState(out);
    out.b(causal_ != nullptr);
    if (causal_)
        causal_->saveState(out);
}

void
Observability::restoreState(snapshot::Deserializer& in)
{
    in.section("obs");
    if (in.b()) {
        if (!config_.metrics)
            throw snapshot::SnapshotError(
                "snapshot carries metric samples but metrics "
                "collection is off");
        std::vector<Tick> ticks;
        const std::uint64_t n_ticks = in.count(1ULL << 28);
        ticks.reserve(n_ticks);
        for (std::uint64_t i = 0; i < n_ticks; ++i) {
            ticks.push_back(in.u64());
            if (i > 0 && ticks[i] <= ticks[i - 1])
                throw snapshot::SnapshotError(
                    "corrupt snapshot: metric sample ticks do not "
                    "increase");
        }
        std::vector<std::vector<double>> columns;
        const std::uint64_t n_cols = in.count(1ULL << 20);
        columns.resize(n_cols);
        for (auto& column : columns) {
            const std::uint64_t n = in.count(1ULL << 28);
            if (n != n_ticks)
                throw snapshot::SnapshotError(
                    "corrupt snapshot: a metric series has " +
                    std::to_string(n) + " samples for " +
                    std::to_string(n_ticks) + " sample ticks");
            column.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i)
                column.push_back(in.f64());
        }
        if (n_cols != registry_.metrics().size())
            throw snapshot::SnapshotError(
                "snapshot metric series count " +
                std::to_string(n_cols) +
                " does not match the registry (" +
                std::to_string(registry_.metrics().size()) + ")");
        if (!sampler_)
            sampler_ =
                std::make_unique<Sampler>(registry_, config_.sampleEvery);
        sampler_->restore(std::move(ticks), std::move(columns));
    }
    if (in.b()) {
        if (!recorder_)
            throw snapshot::SnapshotError(
                "snapshot carries a timeline but timeline recording "
                "is off");
        recorder_->restoreState(in);
    }
    if (in.b()) {
        if (!causal_)
            throw snapshot::SnapshotError(
                "snapshot carries a causal graph but causal tracing "
                "is off");
        causal_->restoreState(in);
    }
}

std::string
metricsToJson(const ObsReport& report)
{
    JsonWriter w;
    w.beginObject();
    w.key("metrics").beginArray();
    for (const MetricValue& m : report.finals) {
        w.beginObject();
        w.field("name", m.name);
        w.field("kind", to_string(m.kind));
        w.field("unit", m.unit);
        w.field("value", m.value);
        w.endObject();
    }
    w.endArray();
    w.key("samples").beginObject();
    w.key("ticks").beginArray();
    for (const Tick t : report.sampleTicks)
        w.value(static_cast<std::uint64_t>(t));
    w.endArray();
    w.key("series").beginObject();
    for (std::size_t m = 0; m < report.seriesColumns.size(); ++m) {
        w.key(report.finals[m].name).beginArray();
        for (const double v : report.seriesColumns[m])
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.endObject();
    w.field("timeline_dropped", report.timelineDropped);
    w.endObject();
    return w.str();
}

std::string
timelineToJson(const ObsReport& report)
{
    return timelineToJson(report.timeline, report.timelineTracks,
                          report.timelineDropped);
}

std::string
profileToJson(const ObsReport& report)
{
    return profileToJson(report.profile);
}

} // namespace gps

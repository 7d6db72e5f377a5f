/**
 * @file
 * Host-time tracing from outside the library: a copy of the plain path
 * of Runner::run (no faults, collectors, checker or snapshots), built only
 * from public calls, that times each layer's calls.
 *
 * Layer spans are leaves: each timed call is charged to exactly one
 * layer, so a layer's self time is the sum of its calls. Row, iteration
 * and phase spans are containers kept in memory for the span dump; the
 * replay loop's stream and access time is added up per phase instead of
 * one span per chunk. The copy keeps its own tick count instead of
 * driving the event queue, so event-queue time is not part of it.
 */

#ifndef GPS_HOSTBENCH_MIRROR_HH
#define GPS_HOSTBENCH_MIRROR_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/runner.hh"
#include "workloads.hh"

namespace hostbench
{

/** The layers the traced copy charges time to. */
enum class Layer : std::size_t {
    SystemBuild,      ///< MultiGpuSystem constructor
    ParadigmSetup,    ///< makeParadigm, onSetupComplete
    AppsSetup,        ///< makeWorkload, setScale, setup, applyUmHints
    AppsIteration,    ///< Workload::iteration and freeing its phases
    TraceStream,      ///< AccessStream::nextBatch
    ReplayAccess,     ///< tlbAccess, Driver::state, Paradigm::access
    ParadigmBeginPhase,
    ParadigmEndKernel,
    ParadigmBarrier,
    ParadigmTracking, ///< beginIteration, trackingStart/Stop, histogram
    GpuKernelTime,    ///< kernelTimeBreakdown
    InterconnectPhaseTraffic, ///< TrafficMatrix, egress/ingress, apply
    ExportResult,     ///< stats, exportStats, resultToJson
    SystemTeardown,   ///< destroying the workload, paradigm and system
    Count
};

constexpr std::size_t numLayers = static_cast<std::size_t>(Layer::Count);

/** Dotted metric prefix of @p layer, e.g. "replay.access". */
const char* layerName(Layer layer);

/** One container span: a row, an iteration or a phase. */
struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = none
    const char* kind = "";
    std::string name;
    double start = 0.0; ///< seconds since the tracer was made
    double end = 0.0;
    double streamSeconds = 0.0; ///< phase spans: trace.stream total
    double accessSeconds = 0.0; ///< phase spans: replay.access total
};

/** Per-layer time totals plus the container spans. */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    Tracer() : origin_(Clock::now()) {}

    /** Open a container span; @return its id. */
    std::uint32_t open(const char* kind, std::string name,
                       std::uint32_t parent);
    void close(std::uint32_t id);
    Span& span(std::uint32_t id) { return spans_.at(id - 1); }

    void
    add(Layer layer, Clock::duration d)
    {
        layers_[static_cast<std::size_t>(layer)] += d;
    }

    /** Run @p fn, charging its time to @p layer. */
    template <typename Fn>
    decltype(auto)
    time(Layer layer, Fn&& fn)
    {
        struct Charge
        {
            Tracer& tracer;
            Layer layer;
            Clock::time_point t0 = Clock::now();
            ~Charge() { tracer.add(layer, Clock::now() - t0); }
        } charge{*this, layer};
        return fn();
    }

    double seconds(Layer layer) const;

    /** Every span and layer total as one JSON document. */
    std::string toJson(const std::string& workload,
                       std::uint64_t seed) const;

  private:
    double since(Clock::time_point t) const;

    Clock::time_point origin_;
    std::array<Clock::duration, numLayers> layers_{};
    std::vector<Span> spans_;
};

/** The objects Runner::run builds before its first iteration. */
struct Rig
{
    std::unique_ptr<gps::MultiGpuSystem> system;
    std::unique_ptr<gps::Paradigm> paradigm;
    std::unique_ptr<gps::Workload> workload;
    std::unique_ptr<gps::WorkloadContext> ctx;
};

/**
 * Runner::run's set-up sequence: the system, the paradigm, the
 * workload's setup (+ UM hints), then onSetupComplete. Charges each step
 * to its layer when @p tracer is given.
 */
Rig buildRig(const Row& row, Tracer* tracer);

/** Test hooks that break the copy on purpose. */
struct MirrorOptions
{
    /** Skip Paradigm::endKernel (the GPS write-queue drain). */
    bool skipEndKernel = false;
};

/**
 * Run @p row through the traced copy. Its totalTime,
 * interconnectBytes and access count must equal Runner::run's.
 */
gps::RunResult tracedRun(const Row& row, Tracer& tracer,
                         const MirrorOptions& options = {});

} // namespace hostbench

#endif // GPS_HOSTBENCH_MIRROR_HH

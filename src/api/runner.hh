/**
 * @file
 * Runner: executes a workload under a paradigm on a fresh system.
 *
 * Replay methodology: each phase's per-GPU kernels are replayed
 * concurrently by interleaving their access streams round-robin in fixed
 * chunks (so UM page thrashing between GPUs emerges); the analytic GPU
 * timing model converts each kernel's event counts into a duration; the
 * phase lasts prefetch + slowest GPU + barrier, and the system clock
 * advances by that sum at the barrier.
 *
 * Iteration methodology: iteration 0 is simulated in full (it carries the
 * GPS profiling phase and the UM first-touch transient), followed by a
 * few steady-state iterations. Time and interconnect traffic are then
 * extrapolated to the workload's full iteration count, exactly as the
 * paper's full-length runs amortize one profiling iteration over
 * hundreds of execution iterations.
 */

#ifndef GPS_API_RUNNER_HH
#define GPS_API_RUNNER_HH

#include <memory>

#include "api/metrics.hh"
#include "api/system.hh"
#include "apps/workload.hh"
#include "check/check_config.hh"
#include "common/cancel.hh"
#include "fault/fault_plan.hh"
#include "obs/observability.hh"
#include "paradigm/paradigm.hh"
#include "snapshot/snapshot.hh"

namespace gps
{

class FaultEngine;
class CheckContext;

/** Everything needed to run one (workload, paradigm, system) triple. */
struct RunConfig
{
    SystemConfig system;
    ParadigmKind paradigm = ParadigmKind::Gps;

    /** Problem-size scale passed to the workload; see validScale(). */
    double scale = 1.0;

    /** Steady-state iterations simulated after the profiling iteration. */
    std::size_t steadyIterations = 4;

    /** Accesses replayed per GPU per round-robin turn. */
    std::size_t replayChunk = 128;

    /**
     * Override the workload's effective (extrapolated) iteration count;
     * 0 keeps the workload default.
     */
    std::size_t effectiveIterationsOverride = 0;

    /**
     * Faults to inject during the run. An empty plan means no fault
     * engine is constructed at all (zero overhead when idle).
     */
    FaultPlan faultPlan;

    /**
     * What to observe during the run. Disabled by default: no registry,
     * sampler or recorder is constructed and results are byte-identical
     * to a build without the observability layer.
     */
    ObsConfig obs;

    /**
     * Differential validation against the reference model. Disabled by
     * default: no checker is constructed and results are byte-identical
     * to a build without the check subsystem.
     */
    CheckConfig check;

    /**
     * Cooperative cancellation/deadline token, shared with whoever may
     * cancel the run (the serve-mode scheduler). Polled between replay
     * chunks; a fired token unwinds the run with CancelledError. Null
     * (the default) costs nothing and is excluded from configKey — a
     * token cannot change a completed run's outcome.
     */
    std::shared_ptr<CancelToken> cancel;

    // ------------------------------------------------------------------
    // Checkpoint/restore (src/snapshot/). Like `cancel`, every field
    // below is excluded from configKey: capturing a snapshot or resuming
    // from one cannot change a completed run's outcome — restored runs
    // are verified byte-identical to uninterrupted ones.
    // ------------------------------------------------------------------

    /** When to capture a snapshot; inactive by default. */
    snapshot::SnapshotPoint snapshotAt;

    /** File to write the captured snapshot to ("" = no file). */
    std::string snapshotOut;

    /** In-memory sink for the snapshot bytes (warm-sweep forking). */
    std::shared_ptr<std::string> snapshotSink;

    /** Warm-key echo stored in the snapshot's meta section. */
    std::string snapshotKey;

    /** Snapshot file to resume from ("" = cold start). */
    std::string restoreFrom;

    /** In-memory snapshot to resume from (wins over restoreFrom). */
    std::shared_ptr<const std::string> restoreBlob;

    /**
     * Test hook: perturb one page's driver state after the restore so
     * the restore verification must reject the snapshot.
     */
    bool restoreMutateForTest = false;
};

/**
 * Whether @p scale can size a workload: in (0, 2^32]. Every app casts
 * (base size x scale) to a 64-bit integer, which is undefined for NaN,
 * infinity and products past 2^64; base sizes are at most 2^18.
 */
inline bool
validScale(double scale)
{
    return scale > 0.0 && scale <= 0x1p32;
}

/**
 * Why @p system is outside what the simulator builds, or "" when it is
 * inside: 1 to maxGpus GPUs, a power-of-two page from 4 KiB to 2 MiB
 * (the sizes the page machinery covers) and at least one remote write
 * queue entry. Past these bounds a component's internal assert would
 * abort the whole process instead of failing the one run.
 */
std::string systemConfigError(const SystemConfig& system);

/** Executes workloads and produces RunResults. */
class Runner
{
  public:
    explicit Runner(RunConfig config)
        : config_(std::move(config))
    {}

    /**
     * Run @p workload on a freshly constructed system.
     * @param workload a fresh instance (setup state is per-run)
     */
    RunResult run(Workload& workload);

    /** Convenience: construct the named workload and run it. */
    RunResult runByName(const std::string& workload_name);

    const RunConfig& config() const { return config_; }

  private:
    /** @return the phase's end-to-end duration. */
    Tick executePhase(MultiGpuSystem& system, Paradigm& paradigm,
                      Phase& phase, KernelCounters& totals);

    RunConfig config_;

    /** Active fault engine during run(); nullptr otherwise. */
    FaultEngine* faults_ = nullptr;

    /** Active observability bundle during run(); nullptr otherwise. */
    Observability* obs_ = nullptr;

    /** Active differential checker during run(); nullptr otherwise. */
    CheckContext* check_ = nullptr;
};

/** One-call helper used throughout the benches. */
RunResult runWorkload(const std::string& workload_name,
                      const RunConfig& config);

} // namespace gps

#endif // GPS_API_RUNNER_HH

/**
 * @file
 * Parallel sweep runner: fans independent (workload, RunConfig) runs
 * across a pool of worker threads.
 *
 * Every simulation run is self-contained — Runner::run constructs its
 * own MultiGpuSystem, paradigm and workload instance and shares no
 * mutable state with other runs — so config sweeps (paradigm grids,
 * GPU-count scans, sensitivity studies) are embarrassingly parallel.
 * runSweep() executes the job list on up to @p workers threads and
 * returns the outcomes in input order, so callers can print results
 * serially and the output is byte-identical to a one-worker run.
 */

#ifndef GPS_API_SWEEP_HH
#define GPS_API_SWEEP_HH

#include <exception>
#include <string>
#include <vector>

#include "api/runner.hh"

namespace gps
{

/** One independent simulation in a sweep. */
struct SweepJob
{
    std::string workload;
    RunConfig config;

    /** Free-form display label carried through to the outcome. */
    std::string label;
};

/** Result of one sweep job, in the same position as its input. */
struct SweepOutcome
{
    RunResult result;

    /** Host wall-clock time of this run, seconds. */
    double wallSeconds = 0.0;

    /** Label copied from the job. */
    std::string label;

    /** Set when the run threw; result is default-constructed then. */
    std::exception_ptr error;

    /**
     * Structured rendering of @ref error, so failed grid points stay
     * diagnosable after the exception_ptr can no longer be rethrown
     * (JSON exports, store entries, client responses): the exception's
     * demangled type name and its what() message.
     */
    std::string errorType;
    std::string errorMessage;

    bool ok() const { return error == nullptr; }

    /** "Type: message" one-liner for logs and reports; "" when ok. */
    std::string errorText() const;
};

/**
 * Render any in-flight exception as (type, message). Exposed for the
 * serve layer, which reports request failures the same way sweep
 * outcomes do.
 */
void describeException(const std::exception_ptr& error,
                       std::string& type, std::string& message);

/** Execute one job, capturing wall time and any thrown error. */
SweepOutcome runSweepJob(const SweepJob& job);

/** Worker count to use when the user asked for "all cores" (>= 1). */
std::size_t defaultSweepJobs();

/**
 * Run every job (even after failures — outcomes carry per-job errors)
 * on up to @p workers threads.
 * @return outcomes in input order, independent of completion order
 */
std::vector<SweepOutcome> runSweep(const std::vector<SweepJob>& jobs,
                                   std::size_t workers);

/**
 * Deterministic serialization of every field that can change a run's
 * outcome. Two (workload, config) pairs with equal keys produce equal
 * RunResults; used as the memoization key by the bench harness.
 */
std::string configKey(const std::string& workload,
                      const RunConfig& config);

/**
 * Warm-start grouping key: configKey() with the post-profile policy
 * knobs normalized away. Two jobs with equal warm keys are in
 * byte-identical simulation states at the profile boundary (end of
 * iteration 0, before cuGPSTrackingStop): gps.autoUnsubscribe is
 * consumed solely by trackingStop, and steadyIterations /
 * effectiveIterationsOverride only control how many further iterations
 * are simulated and extrapolated.
 */
std::string warmKey(const std::string& workload,
                    const RunConfig& config);

/** What the warm-started sweep did; counters accumulate across calls. */
struct WarmSweepStats
{
    std::size_t groups = 0;        ///< multi-member warm groups
    std::size_t leaders = 0;       ///< cold leader runs that captured
    std::size_t followers = 0;     ///< runs forked from a warm snapshot
    std::size_t coldFallbacks = 0; ///< followers run cold (leader failed)

    /** Wall seconds split by role, for the fork-speedup aggregate. */
    double leaderWallSeconds = 0.0;
    double followerWallSeconds = 0.0;

    /**
     * Most leader snapshots held for followers at once (the largest
     * over calls); at most the worker count.
     */
    std::size_t peakSnapshots = 0;

    /** Mean leader wall over mean follower wall (0 when undefined). */
    double forkSpeedup() const;
};

/**
 * runSweep() with warm-started forking: jobs sharing a warmKey() are
 * split into one cold leader — run with an in-memory profile-point
 * snapshot capture — and followers that restore the leader's snapshot
 * and only simulate from the profile boundary on. Results are
 * byte-identical to runSweep() (every restore is verified against the
 * captured functional summary); only wall time changes. Jobs that are
 * ineligible (check/observability enabled, or already carrying
 * snapshot/restore requests) and singleton groups run cold, and a
 * failed leader demotes its followers to cold runs.
 *
 * Leaders and cold jobs start in input order; a returning leader's
 * followers run before any new leader or cold job starts, and the
 * snapshot is freed when its last follower returns, so at most one
 * snapshot per worker is alive at once.
 * @return outcomes in input order, independent of completion order
 */
std::vector<SweepOutcome> runSweepWarm(const std::vector<SweepJob>& jobs,
                                       std::size_t workers,
                                       WarmSweepStats* stats = nullptr);

} // namespace gps

#endif // GPS_API_SWEEP_HH

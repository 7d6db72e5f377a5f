/**
 * @file
 * SweepService: the serve-mode scheduler.
 *
 * Many concurrent clients submit (workload, RunConfig) jobs; the
 * service runs them on a bounded worker pool with:
 *
 *  - admission control: a bounded pending queue; submissions past the
 *    bound are rejected immediately with a Retry-After-style backoff
 *    hint instead of growing without limit,
 *  - fair per-client queueing: pending jobs are popped round-robin
 *    across clients, so one client's 1000-point grid cannot starve
 *    another client's single request,
 *  - per-request deadlines: a job whose deadline passes while queued
 *    is never started; one that expires mid-run is cooperatively
 *    cancelled through its CancelToken,
 *  - cooperative cancellation: clients can cancel pending jobs
 *    (removed from the queue) and running jobs (token fired, the
 *    Runner unwinds between replay chunks),
 *  - a content-addressed run store: finished results are published to
 *    disk and repeated configKeys are served from it byte-identically
 *    in microseconds,
 *  - graceful drain: stop admitting, cancel or finish the backlog,
 *    finish in-flight runs, flush the store.
 *
 * Completion is callback-based: every submitted job produces exactly
 * one response, delivered on a worker thread (or synchronously on the
 * submitting thread for rejections). Callbacks must be thread-safe.
 */

#ifndef GPS_SERVE_SERVICE_HH
#define GPS_SERVE_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/sweep.hh"
#include "obs/histogram.hh"
#include "serve/run_store.hh"

namespace gps
{

/**
 * Longest deadline a job or the service default may carry (about 31
 * years): enqueue time plus the deadline then stays inside the steady
 * clock's signed 64-bit nanosecond range.
 */
constexpr std::uint64_t maxDeadlineMs = 1'000'000'000'000;

class MetricRegistry;

/** Scheduler knobs (see gpsim --serve). */
struct ServeConfig
{
    /** Worker threads executing runs. */
    std::size_t workers = 2;

    /** Max pending jobs across all clients before load shedding. */
    std::size_t maxQueue = 64;

    /**
     * Deadline applied to jobs that do not carry one; 0 = none. At most
     * maxDeadlineMs, like a job's own.
     */
    std::uint64_t defaultDeadlineMs = 0;

    /** Run store directory; empty disables the store. */
    std::string storeDir;
};

/** Terminal state of one submitted job. */
enum class JobStatus : std::uint8_t {
    Ok,
    Error,           ///< the run threw or diverged from the reference
    Cancelled,       ///< client cancel or shutdown drain
    DeadlineExpired, ///< deadline passed while queued or mid-run
    Rejected,        ///< load shed: queue full or draining
};

const char* to_string(JobStatus status);

/** One job submitted to the service. */
struct ServeJob
{
    /** Fairness domain; one queue per distinct client id. */
    std::string clientId;

    /** Client-scoped request id, echoed in the response. */
    std::uint64_t id = 0;

    /** Position within a batch request, echoed in the response. */
    std::uint64_t index = 0;

    std::string workload;
    RunConfig config;

    /** Per-request deadline; 0 falls back to the service default. */
    std::uint64_t deadlineMs = 0;

    /** Skip the store lookup (the result is still published). */
    bool noCache = false;
};

/** The single response every submitted job produces. */
struct ServeResponse
{
    std::string clientId;
    std::uint64_t id = 0;
    std::uint64_t index = 0;
    JobStatus status = JobStatus::Ok;

    /** Serialized RunResult JSON; set only when status == Ok. */
    std::string payload;

    /** Structured error (status Error/Cancelled/DeadlineExpired/...). */
    std::string errorType;
    std::string errorMessage;

    /** The payload came from the run store, byte-identical to fresh. */
    bool storeHit = false;

    /** Queue wait and execution wall time, milliseconds. */
    double waitMs = 0.0;
    double runMs = 0.0;

    /** Backoff hint for Rejected responses, milliseconds. */
    std::uint64_t retryAfterMs = 0;
};

/** Aggregate counters for the stats endpoint. */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0; ///< status Ok
    std::uint64_t failed = 0;    ///< status Error
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;
    std::uint64_t rejected = 0;
    std::uint64_t storeHits = 0;

    /** Timeline events dropped past the cap, summed over executed runs. */
    std::uint64_t timelineDropped = 0;

    std::size_t queued = 0;  ///< pending right now
    std::size_t running = 0; ///< in flight right now
    bool draining = false;
    RunStoreStats store; ///< zeros when the store is disabled

    /** Request-handling latency per protocol verb, microseconds. */
    std::map<std::string, LogHistogram> verbLatency;
};

class SweepService
{
  public:
    using Callback = std::function<void(const ServeResponse&)>;

    explicit SweepService(ServeConfig config);

    /** Drains (cancelling the backlog) and joins the workers. */
    ~SweepService();

    SweepService(const SweepService&) = delete;
    SweepService& operator=(const SweepService&) = delete;

    /**
     * Submit one job. Exactly one response reaches @p done: from a
     * worker on completion, or synchronously (status Rejected) when
     * the service is draining or the queue is full.
     */
    void submit(ServeJob job, Callback done);

    /**
     * Cancel every pending or running job with @p client's request
     * @p id. Pending jobs respond Cancelled immediately; running jobs
     * respond once their Runner observes the token.
     * @return number of jobs the cancel reached
     */
    std::size_t cancel(const std::string& clientId, std::uint64_t id);

    /**
     * Stop admitting new jobs. With @p cancelPending, the backlog is
     * answered Cancelled without running (signal-driven shutdown);
     * without it, queued jobs still execute (stdio EOF: finish all
     * accepted work, then exit). In-flight runs always finish.
     */
    void beginDrain(bool cancelPending);

    /** Block until nothing is queued or running. */
    void awaitIdle();

    /** beginDrain + awaitIdle + flush store + join workers. */
    void shutdown(bool cancelPending);

    ServiceStats stats() const;

    /** Protocol hook: record one verb's handling latency. */
    void recordVerbLatency(const std::string& verb, std::uint64_t micros);

    /**
     * Register the service's aggregate counters on @p reg, frozen at
     * the current stats() snapshot. Build a fresh registry per metrics
     * request; the getters do not track later activity.
     */
    void registerMetrics(MetricRegistry& reg) const;

    /** Null when the store is disabled. */
    RunStore* store() { return store_.get(); }

    const ServeConfig& config() const { return config_; }

  private:
    struct Pending
    {
        ServeJob job;
        Callback done;
        std::chrono::steady_clock::time_point enqueued;
        std::chrono::steady_clock::time_point deadline; ///< max() = none
        std::shared_ptr<CancelToken> token;
    };

    void workerLoop();

    /** Pop the next job round-robin across client queues. mu_ held. */
    bool popFair(Pending& out);

    /** Backoff hint from queue depth and observed run time. mu_ held. */
    std::uint64_t retryAfterHintLocked() const;

    void finish(const Pending& p, ServeResponse&& response);

    ServeConfig config_;
    std::unique_ptr<RunStore> store_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< workers wait for jobs
    std::condition_variable idleCv_; ///< awaitIdle/drain wait here

    std::map<std::string, std::deque<Pending>> queues_;
    std::vector<std::string> rrOrder_; ///< client round-robin order
    std::size_t rrCursor_ = 0;
    std::size_t queuedTotal_ = 0;
    std::size_t runningTotal_ = 0;

    /** Tokens of in-flight jobs, for cancellation by (client, id). */
    struct RunningKey
    {
        std::string clientId;
        std::uint64_t id;
        std::uint64_t seq; ///< uniquifier (batch jobs share an id)
        bool operator<(const RunningKey& o) const
        {
            if (clientId != o.clientId)
                return clientId < o.clientId;
            if (id != o.id)
                return id < o.id;
            return seq < o.seq;
        }
    };
    std::map<RunningKey, std::shared_ptr<CancelToken>> running_;
    std::uint64_t seq_ = 0;

    double avgRunMs_ = 100.0; ///< EWMA of executed-run wall time
    bool draining_ = false;
    bool stopping_ = false;

    ServiceStats stats_;

    std::vector<std::thread> workers_;
};

} // namespace gps

#endif // GPS_SERVE_SERVICE_HH

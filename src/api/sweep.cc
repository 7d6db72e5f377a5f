#include "api/sweep.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <typeinfo>

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

#include "common/cancel.hh"

namespace gps
{

std::size_t
defaultSweepJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace
{

/** Demangle a typeid name where the ABI supports it. */
std::string
demangle(const char* mangled)
{
#if defined(__GNUG__)
    int status = 0;
    char* name = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
    if (status == 0 && name != nullptr) {
        std::string out(name);
        std::free(name);
        return out;
    }
#endif
    return mangled;
}

} // namespace

void
describeException(const std::exception_ptr& error, std::string& type,
                  std::string& message)
{
    type.clear();
    message.clear();
    if (error == nullptr)
        return;
    try {
        std::rethrow_exception(error);
    } catch (const CancelledError& e) {
        type = e.reason() == CancelReason::DeadlineExpired
                   ? "DeadlineExpired"
                   : "Cancelled";
        message = e.what();
    } catch (const std::exception& e) {
        type = demangle(typeid(e).name());
        // Strip the namespace: "gps::FatalError" -> "FatalError".
        const std::size_t colons = type.rfind("::");
        if (colons != std::string::npos)
            type = type.substr(colons + 2);
        message = e.what();
    } catch (...) {
        type = "unknown";
        message = "non-std::exception thrown";
    }
}

std::string
SweepOutcome::errorText() const
{
    if (ok())
        return "";
    return errorType.empty() ? errorMessage
                             : errorType + ": " + errorMessage;
}

SweepOutcome
runSweepJob(const SweepJob& job)
{
    SweepOutcome out;
    out.label = job.label;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        out.result = runWorkload(job.workload, job.config);
    } catch (...) {
        out.error = std::current_exception();
        describeException(out.error, out.errorType, out.errorMessage);
    }
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return out;
}

namespace
{

constexpr std::size_t noGroup = static_cast<std::size_t>(-1);

/** Jobs sharing a warm key: the first is the leader. */
struct WarmGroup
{
    std::string key;
    std::size_t leader = 0;
    std::vector<std::size_t> followers; ///< in input order

    /**
     * The leader's capture. Reset when the leader fails or captures
     * nothing (its followers then run cold) and when the last follower
     * returns.
     */
    std::shared_ptr<std::string> snapshot;

    std::size_t pending = 0; ///< followers that have not returned
};

/**
 * The one sweep scheduler, behind runSweep and runSweepWarm. Leaders
 * and cold jobs start in input order; a returning leader makes its
 * followers ready, and a free worker takes a ready follower before it
 * starts anything new. So when a leader starts, no follower is
 * waiting and every live snapshot has a job of its group on another
 * worker: at most one snapshot per worker is alive at once. Outcomes
 * land at their job's index whichever worker ran them.
 */
class SweepQueue
{
  public:
    /**
     * @param group_of each job's index in @p groups, or noGroup
     * @param stats gains the follower counts, the wall split and
     *        peakSnapshots
     */
    SweepQueue(const std::vector<SweepJob>& jobs,
               std::vector<WarmGroup> groups,
               std::vector<std::size_t> group_of, WarmSweepStats& stats)
        : jobs_(jobs), groupOf_(std::move(group_of)),
          groups_(std::move(groups)), out_(jobs.size()), stats_(stats)
    {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            if (groupOf_[i] == noGroup || isLeader(i))
                starts_.push_back(i);
    }

    SweepQueue(const SweepQueue&) = delete;
    SweepQueue& operator=(const SweepQueue&) = delete;

    std::vector<SweepOutcome>
    run(std::size_t workers)
    {
        if (jobs_.empty())
            return {};
        workers = std::clamp<std::size_t>(workers, 1, jobs_.size());
        if (workers == 1) {
            work();
        } else {
            std::vector<std::jthread> pool;
            pool.reserve(workers);
            for (std::size_t w = 0; w < workers; ++w)
                pool.emplace_back([this] { work(); });
        }
        return std::move(out_);
    }

  private:
    bool
    isLeader(std::size_t i) const
    {
        return groupOf_[i] != noGroup && groups_[groupOf_[i]].leader == i;
    }

    void
    work()
    {
        std::unique_lock<std::mutex> lock(mu_);
        std::size_t i = 0;
        while (take(lock, i)) {
            std::shared_ptr<std::string> blob =
                groupOf_[i] == noGroup ? nullptr
                                       : groups_[groupOf_[i]].snapshot;
            lock.unlock();
            SweepOutcome outcome = runJob(i, std::move(blob));
            lock.lock();
            finish(i, std::move(outcome));
        }
    }

    /** Claim the next job into @p i; false when none is left. */
    bool
    take(std::unique_lock<std::mutex>& lock, std::size_t& i)
    {
        for (;;) {
            if (!ready_.empty()) {
                i = ready_.front();
                ready_.pop_front();
                return true;
            }
            if (nextStart_ < starts_.size()) {
                i = starts_[nextStart_++];
                if (isLeader(i))
                    ++leadersRunning_;
                return true;
            }
            // Only a running leader can make more work ready.
            if (leadersRunning_ == 0)
                return false;
            leaderReturned_.wait(lock, [this] {
                return !ready_.empty() || leadersRunning_ == 0;
            });
        }
    }

    /**
     * Run job @p i: a leader captures into @p blob, a follower
     * restores from it, and a job without one runs cold. The job copy
     * and its blob reference die before this returns, so the group
     * holds the last one.
     */
    SweepOutcome
    runJob(std::size_t i, std::shared_ptr<std::string> blob) const
    {
        if (blob == nullptr)
            return runSweepJob(jobs_[i]);
        SweepJob job = jobs_[i];
        if (isLeader(i)) {
            job.config.snapshotAt = {snapshot::AtKind::Profile, 0};
            job.config.snapshotSink = std::move(blob);
            job.config.snapshotKey = groups_[groupOf_[i]].key;
        } else {
            job.config.restoreBlob = std::move(blob);
        }
        return runSweepJob(job);
    }

    void
    finish(std::size_t i, SweepOutcome outcome)
    {
        out_[i] = std::move(outcome);
        if (groupOf_[i] == noGroup)
            return;
        WarmGroup& group = groups_[groupOf_[i]];
        if (group.leader == i) {
            stats_.leaderWallSeconds += out_[i].wallSeconds;
            if (out_[i].ok() && !group.snapshot->empty()) {
                ++liveSnapshots_;
                stats_.peakSnapshots =
                    std::max(stats_.peakSnapshots, liveSnapshots_);
            } else {
                group.snapshot.reset();
            }
            ready_.insert(ready_.end(), group.followers.begin(),
                          group.followers.end());
            --leadersRunning_;
            leaderReturned_.notify_all();
            return;
        }
        if (group.snapshot == nullptr) {
            ++stats_.coldFallbacks;
            return;
        }
        ++stats_.followers;
        stats_.followerWallSeconds += out_[i].wallSeconds;
        if (--group.pending == 0) {
            group.snapshot.reset();
            --liveSnapshots_;
        }
    }

    const std::vector<SweepJob>& jobs_;
    const std::vector<std::size_t> groupOf_;
    std::vector<std::size_t> starts_; ///< leaders and cold jobs, in order

    std::mutex mu_; ///< guards what follows, bar each group's fixed key,
                    ///< leader and followers
    std::condition_variable leaderReturned_;
    std::vector<WarmGroup> groups_;
    std::vector<SweepOutcome> out_;
    std::deque<std::size_t> ready_; ///< followers whose leader returned
    std::size_t nextStart_ = 0;
    std::size_t leadersRunning_ = 0;
    std::size_t liveSnapshots_ = 0;
    WarmSweepStats& stats_;
};

} // namespace

std::vector<SweepOutcome>
runSweep(const std::vector<SweepJob>& jobs, std::size_t workers)
{
    WarmSweepStats unused;
    return SweepQueue(jobs, {},
                      std::vector<std::size_t>(jobs.size(), noGroup),
                      unused)
        .run(workers);
}

namespace
{

void
appendDouble(std::ostringstream& os, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf << '|';
}

} // namespace

std::string
configKey(const std::string& workload, const RunConfig& config)
{
    std::ostringstream os;
    os << workload << '|';

    const SystemConfig& sys = config.system;
    os << sys.numGpus << '|' << static_cast<int>(sys.interconnect) << '|'
       << sys.numNodes << '|' << static_cast<int>(sys.interNode) << '|'
       << sys.pageBytes << '|';
    appendDouble(os, sys.linkBandwidthScale);

    const GpuConfig& gpu = sys.gpu;
    os << gpu.cacheLineBytes << '|' << gpu.globalMemoryBytes << '|'
       << gpu.numSms << '|' << gpu.cudaCoresPerSm << '|'
       << gpu.l2CacheBytes << '|' << gpu.warpSize << '|'
       << gpu.maxThreadsPerSm << '|' << gpu.maxThreadsPerCta << '|'
       << gpu.virtualAddressBits << '|' << gpu.physicalAddressBits << '|'
       << gpu.l2Ways << '|' << gpu.tlbEntries << '|' << gpu.tlbWays << '|'
       << gpu.pageWalkLatency << '|' << gpu.smCoalescerDepth << '|'
       << gpu.remoteLoadMlp << '|' << gpu.remoteAtomicMlp << '|'
       << gpu.kernelLaunchOverhead << '|';
    appendDouble(os, gpu.coreClockGHz);
    appendDouble(os, gpu.dramBandwidth);
    appendDouble(os, gpu.l2Bandwidth);
    appendDouble(os, gpu.issueEfficiency);

    const GpsConfig& gcfg = sys.gps;
    os << gcfg.wqEntries << '|' << gcfg.wqEntryBytes << '|'
       << gcfg.gpsTlbEntries << '|' << gcfg.gpsTlbWays << '|'
       << gcfg.gpsWalkLatency << '|' << gcfg.saturatedWatermarkDivisor
       << '|' << gcfg.wqStallPenalty << '|' << gcfg.resubscribeAfter
       << '|' << gcfg.autoUnsubscribe << '|' << gcfg.smCoalescerEnabled
       << '|' << gcfg.virtuallyAddressedWq << '|'
       << gcfg.hierarchicalSubscription << '|';
    appendDouble(os, gcfg.wqDrainScale);

    os << static_cast<int>(config.paradigm) << '|';
    appendDouble(os, config.scale);
    os << config.steadyIterations << '|' << config.replayChunk << '|'
       << config.effectiveIterationsOverride << '|';

    os << config.faultPlan.seed << '|' << config.faultPlan.pcieFallback
       << '|';
    for (const FaultEvent& ev : config.faultPlan.events)
        os << ev.time << ':' << ev.describe() << '|';

    os << config.check.enabled << '|' << config.check.everyAccesses
       << '|' << config.check.testMutation << '|';
    return os.str();
}

std::string
warmKey(const std::string& workload, const RunConfig& config)
{
    RunConfig norm = config;
    norm.system.gps.autoUnsubscribe = false;
    norm.steadyIterations = 0;
    norm.effectiveIterationsOverride = 0;
    return configKey(workload, norm);
}

double
WarmSweepStats::forkSpeedup() const
{
    if (leaders == 0 || followers == 0 || followerWallSeconds <= 0.0)
        return 0.0;
    const double leader_mean =
        leaderWallSeconds / static_cast<double>(leaders);
    const double follower_mean =
        followerWallSeconds / static_cast<double>(followers);
    return follower_mean > 0.0 ? leader_mean / follower_mean : 0.0;
}

namespace
{

/** Whether a job may participate in warm-start forking at all. */
bool
warmEligible(const SweepJob& job)
{
    const RunConfig& c = job.config;
    return !c.check.enabled && !c.obs.enabled() &&
           !c.snapshotAt.active() && c.snapshotOut.empty() &&
           c.snapshotSink == nullptr && c.restoreFrom.empty() &&
           c.restoreBlob == nullptr && !c.restoreMutateForTest;
}

} // namespace

std::vector<SweepOutcome>
runSweepWarm(const std::vector<SweepJob>& jobs, std::size_t workers,
             WarmSweepStats* stats)
{
    // Group eligible jobs by warm key, preserving input order inside
    // each group (the first member becomes the leader).
    std::map<std::string, std::vector<std::size_t>> by_key;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (warmEligible(jobs[i]))
            by_key[warmKey(jobs[i].workload, jobs[i].config)].push_back(i);

    std::vector<WarmGroup> groups;
    std::vector<std::size_t> group_of(jobs.size(), noGroup);
    for (const auto& [key, members] : by_key) {
        if (members.size() < 2)
            continue;
        for (const std::size_t m : members)
            group_of[m] = groups.size();
        WarmGroup& group = groups.emplace_back();
        group.key = key;
        group.leader = members.front();
        group.followers.assign(members.begin() + 1, members.end());
        group.pending = group.followers.size();
        group.snapshot = std::make_shared<std::string>();
    }

    WarmSweepStats unused;
    WarmSweepStats& counters = stats != nullptr ? *stats : unused;
    counters.groups += groups.size();
    counters.leaders += groups.size();
    return SweepQueue(jobs, std::move(groups), std::move(group_of),
                      counters)
        .run(workers);
}

} // namespace gps

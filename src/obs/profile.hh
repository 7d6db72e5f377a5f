/**
 * @file
 * Bottleneck-attribution profiler: per-kernel time breakdowns, hot-page
 * heat maps and latency histograms.
 *
 * The analytic timing model already computes per-resource service
 * demands (compute, L2, DRAM, page walks, remote loads, link
 * egress/ingress, serialized stalls) for every kernel — and then
 * discards everything but the max. When profiling is enabled, the
 * runner captures those terms as one BottleneckProfile per kernel, and
 * GPS components feed per-page heat counters and latency histograms
 * through the system's RunSinks table, as for the timeline recorder.
 * Everything is opt-in behind RunConfig::obs: with profiling off no
 * collector exists and no component takes any hook branch.
 */

#ifndef GPS_OBS_PROFILE_HH
#define GPS_OBS_PROFILE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "obs/histogram.hh"

namespace gps
{

/**
 * Per-kernel resource attribution. Tick terms are the timing model's
 * service demands; `total` is the kernel's wall time on its GPU (the
 * max over overlappable bounds plus serialized terms, as the runner
 * computes it).
 */
struct BottleneckProfile
{
    /** Number of attributed resources (see componentNames()). */
    static constexpr std::size_t numComponents = 10;

    std::string phase;
    GpuId gpu = 0;

    /** Overlappable bounds. */
    Tick tCompute = 0;
    Tick tL2 = 0;
    Tick tDram = 0;
    Tick tWalks = 0;
    Tick tEgress = 0;
    Tick tIngress = 0;

    /** Critical-path extensions and serialized stalls. */
    Tick tRemote = 0;
    Tick tFaults = 0;
    Tick tShootdowns = 0;
    Tick tWqStall = 0;

    /** The kernel's wall time on its GPU (max + serialized terms). */
    Tick total = 0;

    /** Demand volumes behind the bandwidth terms. */
    std::uint64_t dramBytes = 0;
    std::uint64_t egressBytes = 0;
    std::uint64_t ingressBytes = 0;

    /** Peak bandwidths from the configuration, bytes/second. */
    double peakDramBps = 0.0;
    double peakLinkBps = 0.0;

    /** Fixed resource naming, aligned with components(). */
    static const std::array<const char*, numComponents>& componentNames();

    /** The Tick terms in componentNames() order. */
    std::array<Tick, numComponents> components() const;

    /**
     * Time share of each resource: t_i / sum(t_i), summing to 1.0. For
     * a kernel with no demand at all the compute share is defined as
     * 1.0 so the invariant still holds.
     */
    std::array<double, numComponents> shares() const;

    /** Name of the resource with the largest service demand. */
    const char* limiter() const;

    /** Achieved DRAM bandwidth over the kernel's wall time, bytes/s. */
    double achievedDramBps() const;

    /** Achieved egress link bandwidth over the wall time, bytes/s. */
    double achievedLinkBps() const;
};

/** Heat counters of one page bucket. */
struct PageHeat
{
    /** Cache-line messages forwarded to remote subscribers. */
    std::uint64_t remoteWritesForwarded = 0;

    /** Payload bytes of those forwards (RWQ drains + atomic bypasses). */
    std::uint64_t rwqBytes = 0;

    /** Subscription churn: successful subscribe/unsubscribe flips. */
    std::uint64_t subFlips = 0;

    /** Page migrations (UM) / replica refills landing in the bucket. */
    std::uint64_t migrations = 0;

    void
    merge(const PageHeat& other)
    {
        remoteWritesForwarded += other.remoteWritesForwarded;
        rwqBytes += other.rwqBytes;
        subFlips += other.subFlips;
        migrations += other.migrations;
    }
};

/** One row of the top-N hot-page table. */
struct HotPage
{
    /** First VPN of the bucket. */
    PageNum firstVpn = 0;

    /** Pages per bucket (1 = exact pages). */
    std::uint64_t pages = 1;

    /** Label of the region the bucket's first page belongs to. */
    std::string region;

    PageHeat heat;
};

/** Plain-data profiling output of one run. */
struct ProfileReport
{
    std::vector<BottleneckProfile> kernels;

    /** Top-N buckets by remote-write traffic, hottest first. */
    std::vector<HotPage> hotPages;

    /** Distinct buckets that saw any heat (hotPages is the top slice). */
    std::uint64_t totalHotBuckets = 0;

    std::uint64_t pagesPerBucket = 1;

    /**
     * Latency/occupancy histograms, fixed order: rwq_occupancy,
     * rwq_drain_residency, link_busy.
     */
    std::vector<NamedHistogram> histograms;
};

/**
 * Live profile collector for one run. Components hold a raw pointer
 * (nullptr = disabled, same contract as TimelineRecorder) and call the
 * note* hooks; the runner adds kernel profiles and finalizes.
 */
class ProfileCollector
{
  public:
    ProfileCollector(std::uint64_t pages_per_bucket, std::size_t top_n);

    /**
     * One line (or atomic) of @p vpn forwarded to its remote
     * subscribers: @p messages cache-line messages, one per subscriber,
     * carrying @p payload_bytes in total.
     */
    void
    noteRemoteWriteForward(PageNum vpn, std::uint64_t messages,
                           std::uint64_t payload_bytes)
    {
        PageHeat& h = heat_[bucketOf(vpn)];
        h.remoteWritesForwarded += messages;
        h.rwqBytes += payload_bytes;
    }

    /** A successful subscribe or unsubscribe of @p vpn. */
    void noteSubscriptionFlip(PageNum vpn) { ++heat_[bucketOf(vpn)].subFlips; }

    /** A page migration (or replica refill) of @p vpn. */
    void noteMigration(PageNum vpn) { ++heat_[bucketOf(vpn)].migrations; }

    /** RWQ occupancy (capacity units) observed at an enqueue. */
    void
    noteRwqOccupancy(std::uint64_t occupancy)
    {
        rwqOccupancy_.record(occupancy);
    }

    /**
     * RWQ residency of a drained entry, measured in enqueue operations
     * between its insert and its drain (simulated time does not advance
     * within a phase, so op distance is the meaningful latency proxy).
     */
    void
    noteRwqDrainResidency(std::uint64_t inserts_spanned)
    {
        rwqDrainResidency_.record(inserts_spanned);
    }

    /** Busy time (ticks) one link direction added in one phase. */
    void noteLinkBusy(Tick busy) { linkBusy_.record(busy); }

    /** Attribution of one finished kernel (runner only). */
    void addKernel(BottleneckProfile profile);

    /** Maps a VPN to a region label at finalize time. */
    void
    setRegionResolver(std::function<std::string(PageNum)> resolver)
    {
        regionResolver_ = std::move(resolver);
    }

    /** Distill into a plain-data report (top-N extraction). */
    ProfileReport finalize() const;

  private:
    std::uint64_t
    bucketOf(PageNum vpn) const
    {
        return vpn / pagesPerBucket_;
    }

    std::uint64_t pagesPerBucket_;
    std::size_t topN_;
    std::vector<BottleneckProfile> kernels_;
    std::unordered_map<std::uint64_t, PageHeat> heat_;
    LogHistogram rwqOccupancy_;
    LogHistogram rwqDrainResidency_;
    LogHistogram linkBusy_;
    std::function<std::string(PageNum)> regionResolver_;
};

/**
 * Serialize a profile report as one JSON document (see
 * docs/observability.md for the schema).
 */
std::string profileToJson(const ProfileReport& report);

} // namespace gps

#endif // GPS_OBS_PROFILE_HH

/**
 * @file
 * GPS access tracking unit (Section 5.2): a DRAM-resident bitmap with one
 * bit per GPS page per GPU, fed by last-level conventional TLB misses
 * during the profiling window and read back by the driver at
 * gpsTrackingStop() to drive unsubscription.
 */

#ifndef GPS_CORE_ACCESS_TRACKER_HH
#define GPS_CORE_ACCESS_TRACKER_HH

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/gpu_mask.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Per-GPU touched-page bitmap for the profiling phase. */
class AccessTracker : public SimObject
{
  public:
    explicit AccessTracker(std::size_t num_gpus)
        : SimObject("access_tracker"), perGpu_(num_gpus)
    {}

    /** Open the profiling window (cuGPSTrackingStart). */
    void start() { active_ = true; }

    /** Close the profiling window (cuGPSTrackingStop). */
    void stop() { active_ = false; }

    bool active() const { return active_; }

    /** Record a TLB miss from @p gpu to GPS page @p vpn (T1 path). */
    void
    mark(GpuId gpu, PageNum vpn)
    {
        if (!active_)
            return;
        ++marks_;
        perGpu_[gpu].insert(vpn);
    }

    /** Whether @p gpu touched @p vpn during the window. */
    bool
    touched(GpuId gpu, PageNum vpn) const
    {
        return perGpu_[gpu].count(vpn) > 0;
    }

    /** Set of GPUs that touched @p vpn. */
    GpuMask
    touchedMask(PageNum vpn) const
    {
        GpuMask mask = 0;
        for (std::size_t g = 0; g < perGpu_.size(); ++g) {
            if (perGpu_[g].count(vpn) > 0)
                mask = maskSet(mask, static_cast<GpuId>(g));
        }
        return mask;
    }

    /** Forget everything (new profiling window). */
    void
    clear()
    {
        for (auto& set : perGpu_)
            set.clear();
    }

    /**
     * DRAM footprint of the bitmap for @p va_bytes of GPS address space:
     * one bit per page (the paper's example: 64 KB for 32 GB at 64 KB
     * pages).
     */
    static std::uint64_t
    bitmapBytes(std::uint64_t va_bytes, std::uint64_t page_bytes)
    {
        return va_bytes / page_bytes / 8;
    }

    std::uint64_t marks() const { return marks_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize the touched sets in ascending VPN order — the
     * unordered sets feed only order-insensitive consumers
     * (touchedMask), but snapshot bytes must not depend on hash
     * iteration order.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("tracker");
        out.u64(perGpu_.size());
        for (const auto& set : perGpu_) {
            std::vector<PageNum> vpns(set.begin(), set.end());
            std::sort(vpns.begin(), vpns.end());
            out.u64(vpns.size());
            for (const PageNum vpn : vpns)
                out.u64(vpn);
        }
        out.b(active_);
        out.u64(marks_);
    }

    /** Counterpart of saveState. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("tracker");
        if (in.u64() != perGpu_.size())
            throw snapshot::SnapshotError(
                "snapshot GPU count differs from the configured "
                "tracker");
        for (auto& set : perGpu_) {
            set.clear();
            const std::uint64_t n = in.count(1ULL << 32);
            set.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i)
                set.insert(in.u64());
        }
        active_ = in.b();
        marks_ = in.u64();
    }

  private:
    std::vector<std::unordered_set<PageNum>> perGpu_;
    bool active_ = false;
    std::uint64_t marks_ = 0;
};

} // namespace gps

#endif // GPS_CORE_ACCESS_TRACKER_HH

/**
 * @file
 * GPS access tracking unit (Section 5.2): a DRAM-resident bitmap with one
 * bit per GPS page per GPU, fed by last-level conventional TLB misses
 * during the profiling window and read back by the driver at
 * gpsTrackingStop() to drive unsubscription.
 *
 * Storage is one GpuMask per page in a dense array indexed by
 * vpn - base, like the GPS page table, so the touched set of a page is a
 * single load.
 */

#ifndef GPS_CORE_ACCESS_TRACKER_HH
#define GPS_CORE_ACCESS_TRACKER_HH

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
        : SimObject("access_tracker"), numGpus_(num_gpus)
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
        record(gpu, vpn);
    }

    /** Whether @p gpu touched @p vpn during the window. */
    bool
    touched(GpuId gpu, PageNum vpn) const
    {
        return maskHas(touchedMask(vpn), gpu);
    }

    /** Set of GPUs that touched @p vpn. */
    GpuMask
    touchedMask(PageNum vpn) const
    {
        if (vpn < base_ || vpn - base_ >= masks_.size())
            return 0;
        return masks_[vpn - base_];
    }

    /** Forget everything (new profiling window). */
    void
    clear()
    {
        masks_.clear();
        entries_ = 0;
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

    /** Serialize each GPU's touched pages as an ascending VPN list. */
    void saveState(snapshot::Serializer& out) const;

    /**
     * Counterpart of saveState.
     * @param is_gps_page whether a VPN is a GPS page, the only pages
     *        mark() ever sees; the dense array must not stretch over a
     *        hostile VPN range
     * @throws snapshot::SnapshotError on another GPU count or a VPN
     *         that is not a GPS page
     */
    template <typename IsGpsPage>
    void
    restoreState(snapshot::Deserializer& in, IsGpsPage&& is_gps_page)
    {
        in.section("tracker");
        if (in.u64() != numGpus_)
            throw snapshot::SnapshotError(
                "snapshot GPU count differs from the configured "
                "tracker");
        clear();
        for (std::size_t g = 0; g < numGpus_; ++g) {
            const std::uint64_t n = in.count(1ULL << 32);
            for (std::uint64_t i = 0; i < n; ++i) {
                const PageNum vpn = in.u64();
                if (!is_gps_page(vpn))
                    throw snapshot::SnapshotError(
                        "corrupt snapshot: access tracker marks a page "
                        "that is not a GPS page");
                record(static_cast<GpuId>(g), vpn);
            }
        }
        active_ = in.b();
        marks_ = in.u64();
    }

  private:
    /** Set @p gpu's bit of @p vpn, growing the dense array to cover it. */
    void record(GpuId gpu, PageNum vpn);

    std::size_t numGpus_;

    /** VPN of masks_[0]; meaningful only when masks_ is non-empty. */
    PageNum base_ = 0;

    /** Touched GPUs per page over [base_, base_ + masks_.size()). */
    std::vector<GpuMask> masks_;

    /** (GPU, page) pairs marked: the bits set across masks_. */
    std::uint64_t entries_ = 0;

    bool active_ = false;
    std::uint64_t marks_ = 0;
};

} // namespace gps

#endif // GPS_CORE_ACCESS_TRACKER_HH

/**
 * @file
 * Per-GPU physical memory: a page-frame allocator over the GPU's local
 * DRAM. GPS replication allocates one frame per subscriber, so frame
 * accounting per GPU matters for the oversubscription path.
 */

#ifndef GPS_MEM_PHYSICAL_MEMORY_HH
#define GPS_MEM_PHYSICAL_MEMORY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/page.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Page-frame allocator for one GPU's local DRAM. */
class PhysicalMemory : public SimObject
{
  public:
    /**
     * @param name component name for stats
     * @param capacity_bytes DRAM capacity
     * @param geometry page geometry; capacity must be page aligned
     */
    PhysicalMemory(std::string name, std::uint64_t capacity_bytes,
                   PageGeometry geometry);

    /**
     * Allocate one physical frame.
     * @return the frame's PPN, or nullopt when memory is exhausted.
     */
    std::optional<PageNum> allocFrame();

    /** Release a previously allocated frame. */
    void freeFrame(PageNum ppn);

    /** Whether @p ppn is currently allocated. */
    bool allocated(PageNum ppn) const;

    /**
     * Permanently take up to @p count free frames out of service (fault
     * injection: frames lost to hardware retirement). Frames in use are
     * never retired.
     * @return the number of frames actually retired.
     */
    std::uint64_t retireFrames(std::uint64_t count);

    /** Frames permanently retired by fault injection. */
    std::uint64_t framesRetired() const { return framesRetired_; }

    std::uint64_t capacityBytes() const { return capacityBytes_; }
    std::uint64_t totalFrames() const { return totalFrames_; }
    std::uint64_t framesInUse() const { return framesInUse_; }
    std::uint64_t framesFree() const { return totalFrames_ - framesInUse_; }

    /** Frames the device held before any retirement. */
    std::uint64_t initialFrames() const { return initialFrames_; }

    /**
     * Frames allocFrame could still hand out: the recycled free list
     * plus the untouched tail of the bump region. Invariant-checked
     * against framesFree() — the two must always agree.
     */
    std::uint64_t allocatableFrames() const
    {
        return freeList_.size() + (bumpLimit_ - bumpNext_);
    }

    const PageGeometry& geometry() const { return geometry_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize the full allocator state: frame ledger, bump region,
     * free list, and allocation bitmap.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("physmem");
        out.u64(capacityBytes_);
        out.u64(totalFrames_);
        out.u64(initialFrames_);
        out.u64(framesInUse_);
        out.u64(peakFramesInUse_);
        out.u64(framesRetired_);
        out.u64(bumpNext_);
        out.u64(bumpLimit_);
        out.u64(freeList_.size());
        for (const PageNum ppn : freeList_)
            out.u64(ppn);
        out.u64(inUse_.size());
        for (const bool used : inUse_)
            out.b(used);
    }

    /** Counterpart of saveState; capacity must match this instance. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("physmem");
        if (in.u64() != capacityBytes_)
            throw snapshot::SnapshotError(
                "snapshot memory capacity differs from the configured "
                "device");
        totalFrames_ = in.u64();
        if (in.u64() != initialFrames_)
            throw snapshot::SnapshotError(
                "snapshot initial frame count differs from the "
                "configured device");
        framesInUse_ = in.u64();
        peakFramesInUse_ = in.u64();
        framesRetired_ = in.u64();
        bumpNext_ = in.u64();
        bumpLimit_ = in.u64();
        freeList_.resize(in.count(initialFrames_));
        for (PageNum& ppn : freeList_)
            ppn = in.u64();
        inUse_.resize(in.count(initialFrames_));
        for (std::size_t i = 0; i < inUse_.size(); ++i)
            inUse_[i] = in.b();
    }

  private:
    std::uint64_t capacityBytes_;
    PageGeometry geometry_;
    std::uint64_t totalFrames_;
    std::uint64_t initialFrames_;
    std::uint64_t framesInUse_ = 0;
    std::uint64_t peakFramesInUse_ = 0;
    std::uint64_t framesRetired_ = 0;

    /** Next never-used frame (bump allocation). */
    PageNum bumpNext_ = 0;

    /**
     * End of the bump region. Kept separate from totalFrames_ so that
     * retiring a recycled (free-list) frame does not also shrink the
     * never-used region — totalFrames_ counts capacity, bumpLimit_
     * bounds frame numbers.
     */
    PageNum bumpLimit_;

    /** Recycled frames. */
    std::vector<PageNum> freeList_;

    /** Allocation bitmap, grown lazily. */
    std::vector<bool> inUse_;
};

} // namespace gps

#endif // GPS_MEM_PHYSICAL_MEMORY_HH

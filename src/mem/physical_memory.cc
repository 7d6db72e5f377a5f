#include "mem/physical_memory.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

PhysicalMemory::PhysicalMemory(std::string name,
                               std::uint64_t capacity_bytes,
                               PageGeometry geometry)
    : SimObject(std::move(name)), capacityBytes_(capacity_bytes),
      geometry_(geometry),
      totalFrames_(capacity_bytes / geometry.bytes()),
      initialFrames_(totalFrames_), bumpLimit_(totalFrames_)
{
    gps_assert(totalFrames_ > 0, "zero-capacity physical memory");
}

std::optional<PageNum>
PhysicalMemory::allocFrame()
{
    PageNum ppn;
    if (!freeList_.empty()) {
        ppn = freeList_.back();
        freeList_.pop_back();
    } else if (bumpNext_ < bumpLimit_) {
        ppn = bumpNext_++;
    } else {
        return std::nullopt;
    }
    if (ppn >= inUse_.size())
        inUse_.resize(ppn + 1, false);
    inUse_[ppn] = true;
    ++framesInUse_;
    peakFramesInUse_ = std::max(peakFramesInUse_, framesInUse_);
    return ppn;
}

void
PhysicalMemory::freeFrame(PageNum ppn)
{
    gps_assert(ppn < inUse_.size() && inUse_[ppn],
               "double free of frame ", ppn, " in ", name());
    inUse_[ppn] = false;
    freeList_.push_back(ppn);
    --framesInUse_;
}

bool
PhysicalMemory::allocated(PageNum ppn) const
{
    return ppn < inUse_.size() && inUse_[ppn];
}

std::uint64_t
PhysicalMemory::retireFrames(std::uint64_t count)
{
    std::uint64_t retired = 0;
    // Recycled frames first: they leave circulation for good. Only the
    // capacity count shrinks — the bump region is untouched, or a
    // single retirement would cost two allocatable frames.
    while (retired < count && !freeList_.empty()) {
        freeList_.pop_back();
        --totalFrames_;
        ++retired;
    }
    // Then shrink the never-used bump region.
    while (retired < count && bumpNext_ < bumpLimit_) {
        --bumpLimit_;
        --totalFrames_;
        ++retired;
    }
    framesRetired_ += retired;
    gps_assert(framesFree() == allocatableFrames(),
               "frame accounting divergence in ", name());
    return retired;
}

void
PhysicalMemory::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.gauge(p + "frames_in_use", "frames",
              [this] { return static_cast<double>(framesInUse_); });
    reg.gauge(p + "frames_peak", "frames",
              [this] { return static_cast<double>(peakFramesInUse_); });
    reg.gauge(p + "frames_total", "frames",
              [this] { return static_cast<double>(totalFrames_); });
    reg.counter(p + "frames_retired", "frames",
                [this] { return static_cast<double>(framesRetired_); });
}

} // namespace gps

#include "core/access_tracker.hh"

#include <algorithm>

#include "obs/metric_registry.hh"

namespace gps
{

void
AccessTracker::record(GpuId gpu, PageNum vpn)
{
    if (masks_.empty())
        base_ = vpn;
    if (vpn < base_) {
        // Prepend at least as many pages as the array holds, so a run
        // of ever-lower pages costs amortized O(1) each.
        const PageNum grow = std::min<PageNum>(
            base_, std::max<PageNum>(base_ - vpn, masks_.size()));
        masks_.insert(masks_.begin(), static_cast<std::size_t>(grow),
                      GpuMask{});
        base_ -= grow;
    }
    const std::size_t off = static_cast<std::size_t>(vpn - base_);
    if (off >= masks_.size())
        masks_.resize(off + 1);
    GpuMask& mask = masks_[off];
    if (!maskHas(mask, gpu)) {
        mask = maskSet(mask, gpu);
        ++entries_;
    }
}

void
AccessTracker::saveState(snapshot::Serializer& out) const
{
    out.section("tracker");
    std::vector<std::vector<PageNum>> perGpu(numGpus_);
    for (std::size_t i = 0; i < masks_.size(); ++i) {
        maskForEach(masks_[i], [&](GpuId g) {
            perGpu[g].push_back(base_ + static_cast<PageNum>(i));
        });
    }
    out.u64(numGpus_);
    for (const std::vector<PageNum>& vpns : perGpu) {
        out.u64(vpns.size());
        for (const PageNum vpn : vpns)
            out.u64(vpn);
    }
    out.b(active_);
    out.u64(marks_);
}

void
AccessTracker::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "marks", "events",
                [this] { return static_cast<double>(marks_); });
    reg.gauge(p + "touched_page_entries", "entries",
              [this] { return static_cast<double>(entries_); });
}

} // namespace gps

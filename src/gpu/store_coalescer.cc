#include "gpu/store_coalescer.hh"

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

StoreCoalescer::StoreCoalescer(std::string name, std::uint32_t depth,
                               std::uint32_t line_bytes)
    : SimObject(std::move(name)), depth_(depth), lineDiv_(line_bytes),
      lines_(depth, 0)
{
    gps_assert(depth > 0, "coalescer depth must be positive");
}

bool
StoreCoalescer::absorb(Addr addr)
{
    const std::uint64_t line = lineDiv_.quot(addr);
    // Newest first: from the slot before head_ backwards, wrapping.
    std::uint32_t slot = head_;
    for (std::uint32_t i = 0; i < valid_; ++i) {
        slot = slot == 0 ? depth_ - 1 : slot - 1;
        if (lines_[slot] == line) {
            ++absorbed_;
            return true;
        }
    }
    lines_[head_] = line;
    head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
    if (valid_ < depth_)
        ++valid_;
    ++forwarded_;
    return false;
}

void
StoreCoalescer::reset()
{
    head_ = 0;
    valid_ = 0;
}

void
StoreCoalescer::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "absorbed", "events",
                [this] { return static_cast<double>(absorbed_); });
    reg.counter(p + "forwarded", "events",
                [this] { return static_cast<double>(forwarded_); });
}

} // namespace gps

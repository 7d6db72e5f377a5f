#include "mem/tlb.hh"

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

namespace
{

/** Set count of a TLB geometry, rejecting one that does not divide. */
std::size_t
setCount(std::size_t entries, std::size_t ways)
{
    gps_assert(ways > 0 && entries % ways == 0,
               "TLB entries (", entries, ") not a multiple of ways (", ways,
               ")");
    gps_assert(entries / ways > 0, "TLB must have at least one set");
    return entries / ways;
}

} // namespace

Tlb::Tlb(std::string name, std::size_t entries, std::size_t ways)
    : SimObject(std::move(name)), sets_(setCount(entries, ways)),
      ways_(ways), setDiv_(sets_), entries_(entries)
{
}

void
Tlb::fill(PageNum vpn)
{
    Entry* set = &entries_[setIndex(vpn) * ways_];
    Entry* victim = &set[0];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].vpn == vpn && set[w].valid) {
            // Already present (e.g. racing fill); refresh LRU only.
            set[w].lastUse = ++useClock_;
            return;
        }
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse < victim->lastUse)
            victim = &set[w];
    }
    if (victim->valid)
        ++evictions_;
    victim->valid = true;
    victim->vpn = vpn;
    victim->lastUse = ++useClock_;
}

bool
Tlb::contains(PageNum vpn) const
{
    const Entry* set = &entries_[setIndex(vpn) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].vpn == vpn && set[w].valid)
            return true;
    }
    return false;
}

void
Tlb::invalidate(PageNum vpn)
{
    Entry* set = &entries_[setIndex(vpn) * ways_];
    for (std::size_t w = 0; w < ways_; ++w) {
        if (set[w].vpn == vpn && set[w].valid) {
            set[w].valid = false;
            ++shootdowns_;
            return;
        }
    }
}

void
Tlb::invalidateAll()
{
    for (auto& e : entries_)
        e.valid = false;
    ++shootdowns_;
}

double
Tlb::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
Tlb::exportStats(StatSet& out) const
{
    out.set(name() + ".hits", static_cast<double>(hits_));
    out.set(name() + ".misses", static_cast<double>(misses_));
    out.set(name() + ".evictions", static_cast<double>(evictions_));
    out.set(name() + ".shootdowns", static_cast<double>(shootdowns_));
    out.set(name() + ".hit_rate", hitRate());
}

void
Tlb::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "hits", "events",
                [this] { return static_cast<double>(hits_); });
    reg.counter(p + "misses", "events",
                [this] { return static_cast<double>(misses_); });
    reg.counter(p + "evictions", "events",
                [this] { return static_cast<double>(evictions_); });
    reg.counter(p + "shootdowns", "events",
                [this] { return static_cast<double>(shootdowns_); });
    reg.gauge(p + "hit_rate", "ratio", [this] { return hitRate(); });
}

void
Tlb::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    shootdowns_ = 0;
}

} // namespace gps

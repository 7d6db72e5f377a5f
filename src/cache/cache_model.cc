#include "cache/cache_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

CacheModel::CacheModel(std::string name, std::uint64_t capacity_bytes,
                       std::uint32_t line_bytes, std::uint32_t ways)
    : SimObject(std::move(name)), capacityBytes_(capacity_bytes),
      lineBytes_(line_bytes), ways_(ways),
      sets_(capacity_bytes / line_bytes / ways),
      lines_(sets_ * ways), resident_(regionSlots, 0)
{
    gps_assert(sets_ > 0, "cache too small: ", capacity_bytes, " bytes");
    gps_assert(capacity_bytes % (static_cast<std::uint64_t>(line_bytes) *
                                 ways) == 0,
               "cache capacity not divisible by line*ways");
}

CacheResult
CacheModel::access(Addr addr, bool is_write)
{
    const std::uint64_t line = lineNum(addr);
    const std::uint64_t tag = line / sets_;
    const std::size_t set_index = setIndex(line);
    Line* set = &lines_[set_index * ways_];
    const std::uint64_t dirty = is_write ? dirtyBit : 0;

    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid() && set[w].tag == tag) {
            set[w].meta = (++useClock_ << stampShift) |
                          (set[w].meta & dirtyBit) | dirty | validBit;
            ++hits_;
            return {true, 0};
        }
    }

    ++misses_;
    Line* victim = &set[0];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!set[w].valid()) {
            victim = &set[w];
            break;
        }
        if (set[w].lastUse() < victim->lastUse())
            victim = &set[w];
    }

    CacheResult result{false, 0};
    if (victim->valid()) {
        ++evictions_;
        --residentIn(regionOf(victim->tag * sets_ + set_index));
        if (victim->dirty()) {
            ++writebacks_;
            result.writebackBytes = lineBytes_;
        }
    }
    ++residentIn(regionOf(line));
    victim->tag = tag;
    victim->meta = (++useClock_ << stampShift) | dirty | validBit;
    return result;
}

bool
CacheModel::contains(Addr addr) const
{
    const std::uint64_t line = lineNum(addr);
    const std::uint64_t tag = line / sets_;
    const Line* set = &lines_[setIndex(line) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (set[w].valid() && set[w].tag == tag)
            return true;
    }
    return false;
}

std::uint64_t
CacheModel::invalidatePage(Addr page_base, std::uint64_t page_bytes)
{
    std::uint64_t writeback = 0;
    const std::uint64_t first = lineNum(page_base);
    const std::uint64_t end = first + page_bytes / lineBytes_;
    for (std::uint64_t l = first; l < end;) {
        // Lines [l, next) start inside one region; its count slot is
        // zero only if no line of the region (or an alias) is resident.
        const std::uint64_t region = regionOf(l);
        const std::uint64_t region_end = (region + 1) << regionShift;
        const std::uint64_t next =
            region_end == 0 // the top region of the address space
                ? end
                : std::min(end, region_end / lineBytes_ +
                                    (region_end % lineBytes_ != 0));
        std::uint32_t& resident = residentIn(region);
        for (; l < next && resident != 0; ++l) {
            const std::uint64_t tag = l / sets_;
            Line* set = &lines_[setIndex(l) * ways_];
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (set[w].valid() && set[w].tag == tag) {
                    if (set[w].dirty()) {
                        ++writebacks_;
                        writeback += lineBytes_;
                    }
                    set[w].meta &= ~validBit;
                    --resident;
                }
            }
        }
        l = next;
    }
    return writeback;
}

std::uint64_t
CacheModel::flushAll()
{
    std::uint64_t writeback = 0;
    for (auto& line : lines_) {
        if (line.valid() && line.dirty()) {
            ++writebacks_;
            writeback += lineBytes_;
        }
        line.meta &= ~(validBit | dirtyBit);
    }
    std::fill(resident_.begin(), resident_.end(), 0);
    return writeback;
}

void
CacheModel::restoreState(snapshot::Deserializer& in)
{
    in.section("cache");
    if (in.u64() != lines_.size())
        throw snapshot::SnapshotError(
            "snapshot cache geometry differs from the configured cache");
    std::fill(resident_.begin(), resident_.end(), 0);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
        Line& l = lines_[i];
        l.tag = in.u64();
        const bool valid = in.b();
        const bool dirty = in.b();
        const std::uint64_t last_use = in.u64();
        if (last_use > maxUseClock)
            throw snapshot::SnapshotError(
                "snapshot cache line LRU stamp out of range");
        l.meta = (last_use << stampShift) | (dirty ? dirtyBit : 0) |
                 (valid ? validBit : 0);
        if (valid)
            ++residentIn(regionOf(l.tag * sets_ + i / ways_));
    }
    useClock_ = in.u64();
    if (useClock_ > maxUseClock)
        throw snapshot::SnapshotError(
            "snapshot cache LRU clock out of range");
    hits_ = in.u64();
    misses_ = in.u64();
    evictions_ = in.u64();
    writebacks_ = in.u64();
}

double
CacheModel::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
CacheModel::exportStats(StatSet& out) const
{
    out.set(name() + ".hits", static_cast<double>(hits_));
    out.set(name() + ".misses", static_cast<double>(misses_));
    out.set(name() + ".evictions", static_cast<double>(evictions_));
    out.set(name() + ".writebacks", static_cast<double>(writebacks_));
    out.set(name() + ".hit_rate", hitRate());
}

void
CacheModel::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "hits", "events",
                [this] { return static_cast<double>(hits_); });
    reg.counter(p + "misses", "events",
                [this] { return static_cast<double>(misses_); });
    reg.counter(p + "evictions", "events",
                [this] { return static_cast<double>(evictions_); });
    reg.counter(p + "writebacks", "events",
                [this] { return static_cast<double>(writebacks_); });
    reg.gauge(p + "hit_rate", "ratio", [this] { return hitRate(); });
}

void
CacheModel::resetStats()
{
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    writebacks_ = 0;
}

} // namespace gps

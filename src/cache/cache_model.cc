#include "cache/cache_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

namespace
{

/** Set count of a cache geometry, rejecting one with no set. */
std::size_t
setCount(std::uint64_t capacity_bytes, std::uint32_t line_bytes,
         std::uint32_t ways)
{
    gps_assert(line_bytes > 0 && ways > 0,
               "cache needs a line size and at least one way");
    const std::uint64_t sets = capacity_bytes / line_bytes / ways;
    gps_assert(sets > 0, "cache too small: ", capacity_bytes, " bytes");
    return static_cast<std::size_t>(sets);
}

} // namespace

CacheModel::CacheModel(std::string name, std::uint64_t capacity_bytes,
                       std::uint32_t line_bytes, std::uint32_t ways)
    : SimObject(std::move(name)), capacityBytes_(capacity_bytes),
      lineBytes_(line_bytes), ways_(ways),
      sets_(setCount(capacity_bytes, line_bytes, ways)),
      lineDiv_(line_bytes), setDiv_(sets_), lines_(sets_),
      resident_(regionSlots, 0)
{
    gps_assert(capacity_bytes % (static_cast<std::uint64_t>(line_bytes) *
                                 ways) == 0,
               "cache capacity not divisible by line*ways");
}

CacheResult
CacheModel::fill(std::uint64_t line, std::uint64_t tag,
                 std::size_t set_index, std::uint64_t dirty)
{
    ++misses_;
    Line* set = &lines_[set_index * stride_];
    // First invalid way, else the least recently used (first on ties);
    // the oldest stamp stays in a register rather than behind a pointer.
    std::uint32_t way = 0;
    std::uint64_t oldest = set[0].lastUse();
    for (std::uint32_t w = 0; w < stride_; ++w) {
        if (!set[w].valid()) {
            way = w;
            break;
        }
        if (set[w].lastUse() < oldest) {
            oldest = set[w].lastUse();
            way = w;
        }
    }
    Line* victim = &set[way];
    if (victim->valid() && stride_ < ways_) {
        // Every stored way is valid, so the first invalid way is the
        // first unstored one, which no set has filled yet.
        way = stride_;
        growStride();
        victim = &lines_[set_index * stride_ + way];
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

void
CacheModel::growStride()
{
    const std::uint32_t stride = std::min(2 * stride_, ways_);
    std::vector<Line> lines(sets_ * stride);
    for (std::size_t s = 0; s < sets_; ++s)
        std::copy_n(&lines_[s * stride_], stride_, &lines[s * stride]);
    lines_ = std::move(lines);
    stride_ = stride;
}

bool
CacheModel::contains(Addr addr) const
{
    const auto [tag, set_index] = slotOf(lineNum(addr));
    const Line* set = &lines_[set_index * stride_];
    for (std::uint32_t w = 0; w < stride_; ++w) {
        if (set[w].tag == tag && set[w].valid())
            return true;
    }
    return false;
}

std::uint64_t
CacheModel::invalidatePage(Addr page_base, std::uint64_t page_bytes)
{
    std::uint64_t writeback = 0;
    const std::uint64_t first = lineNum(page_base);
    const std::uint64_t end = first + lineDiv_.quot(page_bytes);
    for (std::uint64_t l = first; l < end;) {
        // Lines [l, next) start inside one region; its count slot is
        // zero only if no line of the region (or an alias) is resident.
        const std::uint64_t region = regionOf(l);
        const std::uint64_t region_end = (region + 1) << regionShift;
        const std::uint64_t region_lines = lineDiv_.quot(region_end);
        const std::uint64_t next =
            region_end == 0 // the top region of the address space
                ? end
                : std::min(end, region_lines +
                                    (region_lines * lineBytes_ !=
                                     region_end));
        std::uint32_t& resident = residentIn(region);
        for (; l < next && resident != 0; ++l) {
            const auto [tag, set_index] = slotOf(l);
            Line* set = &lines_[set_index * stride_];
            for (std::uint32_t w = 0; w < stride_; ++w) {
                if (set[w].tag == tag && set[w].valid()) {
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
CacheModel::saveState(snapshot::Serializer& out) const
{
    out.section("cache");
    out.u64(sets_ * ways_);
    const Line never_filled;
    for (std::size_t s = 0; s < sets_; ++s) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const Line& l =
                w < stride_ ? lines_[s * stride_ + w] : never_filled;
            out.u64(l.tag);
            out.b(l.valid());
            out.b(l.dirty());
            out.u64(l.lastUse());
        }
    }
    out.u64(useClock_);
    out.u64(hits_);
    out.u64(misses_);
    out.u64(evictions_);
    out.u64(writebacks_);
}

void
CacheModel::restoreState(snapshot::Deserializer& in)
{
    in.section("cache");
    if (in.u64() != sets_ * ways_)
        throw snapshot::SnapshotError(
            "snapshot cache geometry differs from the configured cache");
    lines_.assign(sets_, Line{});
    stride_ = 1;
    std::fill(resident_.begin(), resident_.end(), 0);
    for (std::size_t s = 0; s < sets_; ++s) {
        for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::uint64_t tag = in.u64();
            const bool valid = in.b();
            const bool dirty = in.b();
            const std::uint64_t last_use = in.u64();
            if (last_use > maxUseClock)
                throw snapshot::SnapshotError(
                    "snapshot cache line LRU stamp out of range");
            if (tag == 0 && !valid && !dirty && last_use == 0)
                continue; // never filled, as every unstored way reads
            while (w >= stride_)
                growStride();
            Line& l = lines_[s * stride_ + w];
            l.tag = tag;
            l.meta = (last_use << stampShift) | (dirty ? dirtyBit : 0) |
                     (valid ? validBit : 0);
            if (valid)
                ++residentIn(regionOf(tag * sets_ + s));
        }
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

/**
 * @file
 * Generic set-associative write-back cache model with true-LRU
 * replacement, used for each GPU's L2. The aggregate-capacity effect the
 * paper reports for EQWP (L2 hit rate rising from 55% to 68% at 4 GPUs)
 * emerges from this model when the per-GPU working set shrinks.
 *
 * Each line packs into 16 B (tag, then the LRU stamp with the valid and
 * dirty flags folded into its low bits), and the model keeps an exact
 * count of resident lines per 64 KB address region so page invalidation
 * skips regions it holds nothing of: at 128-256 GPUs almost every
 * barrier-time invalidation lands on a GPU that never cached the page.
 */

#ifndef GPS_CACHE_CACHE_MODEL_HH
#define GPS_CACHE_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Result of one cache access. */
struct CacheResult
{
    bool hit = false;

    /** Bytes written back to DRAM due to a dirty eviction (0 or line). */
    std::uint32_t writebackBytes = 0;
};

/** Set-associative write-back cache (tag-only functional+stats model). */
class CacheModel : public SimObject
{
  public:
    /**
     * @param name component name
     * @param capacity_bytes total data capacity
     * @param line_bytes cache line size (Table 1: 128 B)
     * @param ways associativity
     */
    CacheModel(std::string name, std::uint64_t capacity_bytes,
               std::uint32_t line_bytes, std::uint32_t ways);

    /**
     * Access the line containing @p addr, allocating on miss.
     * @param addr byte address
     * @param is_write marks the line dirty
     */
    CacheResult access(Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /** Invalidate every line of the page containing @p addr.
     * @return bytes of dirty data dropped/written back. */
    std::uint64_t invalidatePage(Addr page_base, std::uint64_t page_bytes);

    /** Drop all lines; dirty lines count as writebacks.
     * @return writeback bytes. */
    std::uint64_t flushAll();

    std::uint32_t lineBytes() const { return lineBytes_; }
    std::uint64_t capacityBytes() const { return capacityBytes_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double hitRate() const;

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;
    void resetStats() override;

    /** Resident lines are counted per 64 KB address region... */
    static constexpr unsigned regionShift = 16;

    /** ...in a fixed table (64 KB) indexed by region modulo its size.
     *  Aliasing regions share a slot, so a zero slot still proves every
     *  one of them empty. */
    static constexpr std::size_t regionSlots = 16384;

    /**
     * Count held by the slot of the region containing @p addr's line:
     * the valid lines of that region and of every region aliasing it.
     */
    std::uint32_t
    residentInSlotOf(Addr addr) const
    {
        return resident_[regionOf(lineNum(addr)) & (regionSlots - 1)];
    }

    /** Largest LRU stamp (and LRU clock) a packed line can hold: the
     *  valid and dirty flags take the low two bits (stampShift). */
    static constexpr std::uint64_t maxUseClock = ~std::uint64_t(0) >> 2;

    /** Serialize every line, the LRU clock, and the counters. */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("cache");
        out.u64(lines_.size());
        for (const Line& l : lines_) {
            out.u64(l.tag);
            out.b(l.valid());
            out.b(l.dirty());
            out.u64(l.lastUse());
        }
        out.u64(useClock_);
        out.u64(hits_);
        out.u64(misses_);
        out.u64(evictions_);
        out.u64(writebacks_);
    }

    /**
     * Counterpart of saveState; geometry must match this instance and
     * every LRU stamp must fit the packed line. Rebuilds the
     * resident-line counts.
     */
    void restoreState(snapshot::Deserializer& in);

  private:
    /** Line::meta bits below the LRU stamp. */
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;
    static constexpr unsigned stampShift = 2;
    static_assert(maxUseClock == ~std::uint64_t(0) >> stampShift);

    struct Line
    {
        std::uint64_t tag = 0;

        /** lastUse << stampShift | dirty | valid. */
        std::uint64_t meta = 0;

        bool valid() const { return (meta & validBit) != 0; }
        bool dirty() const { return (meta & dirtyBit) != 0; }
        std::uint64_t lastUse() const { return meta >> stampShift; }
    };
    static_assert(sizeof(Line) == 16);

    std::uint64_t lineNum(Addr addr) const { return addr / lineBytes_; }
    std::size_t setIndex(std::uint64_t line) const { return line % sets_; }

    /** Region of the line's first byte. */
    std::uint64_t
    regionOf(std::uint64_t line) const
    {
        return (line * lineBytes_) >> regionShift;
    }

    /** Resident-line count slot of @p region. */
    std::uint32_t&
    residentIn(std::uint64_t region)
    {
        return resident_[region & (regionSlots - 1)];
    }

    std::uint64_t capacityBytes_;
    std::uint32_t lineBytes_;
    std::uint32_t ways_;
    std::size_t sets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;

    /** Valid lines per region slot; exact at every public call. */
    std::vector<std::uint32_t> resident_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace gps

#endif // GPS_CACHE_CACHE_MODEL_HH

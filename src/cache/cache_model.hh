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
 * A miss fills only a line the set does not hold, so a valid tag
 * appears at most once per set.
 *
 * Ways are stored only as far as some set has filled them. A fill takes
 * the first invalid way in index order, so a set fills way w only once
 * ways 0..w-1 all hold valid lines, and a way no set has reached holds
 * a never-filled line. The lines sit set-major at a per-cache stride
 * that starts at one way and doubles (capped at the associativity) the
 * first time a fill finds every stored way of its set valid; 128-256
 * GPU runs fill a fraction of each GPU's 16 ways. The region-count
 * table grows with the stride (see residentSlots). Tag and set come
 * from exact multiply-shift dividers (the Table 1 L2 has 3,072 sets).
 */

#ifndef GPS_CACHE_CACHE_MODEL_HH
#define GPS_CACHE_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/divider.hh"
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
    CacheResult
    access(Addr addr, bool is_write)
    {
        const std::uint64_t line = lineNum(addr);
        const auto [tag, set_index] = slotOf(line);
        Line* set = &lines_[set_index * stride_];
        const std::uint64_t dirty = is_write ? dirtyBit : 0;
        for (std::uint32_t w = 0; w < stride_; ++w) {
            if (set[w].tag == tag && set[w].valid()) {
                set[w].meta = (++useClock_ << stampShift) |
                              (set[w].meta & dirtyBit) | dirty | validBit;
                ++hits_;
                return {true, 0};
            }
        }
        return fill(line, tag, set_index, dirty);
    }

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

    /** Ways stored per set: the first of 1, 2, 4, ... (capped at the
     *  associativity) past every way any set has filled. */
    std::uint32_t storedWays() const { return stride_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double hitRate() const;

    void registerMetrics(MetricRegistry& reg) const override;

    /** Resident lines are counted per 64 KB address region... */
    static constexpr unsigned regionShift = 16;

    /** ...in a table indexed by region modulo its size, which is at most
     *  this many slots (64 KB). Aliasing regions share a slot, so a zero
     *  slot still proves every one of them empty. */
    static constexpr std::size_t regionSlots = 16384;

    /**
     * Slots in the region-count table: regionSlots scaled by
     * storedWays() over the associativity (rounded up to a power of
     * two), so the table grows with the lines stored. The Table 1 L2
     * goes from 1,024 slots at one way to 16,384 at all 16.
     */
    std::size_t residentSlots() const { return resident_.size(); }

    /**
     * Count held by the slot of the region containing @p addr's line:
     * the valid lines of that region and of every region aliasing it.
     */
    std::uint32_t
    residentInSlotOf(Addr addr) const
    {
        return resident_[regionOf(lineNum(addr)) & (resident_.size() - 1)];
    }

    /** Largest LRU stamp (and LRU clock) a packed line can hold: the
     *  valid and dirty flags take the low two bits (stampShift). */
    static constexpr std::uint64_t maxUseClock = ~std::uint64_t(0) >> 2;

    /**
     * Serialize every line of every way, the LRU clock, and the
     * counters; ways not stored go out as never-filled lines (tag 0,
     * invalid, clean, stamp 0).
     */
    void saveState(snapshot::Serializer& out) const;

    /**
     * Counterpart of saveState; geometry must match this instance, every
     * LRU stamp must fit the packed line, and no set may hold a valid
     * tag twice. Rebuilds the resident-line counts, and stores ways up
     * to the highest one holding any non-zero field (the stride a live
     * fill would grow).
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

    std::uint64_t lineNum(Addr addr) const { return lineDiv_.quot(addr); }

    /** Where a line lives: its tag within set @p set. */
    struct Slot
    {
        std::uint64_t tag;
        std::size_t set;
    };

    Slot
    slotOf(std::uint64_t line) const
    {
        const std::uint64_t tag = setDiv_.quot(line);
        return {tag, static_cast<std::size_t>(line - tag * sets_)};
    }

    /** Miss path of access(): pick the victim way and install @p tag. */
    CacheResult fill(std::uint64_t line, std::uint64_t tag,
                     std::size_t set_index, std::uint64_t dirty);

    /** Store @p stride ways per set, re-laying out the sets and
     *  recounting the resident lines into a table sized for it. */
    void growStride(std::uint32_t stride);

    /** Rebuild the region-count table from the stored lines. */
    void countResident();

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
        return resident_[region & (resident_.size() - 1)];
    }

    std::uint64_t capacityBytes_;
    std::uint32_t lineBytes_;
    std::uint32_t ways_;
    std::size_t sets_;
    Divider lineDiv_;
    Divider setDiv_;

    /** sets_ x stride_ lines, set-major; ways >= stride_ never filled. */
    std::vector<Line> lines_;
    std::uint32_t stride_ = 1;
    std::uint64_t useClock_ = 0;

    /** Valid lines per region slot (residentSlots() of them); exact at
     *  every public call. */
    std::vector<std::uint32_t> resident_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace gps

#endif // GPS_CACHE_CACHE_MODEL_HH

/**
 * @file
 * The GPS remote write queue (Section 5.2): a fully associative,
 * virtually addressed write-combining buffer at cache-block granularity.
 * Weak stores to the same block coalesce; at the high watermark the least
 * recently *added* entry drains to the GPS address translation unit; the
 * queue drains fully at synchronization points (grid end, sys fences).
 *
 * Entries sit in a power-of-two ring in insertion order, grown on demand
 * (the configured capacity may be up to 2^32-1 entries, so nothing is
 * preallocated to it). A line index with open addressing and linear
 * probing maps each buffered line to its ring slot, at most half full;
 * a removal closes its probe chain by backward shift. No store or drain
 * allocates once the ring has grown to the queue's working size.
 */

#ifndef GPS_CORE_REMOTE_WRITE_QUEUE_HH
#define GPS_CORE_REMOTE_WRITE_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "core/gps_config.hh"
#include "mem/page.hh"
#include "sim/run_sinks.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** One coalescing buffer entry (one cache block). */
struct WqEntry
{
    /** Line-aligned virtual address (its page is pageNum(line)). */
    Addr line = 0;

    /** Distinct bytes written so far (capped at the line size). */
    std::uint32_t bytesWritten = 0;

    /** Stores merged into this entry. */
    std::uint32_t mergedStores = 0;

    /**
     * Capacity units the entry occupies: 1 when virtually addressed;
     * the subscriber copy count under the physically-addressed ablation
     * (Section 5.3 discussion).
     */
    std::uint32_t weight = 1;

    /**
     * Insert sequence number (the queue's insert count when the entry
     * was created); the profiler derives drain residency from it.
     */
    std::uint64_t seq = 0;
};

static_assert(sizeof(WqEntry) == 32, "write-queue entry layout drifted");

/** Per-GPU remote write queue. */
class RemoteWriteQueue : public SimObject
{
  public:
    /** Called with each entry as it drains toward the interconnect. */
    using DrainFn = std::function<void(const WqEntry&)>;

    /**
     * @param sinks collectors this queue feeds: timeline instants for
     *        full drains and saturation transitions on track @p track
     *        at the recorder's current stamp; profile occupancy at each
     *        new-entry enqueue and drain residency (in insert operations
     *        spanned) at each drain; causal insert->drain edges, plus
     *        SM-stall edges for drains forced while saturated
     * @param track timeline track of the owning GPU
     */
    RemoteWriteQueue(std::string name, const GpsConfig& config,
                     std::uint32_t line_bytes, PageGeometry geometry,
                     const RunSinks& sinks = noSinks, int track = 0);

    /** Install the drain sink; it must not call back into the queue. */
    void setDrainCallback(DrainFn fn) { drain_ = std::move(fn); }

    /**
     * Offer a weak store.
     * @param addr store address
     * @param size store width in bytes
     * @param copies remote subscriber count (weights entries under the
     *        physically-addressed ablation)
     * @return true if the store coalesced into a live entry.
     */
    bool insert(Addr addr, std::uint32_t size, std::uint32_t copies);

    /** Record an atomic that bypassed coalescing (hit-rate accounting). */
    void noteAtomicBypass() { ++atomicBypass_; }

    /** Record a load serviced straight out of the buffer (store forward). */
    void noteForwardHit() { ++forwardHits_; }

    /** Whether the block containing @p addr is buffered (load forward). */
    bool contains(Addr addr) const;

    /** Drain everything (sys fence / end of grid). */
    void drainAll();

    /** Drain only entries of @p vpn (page collapse). */
    void drainPage(PageNum vpn);

    /**
     * Enter/leave the fault-injected Saturated mode: the drain watermark
     * drops to wqEntries / saturatedWatermarkDivisor and every
     * watermark-forced drain counts as an SM stall (stallDrains).
     */
    void setSaturated(bool saturated);
    bool saturated() const { return saturated_; }

    /** Drains forced while saturated (each stalls the producing SM). */
    std::uint64_t stallDrains() const { return stallDrains_; }

    /** Occupancy in capacity units. */
    std::uint32_t occupancy() const { return occupancy_; }

    std::uint64_t inserts() const { return inserts_; }
    std::uint64_t coalesced() const { return coalesced_; }
    std::uint64_t drains() const { return drains_; }
    std::uint64_t atomicBypass() const { return atomicBypass_; }
    std::uint64_t watermarkDrains() const { return watermarkDrains_; }
    std::uint64_t forwardHits() const { return forwardHits_; }

    /** Entries currently resident (inserts == drains + resident). */
    std::uint64_t residentEntries() const { return count_; }

    /** Σ entry.weight over resident entries — must equal occupancy(). */
    std::uint64_t weightSum() const
    {
        std::uint64_t sum = 0;
        forEachEntry([&sum](const WqEntry& entry) { sum += entry.weight; });
        return sum;
    }

    /** Visit resident entries front (least recently added) to back. */
    template <typename Fn>
    void forEachEntry(Fn&& fn) const
    {
        for (std::size_t i = 0; i < count_; ++i)
            fn(ring_[slotAt(i)]);
    }

    /**
     * Write-queue hit rate as Figure 14 reports it: coalesced stores
     * over all coalescing-eligible traffic (including atomics, which
     * always miss).
     */
    double hitRate() const;

    /** SRAM footprint: 512 entries * 135 B = ~68 KB (Section 5.2). */
    std::uint64_t sramBytes() const;

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize resident entries in FIFO order plus all counters; the
     * ring and line index are rebuilt from the FIFO at restore.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("rwq");
        out.u64(count_);
        forEachEntry([&](const WqEntry& e) {
            out.u64(e.line);
            out.u64(geometry_.pageNum(e.line));
            out.u32(e.bytesWritten);
            out.u32(e.mergedStores);
            out.u32(e.weight);
            out.u64(e.seq);
        });
        out.u32(occupancy_);
        out.u64(inserts_);
        out.u64(coalesced_);
        out.u64(drains_);
        out.u64(atomicBypass_);
        out.u64(watermarkDrains_);
        out.u64(forwardHits_);
        out.u64(stallDrains_);
        out.b(saturated_);
    }

    /**
     * Counterpart of saveState.
     * @throws snapshot::SnapshotError when a line is buffered twice or
     *         a stored VPN is not its line's page
     */
    void restoreState(snapshot::Deserializer& in);

  private:
    /** Ring slot of a line-index entry; noSlot marks a free index entry.
     *  64-bit because a 2^32-1-entry queue can fill a 2^32-slot ring. */
    using RingSlot = std::uint64_t;
    static constexpr RingSlot noSlot = ~RingSlot(0);

    /** Ring slot of the @p i-th resident entry (0 = least recently added). */
    std::size_t
    slotAt(std::size_t i) const
    {
        return (head_ + i) & (ring_.size() - 1);
    }

    /** Index entry where the probe for @p line starts. */
    std::size_t
    homeOf(Addr line) const
    {
        return static_cast<std::size_t>(
            ((line >> lineShift_) * 0x9E3779B97F4A7C15ULL) >> indexShift_);
    }

    /** Index entry holding @p line, else the free entry ending its probe. */
    std::size_t
    find(Addr line) const
    {
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = homeOf(line);; i = (i + 1) & mask) {
            const RingSlot slot = index_[i];
            if (slot == noSlot || ring_[slot].line == line)
                return i;
        }
    }

    /** Free index entry @p hole, shifting later entries of its probe
     *  chain back so every lookup still reaches them. */
    void unindex(std::size_t hole);

    /** Re-lay the ring out at @p slots slots (head at slot 0) and
     *  rebuild the index at twice that. */
    void resize(std::size_t slots);

    /** Append @p entry at the back; @p at is find(entry.line). */
    void pushBack(const WqEntry& entry, std::size_t at);

    void drainOne();
    void drainEntry(const WqEntry& entry);
    void drainToWatermark();

    const GpsConfig* config_;
    std::uint32_t lineBytes_;
    unsigned lineShift_;
    PageGeometry geometry_;
    DrainFn drain_;

    /** Resident entries: count_ of them from head_, in insertion order. */
    std::vector<WqEntry> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;

    /** Line index: ring slots by line, twice the ring's size. */
    std::vector<RingSlot> index_;
    unsigned indexShift_ = 0;

    std::uint32_t occupancy_ = 0;

    std::uint64_t inserts_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t drains_ = 0;
    std::uint64_t atomicBypass_ = 0;
    std::uint64_t watermarkDrains_ = 0;
    std::uint64_t forwardHits_ = 0;
    std::uint64_t stallDrains_ = 0;
    bool saturated_ = false;
    const RunSinks& sinks_;
    int track_;
};

} // namespace gps

#endif // GPS_CORE_REMOTE_WRITE_QUEUE_HH

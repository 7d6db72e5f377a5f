/**
 * @file
 * Set-associative TLB model with true-LRU replacement.
 *
 * Used in two places: the per-GPU last-level conventional TLB (whose misses
 * feed the GPS access tracking unit) and the small GPS-TLB inside the GPS
 * address translation unit (Table 1: 32 entries, 8-way).
 */

#ifndef GPS_MEM_TLB_HH
#define GPS_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/divider.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** Set-associative translation lookaside buffer (tag-only model). */
class Tlb : public SimObject
{
  public:
    /**
     * @param name component name
     * @param entries total entries; must be a multiple of @p ways
     * @param ways associativity
     */
    Tlb(std::string name, std::size_t entries, std::size_t ways);

    /**
     * Probe for @p vpn, updating LRU on hit.
     * @return true on hit.
     */
    bool
    lookup(PageNum vpn)
    {
        Entry* set = &entries_[setIndex(vpn) * ways_];
        for (std::size_t w = 0; w < ways_; ++w) {
            if (set[w].vpn == vpn && set[w].valid) {
                set[w].lastUse = ++useClock_;
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /** Insert @p vpn, evicting the set's LRU entry if needed. */
    void fill(PageNum vpn);

    /** Probe without inserting and without stats/LRU effects. */
    bool contains(PageNum vpn) const;

    /** Invalidate one translation (TLB shootdown target). */
    void invalidate(PageNum vpn);

    /** Invalidate everything. */
    void invalidateAll();

    std::size_t entries() const { return sets_ * ways_; }
    std::size_t ways() const { return ways_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Hit fraction over all lookups (0 when never probed). */
    double hitRate() const;

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;
    void resetStats() override;

    /** Serialize every entry, the LRU clock, and the counters. */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("tlb");
        out.u64(sets_);
        out.u64(ways_);
        for (const Entry& e : entries_) {
            out.u64(e.vpn);
            out.b(e.valid);
            out.u64(e.lastUse);
        }
        out.u64(useClock_);
        out.u64(hits_);
        out.u64(misses_);
        out.u64(evictions_);
        out.u64(shootdowns_);
    }

    /** Counterpart of saveState; geometry must match this instance. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("tlb");
        if (in.u64() != sets_ || in.u64() != ways_)
            throw snapshot::SnapshotError(
                "snapshot TLB geometry differs from the configured TLB");
        for (Entry& e : entries_) {
            e.vpn = in.u64();
            e.valid = in.b();
            e.lastUse = in.u64();
        }
        useClock_ = in.u64();
        hits_ = in.u64();
        misses_ = in.u64();
        evictions_ = in.u64();
        shootdowns_ = in.u64();
    }

  private:
    struct Entry
    {
        PageNum vpn = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setIndex(PageNum vpn) const { return setDiv_.rem(vpn); }

    std::size_t sets_;
    std::size_t ways_;
    Divider setDiv_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t shootdowns_ = 0;
};

} // namespace gps

#endif // GPS_MEM_TLB_HH

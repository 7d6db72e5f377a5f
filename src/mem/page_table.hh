/**
 * @file
 * Conventional per-GPU page table.
 *
 * Each GPU holds its own table mapping virtual page numbers to physical
 * frames. A mapping may point at a frame in *another* GPU's memory (a peer
 * mapping, used by RDL and by non-subscriber accesses to GPS pages). The
 * GPS extension is a single repurposed PTE bit (`gpsBit`) that marks the
 * page as potentially replicated, exactly as in the paper's Section 5.2.
 *
 * Storage is one flat open-addressing table. A VPN's home slot is the
 * VPN modulo the power-of-two capacity, so an allocation's consecutive
 * pages sit in consecutive slots. A collision probes linearly, and the
 * entries of a cluster stay sorted by home slot (Robin Hood order): a
 * lookup stops at the first entry that sits closer to its home than the
 * probe has come, and an unmap shifts entries back only until one sits
 * at its home, so unmapping a page from a run of consecutive pages moves
 * nothing. The capacity doubles when a map would fill it past three
 * quarters, and no mapping allocates memory of its own: a 24-byte slot at
 * 3/8 to 3/4 load costs 32-64 B per mapping.
 */

#ifndef GPS_MEM_PAGE_TABLE_HH
#define GPS_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** A conventional page table entry (plus the GPS bit). */
struct Pte
{
    /** Physical frame the virtual page maps to. */
    PageNum ppn = 0;

    /** GPU whose memory holds that frame. */
    GpuId location = invalidGpu;

    /** Repurposed bit: page participates in GPS replication. */
    bool gpsBit = false;

    bool
    operator==(const Pte& other) const
    {
        return ppn == other.ppn && location == other.location &&
               gpsBit == other.gpsBit;
    }
};

/**
 * One GPU's conventional page table. A Pte pointer from lookup() or
 * lookupMutable() stays valid only until the next map() or unmap() on
 * the same table: growth re-lays every slot out, and an unmap shifts
 * later entries of its probe chain back.
 */
class PageTable : public SimObject
{
  public:
    explicit PageTable(std::string name)
        : SimObject(std::move(name))
    {}

    /** Install or replace the mapping for @p vpn. */
    void map(PageNum vpn, const Pte& pte);

    /** Remove the mapping for @p vpn (no-op if absent). */
    void unmap(PageNum vpn);

    /** Mapping for @p vpn, or nullptr when not mapped. */
    const Pte*
    lookup(PageNum vpn) const
    {
        const std::size_t i = find(vpn);
        return i == notFound ? nullptr : &slots_[i].pte;
    }

    /** Mutable access for flag updates; nullptr when not mapped. */
    Pte*
    lookupMutable(PageNum vpn)
    {
        return const_cast<Pte*>(
            static_cast<const PageTable*>(this)->lookup(vpn));
    }

    /** Set or clear the GPS bit; the page must be mapped. */
    void setGpsBit(PageNum vpn, bool value);

    std::size_t size() const { return size_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize every mapping in ascending VPN order (slot order must
     * not leak into snapshot bytes) plus the op counters.
     */
    void saveState(snapshot::Serializer& out) const;

    /**
     * Counterpart of saveState; replaces the current contents.
     * @throws snapshot::SnapshotError when a VPN is listed twice
     */
    void restoreState(snapshot::Deserializer& in);

  private:
    /** Free-slot marker; no page of a 64-bit address space has it. */
    static constexpr PageNum noVpn = ~PageNum(0);

    struct Slot
    {
        /** Mapped VPN, or noVpn when the slot is free. */
        PageNum vpn = noVpn;
        Pte pte;
    };

    static constexpr std::size_t notFound = ~std::size_t(0);

    /** Slots from the home of the entry in slot @p i to @p i. */
    std::size_t
    distance(std::size_t i) const
    {
        const std::size_t mask = slots_.size() - 1;
        return (i - (static_cast<std::size_t>(slots_[i].vpn) & mask)) &
               mask;
    }

    /** Slot holding @p vpn, or notFound. */
    std::size_t
    find(PageNum vpn) const
    {
        if (slots_.empty())
            return notFound;
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(vpn) & mask;
        for (std::size_t d = 0;; ++d, i = (i + 1) & mask) {
            if (slots_[i].vpn == noVpn || distance(i) < d)
                return notFound;
            if (slots_[i].vpn == vpn)
                return i;
        }
    }

    /** Place @p slot, whose VPN is not mapped, in Robin Hood order;
     *  the table must have a free slot. */
    void insert(Slot slot);

    /** Re-lay the table out at @p capacity slots (a power of two). */
    void rehash(std::size_t capacity);

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::uint64_t mapOps_ = 0;
    std::uint64_t unmapOps_ = 0;
};

} // namespace gps

#endif // GPS_MEM_PAGE_TABLE_HH

/**
 * @file
 * Conventional per-GPU page table.
 *
 * Each GPU holds its own table mapping virtual page numbers to physical
 * frames. A mapping may point at a frame in *another* GPU's memory (a peer
 * mapping, used by RDL and by non-subscriber accesses to GPS pages). The
 * GPS extension is a single repurposed PTE bit (`gpsBit`) that marks the
 * page as potentially replicated, exactly as in the paper's Section 5.2.
 */

#ifndef GPS_MEM_PAGE_TABLE_HH
#define GPS_MEM_PAGE_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
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

/** One GPU's conventional page table. */
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
    const Pte* lookup(PageNum vpn) const;

    /** Mutable access for flag updates; nullptr when not mapped. */
    Pte* lookupMutable(PageNum vpn);

    /** Set or clear the GPS bit; the page must be mapped. */
    void setGpsBit(PageNum vpn, bool value);

    std::size_t size() const { return table_.size(); }

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize every mapping in ascending VPN order (the unordered
     * map's iteration order must not leak into snapshot bytes) plus
     * the op counters.
     */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("pagetable");
        std::vector<PageNum> vpns;
        vpns.reserve(table_.size());
        for (const auto& [vpn, pte] : table_)
            vpns.push_back(vpn);
        std::sort(vpns.begin(), vpns.end());
        out.u64(vpns.size());
        for (const PageNum vpn : vpns) {
            const Pte& pte = table_.at(vpn);
            out.u64(vpn);
            out.u64(pte.ppn);
            out.u32(pte.location);
            out.b(pte.gpsBit);
        }
        out.u64(mapOps_);
        out.u64(unmapOps_);
    }

    /** Counterpart of saveState; replaces the current contents. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("pagetable");
        table_.clear();
        const std::uint64_t n = in.count(1ULL << 40);
        table_.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            const PageNum vpn = in.u64();
            Pte pte;
            pte.ppn = in.u64();
            pte.location = static_cast<GpuId>(in.u32());
            pte.gpsBit = in.b();
            table_.emplace(vpn, pte);
        }
        mapOps_ = in.u64();
        unmapOps_ = in.u64();
    }

  private:
    std::unordered_map<PageNum, Pte> table_;
    std::uint64_t mapOps_ = 0;
    std::uint64_t unmapOps_ = 0;
};

} // namespace gps

#endif // GPS_MEM_PAGE_TABLE_HH

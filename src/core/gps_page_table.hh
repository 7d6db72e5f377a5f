/**
 * @file
 * The GPS page table: a secondary table with very wide leaf PTEs that
 * record, for each GPS virtual page, the physical frame of every
 * subscriber's replica (Section 5.2). It sits off the critical path and
 * is consulted only when the remote write queue drains.
 *
 * Storage is a dense array indexed by vpn - base: GPS regions are
 * contiguous VPN ranges by construction, so a lookup is one bounds
 * check plus an index, and iteration visits PTEs in ascending VPN
 * order (deterministic, unlike the unordered_map it replaced).
 */

#ifndef GPS_CORE_GPS_PAGE_TABLE_HH
#define GPS_CORE_GPS_PAGE_TABLE_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/gpu_mask.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** One subscriber's replica frame. */
struct GpsReplica
{
    GpuId gpu = invalidGpu;
    PageNum ppn = 0;
};

/** Wide-leaf GPS PTE: one replica record per subscriber. */
struct GpsPte
{
    std::vector<GpsReplica> replicas;

    /** Subscriber set as a mask. */
    GpuMask
    subscriberMask() const
    {
        GpuMask mask = 0;
        for (const auto& r : replicas)
            mask = maskSet(mask, r.gpu);
        return mask;
    }

    bool
    hasSubscriber(GpuId gpu) const
    {
        for (const auto& r : replicas) {
            if (r.gpu == gpu)
                return true;
        }
        return false;
    }
};

/** The system-wide GPS page table. */
class GpsPageTable : public SimObject
{
  public:
    explicit GpsPageTable(std::string name = "gps_page_table")
        : SimObject(std::move(name))
    {}

    /** Add (or refresh) @p gpu's replica frame for @p vpn. */
    void addReplica(PageNum vpn, GpuId gpu, PageNum ppn);

    /**
     * Record a new subscriber's replica without scanning for an old
     * one: @p gpu must hold none (asserted in debug builds), which the
     * subscriber mask guarantees because a non-subscriber's replica is
     * always removed with its subscription.
     */
    void appendReplica(PageNum vpn, GpuId gpu, PageNum ppn);

    /** Remove @p gpu's replica record; the PTE dies when empty. */
    void
    removeReplica(PageNum vpn, GpuId gpu)
    {
        removeReplicas(vpn, gpuBit(gpu));
    }

    /**
     * Remove the replica records of every GPU in @p gpus in one stable
     * pass; the PTE dies when empty.
     */
    void removeReplicas(PageNum vpn, const GpuMask& gpus);

    /** PTE for @p vpn, or nullptr. */
    const GpsPte* lookup(PageNum vpn) const;

    /**
     * Size in bits of one leaf PTE for a system of @p num_gpus GPUs
     * given VPN/PPN widths; the paper quotes 126 bits minimum for a
     * 4-GPU system with 33-bit VPNs and 31-bit PPNs.
     */
    static std::uint64_t pteBits(std::size_t num_gpus,
                                 std::uint32_t vpn_bits,
                                 std::uint32_t ppn_bits);

    /** Live (non-empty) PTE count. */
    std::size_t size() const { return live_; }

    /**
     * Visit every live PTE in ascending VPN order (subscription census,
     * Figure 9; reclaim victim scans). @p fn is called as
     * fn(vpn, const GpsPte&); when it returns bool, false stops the
     * scan early.
     */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t i = 0; i < table_.size(); ++i) {
            if (table_[i].replicas.empty())
                continue;
            const PageNum vpn = base_ + static_cast<PageNum>(i);
            if constexpr (std::is_void_v<std::invoke_result_t<
                              Fn, PageNum, const GpsPte&>>) {
                fn(vpn, table_[i]);
            } else {
                if (!fn(vpn, table_[i]))
                    return;
            }
        }
    }

    void registerMetrics(MetricRegistry& reg) const override;

    /** Serialize the dense PTE array (replica lists are ordered). */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("gpstable");
        out.u64(base_);
        out.u64(table_.size());
        for (const GpsPte& pte : table_) {
            out.u64(pte.replicas.size());
            for (const GpsReplica& r : pte.replicas) {
                out.u32(r.gpu);
                out.u64(r.ppn);
            }
        }
        out.u64(live_);
    }

    /**
     * Counterpart of saveState; replaces the current contents.
     * @throws snapshot::SnapshotError on a GPU id of maxGpus or more, a
     *         GPU listed twice in one replica list, or a live count
     *         that differs from the number of non-empty lists
     */
    void restoreState(snapshot::Deserializer& in);

  private:
    /** Slot for @p vpn, growing the dense array to cover it. */
    GpsPte& slot(PageNum vpn);

    /** VPN of table_[0]; meaningful only when table_ is non-empty. */
    PageNum base_ = 0;

    /** Dense array over [base_, base_ + table_.size()). */
    std::vector<GpsPte> table_;

    /** PTEs with at least one replica. */
    std::size_t live_ = 0;
};

} // namespace gps

#endif // GPS_CORE_GPS_PAGE_TABLE_HH

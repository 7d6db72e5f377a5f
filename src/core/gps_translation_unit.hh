/**
 * @file
 * GPS address translation unit (Section 5.2): the wide GPS-TLB backed by
 * the GPS page table, consulted only as remote-write-queue entries drain.
 * Off the critical path by construction; the paper finds 32 entries reach
 * ~100% hit rate (Section 7.4).
 */

#ifndef GPS_CORE_GPS_TRANSLATION_UNIT_HH
#define GPS_CORE_GPS_TRANSLATION_UNIT_HH

#include <memory>

#include "core/gps_config.hh"
#include "core/gps_page_table.hh"
#include "gpu/kernel_counters.hh"
#include "mem/tlb.hh"
#include "sim/sim_object.hh"

namespace gps
{

/** Per-GPU GPS address translation unit. */
class GpsTranslationUnit : public SimObject
{
  public:
    GpsTranslationUnit(std::string name, const GpsConfig& config,
                       const GpsPageTable& table);

    /**
     * Translate a draining entry's page: models the GPS-TLB and, on a
     * miss, the GPS page-table walk.
     * @return the wide PTE (all subscribers' replicas), or nullptr when
     *         the page has no GPS mapping.
     */
    const GpsPte* translate(PageNum vpn, KernelCounters& counters);

    Tlb& gpsTlb() { return *tlb_; }
    const Tlb& gpsTlb() const { return *tlb_; }

    std::uint64_t walks() const { return walks_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /** Serialize the GPS-TLB contents and the walk counter. */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("gpstu");
        tlb_->saveState(out);
        out.u64(walks_);
    }

    /** Counterpart of saveState. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("gpstu");
        tlb_->restoreState(in);
        walks_ = in.u64();
    }

  private:
    const GpsPageTable* table_;
    std::unique_ptr<Tlb> tlb_;
    std::uint64_t walks_ = 0;
};

} // namespace gps

#endif // GPS_CORE_GPS_TRANSLATION_UNIT_HH

/**
 * @file
 * ALS: matrix-factorization recommender trained with Hogwild-style SGD
 * over partitioned ratings. Both factor matrices are read and atomically
 * updated by every GPU — the all-to-all pattern of Table 2. Nearly every
 * shared page collects all subscribers (Figure 9) and the uncoalescable
 * atomic updates make GPS's interconnect traffic the highest of the
 * suite (Figure 10's 4.4x bar).
 */

#ifndef GPS_APPS_ALS_HH
#define GPS_APPS_ALS_HH

#include "apps/workload.hh"

namespace gps::apps
{

/** SGD-based matrix factorization. */
class AlsWorkload : public Workload
{
  public:
    std::string name() const override { return "ALS"; }
    std::string description() const override
    {
        return "Matrix factorization algorithm";
    }
    std::string commPattern() const override { return "All-to-all"; }

    void setup(WorkloadContext& ctx) override;
    std::size_t effectiveIterations() const override { return 60; }
    std::vector<Phase> iteration(std::size_t iter,
                                 WorkloadContext& ctx) override;
    void applyUmHints(WorkloadContext& ctx) override;

  private:
    std::uint64_t users_ = 0;
    std::uint64_t items_ = 0;
    std::uint32_t ratingsPerUser_ = 160;
    Addr userFactors_ = 0;  ///< shared, one 128 B line per user
    Addr itemFactors_ = 0;  ///< shared, one 128 B line per item
    std::vector<Addr> ratings_; ///< private rating slice per GPU
    std::size_t numGpus_ = 0;
};

} // namespace gps::apps

#endif // GPS_APPS_ALS_HH

/**
 * @file
 * Runtime invariant checker: conservation laws the simulator's live
 * structures must satisfy at any quiescent point, independent of the
 * reference model. Each violated law produces a CheckFinding with
 * phase/GPU/page context.
 *
 * Invariants checked:
 *  - RWQ conservation: inserts == drains + resident entries, and
 *    occupancy == sum of resident entry weights (Section 5.2).
 *  - Interconnect conservation: run-total wire bytes equal the sum of
 *    per-link egress bytes, which equal the sum of ingress bytes.
 *  - Uplink conservation (multi-node topologies): each node's uplink
 *    egress bytes equal the bytes the cross-node matrix says left that
 *    node (row sum), its uplink ingress equals the matrix column sum,
 *    and total uplink egress equals total uplink ingress — every byte
 *    that crosses a node boundary does so exactly once.
 *  - Subscription consistency: GPS page-table replicas are a subset of
 *    the driver's PageState::subscribers, no replica sits on an
 *    unallocated (e.g. retired) frame, and the GPS bit is set exactly
 *    for expanded multi-subscriber pages (Section 5.2), on the page
 *    state and on every GPU's mapping of the page.
 *  - Frame accounting: framesFree() agrees with the allocator's
 *    free-list/bump view, and initial frames equal current capacity
 *    plus retirements.
 */

#ifndef GPS_CHECK_INVARIANTS_HH
#define GPS_CHECK_INVARIANTS_HH

#include <string>

#include "check/check_config.hh"

namespace gps
{

class MultiGpuSystem;
class GpsParadigm;

/** Evaluates structural invariants against a live system. */
class InvariantChecker
{
  public:
    /** @param gps the GPS paradigm, or nullptr for other paradigms
     *  (queue and subscription invariants are then skipped). */
    InvariantChecker(MultiGpuSystem& system, GpsParadigm* gps)
        : system_(&system), gps_(gps)
    {}

    /** Every invariant (cadence taps and finalize). */
    void runAll(const std::string& phase, CheckReport& report);

    /**
     * The cheap subset — queues, frames, interconnect — suitable for
     * every kernel end (skips the per-page subscription scan).
     */
    void runCheap(const std::string& phase, CheckReport& report);

    void checkQueues(const std::string& phase, CheckReport& report);
    void checkInterconnect(const std::string& phase, CheckReport& report);
    void checkUplinks(const std::string& phase, CheckReport& report);
    void checkSubscriptions(const std::string& phase,
                            CheckReport& report);
    void checkFrames(const std::string& phase, CheckReport& report);

  private:
    MultiGpuSystem* system_;
    GpsParadigm* gps_;
};

} // namespace gps

#endif // GPS_CHECK_INVARIANTS_HH

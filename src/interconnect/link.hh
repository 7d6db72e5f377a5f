/**
 * @file
 * A single direction of one GPU's interconnect attachment (egress or
 * ingress through the switch). Tracks lifetime bytes and busy time; the
 * phase executor reserves bandwidth per phase and reads back the transfer
 * time.
 */

#ifndef GPS_INTERCONNECT_LINK_HH
#define GPS_INTERCONNECT_LINK_HH

#include <cstdint>

#include "common/types.hh"
#include "interconnect/pcie.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** One direction of one GPU's link to the interconnect switch. */
class Link : public SimObject
{
  public:
    Link(std::string name, const InterconnectSpec& spec)
        : SimObject(std::move(name)), spec_(&spec)
    {}

    /** Time to move @p bytes over this link (0 for infinite BW). */
    Tick transferTime(std::uint64_t bytes) const;

    /** Account @p bytes of traffic taking @p busy ticks. */
    void
    record(std::uint64_t bytes, Tick busy)
    {
        totalBytes_ += bytes;
        busyTime_ += busy;
    }

    const InterconnectSpec& spec() const { return *spec_; }
    std::uint64_t totalBytes() const { return totalBytes_; }
    Tick busyTime() const { return busyTime_; }

    void registerMetrics(MetricRegistry& reg) const override;

    /** Serialize lifetime byte/busy accounting. */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.u64(totalBytes_);
        out.u64(busyTime_);
    }

    /** Counterpart of saveState. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        totalBytes_ = in.u64();
        busyTime_ = in.u64();
    }

  private:
    const InterconnectSpec* spec_;
    std::uint64_t totalBytes_ = 0;
    Tick busyTime_ = 0;
};

} // namespace gps

#endif // GPS_INTERCONNECT_LINK_HH

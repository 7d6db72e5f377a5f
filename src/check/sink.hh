/**
 * @file
 * Observer interface for GPS protocol events.
 *
 * The subscription manager and the GPS paradigm fire these callbacks as
 * the simulated driver mutates subscription state, reading the sink from
 * the system's RunSinks table like the observability collectors: a null
 * entry is the default and costs one pointer test. The differential
 * checker mirrors the events into its reference model so both sides
 * evolve the same page state without the checker ever reaching into
 * timing-model internals.
 */

#ifndef GPS_CHECK_SINK_HH
#define GPS_CHECK_SINK_HH

#include "common/types.hh"

namespace gps
{

/** Receives GPS subscription-protocol events. */
class GpsCheckSink
{
  public:
    virtual ~GpsCheckSink() = default;

    /** @p gpu became a subscriber of @p vpn (replica backed). */
    virtual void noteSubscribe(PageNum vpn, GpuId gpu) = 0;

    /** @p gpu left @p vpn's subscriber set (replica freed). */
    virtual void noteUnsubscribe(PageNum vpn, GpuId gpu) = 0;

    /** @p vpn collapsed to a single copy on @p keeper (Section 5.3). */
    virtual void noteCollapse(PageNum vpn, GpuId keeper) = 0;

    /**
     * Every write queue is about to flush @p vpn (sys-scoped store
     * prelude); fired before the collapse so the reference drains with
     * the pre-collapse subscriber masks, exactly like the simulator.
     */
    virtual void noteSysFlush(PageNum vpn) = 0;

    /** @p gpu's write queue entered/left fault-injected saturation;
     *  invalidGpu addresses every queue. */
    virtual void noteWqSaturation(GpuId gpu, bool saturated) = 0;
};

} // namespace gps

#endif // GPS_CHECK_SINK_HH

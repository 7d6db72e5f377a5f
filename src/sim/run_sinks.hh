/**
 * @file
 * The collectors one run feeds: timeline recorder, profile collector,
 * causal recorder and the differential-validation sink.
 *
 * MultiGpuSystem owns one table; the components that feed a collector
 * (interconnect, driver, GPS write queues and subscription manager,
 * paradigm, fault engine) hold a reference to it and read it in place at
 * each hook, so the Runner fills and clears four pointers instead of
 * threading each collector through every component. A null entry is the
 * default and costs the hook one pointer test.
 */

#ifndef GPS_SIM_RUN_SINKS_HH
#define GPS_SIM_RUN_SINKS_HH

namespace gps
{

class TimelineRecorder;
class ProfileCollector;
class CausalRecorder;
class GpsCheckSink;

/** Per-run collector pointers; each is nullptr when its collector is off. */
struct RunSinks
{
    TimelineRecorder* recorder = nullptr;
    ProfileCollector* profile = nullptr;
    CausalRecorder* causal = nullptr;
    GpsCheckSink* check = nullptr;
};

/** The empty table, for components built outside a MultiGpuSystem. */
inline const RunSinks noSinks{};

} // namespace gps

#endif // GPS_SIM_RUN_SINKS_HH

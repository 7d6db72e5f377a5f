/**
 * @file
 * Switch-based all-to-all interconnect topology plus per-phase traffic
 * accounting.
 *
 * Every GPU attaches to a central switch through one full-duplex link
 * (egress + ingress modeled separately). Contention therefore appears when
 * one GPU broadcasts to many subscribers (egress serialization) or when
 * many GPUs target one destination (ingress serialization) — the
 * first-order effects behind all of the paper's bandwidth results.
 */

#ifndef GPS_INTERCONNECT_TOPOLOGY_HH
#define GPS_INTERCONNECT_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include <algorithm>

#include "common/types.hh"
#include "interconnect/link.hh"
#include "interconnect/pcie.hh"
#include "sim/run_sinks.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

struct FaultReport;

/** Health of the switched path between one pair of GPUs. */
enum class PathHealth : std::uint8_t {
    Healthy,  ///< Full bandwidth.
    Degraded, ///< Working at a fraction of nominal bandwidth.
    Down,     ///< Carries no traffic; flows must reroute.
};

/** Fault state of one GPU pair's path. */
struct PathState
{
    PathHealth health = PathHealth::Healthy;

    /** Usable bandwidth fraction while Degraded, in (0, 1]. */
    double factor = 1.0;
};

/**
 * Per-phase source->destination byte matrix. Wire bytes (payload plus
 * protocol headers) drive timing; payload bytes are tracked separately
 * because the paper's Figure 10 reports data moved, not wire occupancy.
 */
class TrafficMatrix
{
  public:
    explicit TrafficMatrix(std::size_t num_gpus)
        : n_(num_gpus), bytes_(num_gpus * num_gpus, 0),
          egress_(num_gpus, 0), ingress_(num_gpus, 0)
    {}

    /**
     * Account a transfer.
     * @param bytes wire bytes (payload + headers)
     * @param payload payload bytes; defaults to @p bytes
     */
    void
    add(GpuId src, GpuId dst, std::uint64_t bytes,
        std::uint64_t payload = std::uint64_t(-1))
    {
        addWire(src, dst, bytes);
        payload_ += payload == std::uint64_t(-1) ? bytes : payload;
    }

    std::uint64_t
    at(GpuId src, GpuId dst) const
    {
        return bytes_[src * n_ + dst];
    }

    /** Total payload bytes recorded. */
    std::uint64_t payload() const { return payload_; }

    /** Total bytes leaving @p src. */
    std::uint64_t egress(GpuId src) const { return egress_[src]; }

    /** Total bytes arriving at @p dst. */
    std::uint64_t ingress(GpuId dst) const { return ingress_[dst]; }

    /** Total bytes moved. */
    std::uint64_t total() const;

    std::size_t numGpus() const { return n_; }

    void clear();

    /**
     * Remove and return the wire bytes of one cell without touching the
     * payload total; used by fault rerouting, which moves wire occupancy
     * but not the "data moved" metric.
     */
    std::uint64_t takeWire(GpuId src, GpuId dst);

    /** Add wire bytes without affecting the payload total. */
    void
    addWire(GpuId src, GpuId dst, std::uint64_t bytes)
    {
        bytes_[src * n_ + dst] += bytes;
        egress_[src] += bytes;
        ingress_[dst] += bytes;
    }

  private:
    std::size_t n_;
    std::vector<std::uint64_t> bytes_;

    /** Row and column sums of bytes_, kept with every cell update. */
    std::vector<std::uint64_t> egress_;
    std::vector<std::uint64_t> ingress_;

    std::uint64_t payload_ = 0;
};

/** The system interconnect: one full-duplex link per GPU, via a switch. */
class Topology : public SimObject
{
  public:
    /**
     * @param bandwidth_scale what-if multiplier on the spec's link
     *        bandwidth; at exactly 1.0 the topology keeps pointing at
     *        the static spec (byte-identical fast path).
     * @param sinks collectors fed per non-idle link direction: timeline
     *        transfers at the recorder's current stamp, profile
     *        link-busy times, causal link-transfer edges
     */
    Topology(std::string name, std::size_t num_gpus,
             InterconnectKind kind, double bandwidth_scale = 1.0,
             const RunSinks& sinks = noSinks);

    ~Topology() override = default;

    const InterconnectSpec& spec() const { return *spec_; }
    std::size_t numGpus() const { return numGpus_; }

    Link& egressLink(GpuId gpu) { return *egress_.at(gpu); }
    Link& ingressLink(GpuId gpu) { return *ingress_.at(gpu); }

    /**
     * Account a phase's traffic matrix against the links and return the
     * time the busiest link needs: max over GPUs of
     * max(egress_time, ingress_time).
     */
    virtual Tick applyPhaseTraffic(const TrafficMatrix& traffic);

    /**
     * Time @p gpu needs to push its share of @p traffic out: the egress
     * link serialization, plus (in tiered topologies) any shared uplink
     * serialization its cross-node flows contend for.
     */
    virtual Tick
    egressTime(const TrafficMatrix& traffic, GpuId gpu) const
    {
        return linkTime(traffic.egress(gpu));
    }

    /** Ingress-side counterpart of egressTime. */
    virtual Tick
    ingressTime(const TrafficMatrix& traffic, GpuId gpu) const
    {
        return linkTime(traffic.ingress(gpu));
    }

    /** Time to move @p bytes over one link direction. */
    Tick linkTime(std::uint64_t bytes) const;

    /** One-way message latency. */
    Tick latency() const { return spec_->latency; }

    /** Lifetime wire bytes moved over the whole interconnect. */
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Lifetime payload bytes (the Figure 10 "data moved" metric). */
    std::uint64_t totalPayloadBytes() const { return totalPayload_; }

    // --- Fault state (see src/fault/) ---

    /**
     * Set the health of the path between @p a and @p b (symmetric).
     * Healthy erases the entry, so a fault-free topology stays fault-free
     * in the fast-path check below.
     */
    void setPathState(GpuId a, GpuId b, PathHealth health,
                      double factor = 1.0);

    /** Current state of the pair's path (Healthy when never faulted). */
    PathState pathState(GpuId a, GpuId b) const;

    /** Whether any path currently carries fault state. */
    bool anyPathFault() const { return !paths_.empty(); }

    /** Allow/forbid host-staged PCIe fallback for dead partitions. */
    void setPcieFallback(bool allow) { pcieFallback_ = allow; }

    /**
     * Rewrite @p traffic so no flow crosses a Down path and Degraded
     * paths pay their bandwidth penalty as inflated wire bytes. Down
     * flows move to a relay GPU when one is reachable, else to the PCIe
     * fallback; fatal when a partition is unreachable and the fallback is
     * disabled. No-op when no path carries fault state.
     */
    void routeAroundFaults(TrafficMatrix& traffic,
                           FaultReport& report) const;

    void registerMetrics(MetricRegistry& reg) const override;

    /**
     * Serialize link accounting, lifetime totals, and fault path state
     * (sorted by path key — the unordered map feeds only key-addressed
     * lookups, but snapshot bytes must be deterministic).
     */
    virtual void
    saveState(snapshot::Serializer& out) const
    {
        out.section("topology");
        out.u64(numGpus_);
        for (const auto& link : egress_)
            link->saveState(out);
        for (const auto& link : ingress_)
            link->saveState(out);
        out.u64(totalBytes_);
        out.u64(totalPayload_);
        std::vector<std::uint32_t> keys;
        keys.reserve(paths_.size());
        for (const auto& [key, st] : paths_)
            keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        out.u64(keys.size());
        for (const std::uint32_t key : keys) {
            const PathState& st = paths_.at(key);
            out.u32(key);
            out.u8(static_cast<std::uint8_t>(st.health));
            out.f64(st.factor);
        }
        out.b(pcieFallback_);
    }

    /** Counterpart of saveState. */
    virtual void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("topology");
        if (in.u64() != numGpus_)
            throw snapshot::SnapshotError(
                "snapshot GPU count differs from the configured "
                "topology");
        for (auto& link : egress_)
            link->restoreState(in);
        for (auto& link : ingress_)
            link->restoreState(in);
        totalBytes_ = in.u64();
        totalPayload_ = in.u64();
        paths_.clear();
        const std::uint64_t n = in.count(1ULL << 32);
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint32_t key = in.u32();
            PathState st;
            st.health = decodePathHealth(in.u8());
            st.factor = in.f64();
            paths_.emplace(key, st);
        }
        pcieFallback_ = in.b();
    }

  protected:
    /**
     * Validate a serialized PathHealth: a corrupt or hand-edited
     * snapshot must not resume with an out-of-range enum (every switch
     * over the health would be undefined behavior).
     */
    static PathHealth
    decodePathHealth(std::uint8_t raw)
    {
        if (raw > static_cast<std::uint8_t>(PathHealth::Down))
            throw snapshot::SnapshotError(
                "corrupt snapshot: path health value out of range");
        return static_cast<PathHealth>(raw);
    }

    static std::uint32_t
    pathKey(GpuId a, GpuId b)
    {
        const std::uint32_t lo = a < b ? a : b;
        const std::uint32_t hi = a < b ? b : a;
        return (lo << 16) | hi;
    }

    /** First GPU both endpoints can still reach; invalidGpu if none. */
    GpuId findRelay(GpuId src, GpuId dst) const;

    std::size_t numGpus_;

    /** Scaled copy backing spec_ when bandwidth_scale != 1.0. */
    InterconnectSpec ownedSpec_;
    const InterconnectSpec* spec_;
    std::vector<std::unique_ptr<Link>> egress_;
    std::vector<std::unique_ptr<Link>> ingress_;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalPayload_ = 0;
    std::unordered_map<std::uint32_t, PathState> paths_;
    bool pcieFallback_ = true;
    const RunSinks& sinks_;
};

} // namespace gps

#endif // GPS_INTERCONNECT_TOPOLOGY_HH

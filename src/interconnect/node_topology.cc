#include "interconnect/node_topology.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/units.hh"
#include "interconnect/platforms.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"

namespace gps
{

NodeTopology::NodeTopology(std::string name, std::size_t num_gpus,
                           std::size_t num_nodes,
                           InterconnectKind intra_kind,
                           InterconnectKind inter_kind,
                           double bandwidth_scale, const RunSinks& sinks)
    : Topology(std::move(name), num_gpus, intra_kind, bandwidth_scale,
               sinks),
      numNodes_(num_nodes),
      gpusPerNode_(num_nodes > 0 ? num_gpus / num_nodes : 0),
      interSpec_(&interconnectSpec(inter_kind))
{
    if (num_nodes < 1)
        gps_fatal("node topology needs at least one node");
    if (num_gpus % num_nodes != 0)
        gps_fatal("GPU count ", num_gpus,
                  " not divisible by node count ", num_nodes);
    if (bandwidth_scale != 1.0 && !interSpec_->infinite) {
        ownedInterSpec_ = *interSpec_;
        ownedInterSpec_.bandwidth *= bandwidth_scale;
        interSpec_ = &ownedInterSpec_;
    }
    for (std::size_t n = 0; n < numNodes_; ++n) {
        upEgress_.push_back(std::make_unique<Link>(
            this->name() + ".node" + std::to_string(n) +
                ".uplink.egress",
            *interSpec_));
        upIngress_.push_back(std::make_unique<Link>(
            this->name() + ".node" + std::to_string(n) +
                ".uplink.ingress",
            *interSpec_));
    }
    cross_.assign(numNodes_ * numNodes_, 0);
    uplinkFaults_.assign(numNodes_, PathState{});
}

std::uint64_t
NodeTopology::totalCrossNodeBytes() const
{
    std::uint64_t sum = 0;
    for (const std::uint64_t b : cross_)
        sum += b;
    return sum;
}

void
NodeTopology::setUplinkState(std::size_t node, PathHealth health,
                             double factor)
{
    // Fatal rather than assert: bad node ids can arrive straight from a
    // user's fault spec.
    if (node >= numNodes_)
        gps_fatal("bad uplink node ", node, " (", numNodes_, " nodes)");
    if (factor <= 0.0 || factor > 1.0)
        gps_fatal("degrade factor out of (0, 1]: ", factor);
    uplinkFaults_[node] = PathState{
        health, health == PathHealth::Degraded ? factor : 1.0};
}

Tick
NodeTopology::uplinkTime(std::size_t node, std::uint64_t bytes) const
{
    if (bytes == 0 || interSpec_->infinite)
        return 0;
    const PathState& fault = uplinkFaults_[node];
    double bw = interSpec_->bandwidth;
    if (fault.health == PathHealth::Degraded) {
        bw *= fault.factor;
    } else if (fault.health == PathHealth::Down) {
        // Host-staged fallback: both directions share the host bridge,
        // so a dead uplink effectively sees half of a PCIe 3.0 link.
        if (!pcieFallback_)
            gps_fatal("node ", node, " uplink is down and PCIe fallback ",
                      "is disabled: partition unreachable");
        bw = interconnectSpec(InterconnectKind::Pcie3).bandwidth / 2.0;
    }
    return interSpec_->latency + transferTicks(bytes, bw);
}

std::uint64_t
NodeTopology::crossEgress(const TrafficMatrix& traffic,
                          std::size_t node) const
{
    std::uint64_t sum = 0;
    const GpuId first = static_cast<GpuId>(node * gpusPerNode_);
    for (GpuId src = first; src < first + gpusPerNode_; ++src) {
        sum += traffic.egress(src);
        // Subtract the intra-node share so only cross-node flows remain.
        for (GpuId dst = first; dst < first + gpusPerNode_; ++dst)
            sum -= traffic.at(src, dst);
    }
    return sum;
}

std::uint64_t
NodeTopology::crossIngress(const TrafficMatrix& traffic,
                           std::size_t node) const
{
    std::uint64_t sum = 0;
    const GpuId first = static_cast<GpuId>(node * gpusPerNode_);
    for (GpuId dst = first; dst < first + gpusPerNode_; ++dst) {
        sum += traffic.ingress(dst);
        for (GpuId src = first; src < first + gpusPerNode_; ++src)
            sum -= traffic.at(src, dst);
    }
    return sum;
}

Tick
NodeTopology::egressTime(const TrafficMatrix& traffic, GpuId gpu) const
{
    const std::size_t node = nodeOf(gpu);
    return std::max(linkTime(traffic.egress(gpu)),
                    uplinkTime(node, crossEgress(traffic, node)));
}

Tick
NodeTopology::ingressTime(const TrafficMatrix& traffic, GpuId gpu) const
{
    const std::size_t node = nodeOf(gpu);
    return std::max(linkTime(traffic.ingress(gpu)),
                    uplinkTime(node, crossIngress(traffic, node)));
}

Tick
NodeTopology::applyPhaseTraffic(const TrafficMatrix& traffic)
{
    Tick worst = Topology::applyPhaseTraffic(traffic);
    for (std::size_t s = 0; s < numNodes_; ++s) {
        // Node->node wire bytes feed both the uplink accounting and the
        // lifetime cross matrix the conservation law checks against.
        std::uint64_t out = 0;
        for (std::size_t d = 0; d < numNodes_; ++d) {
            if (s == d)
                continue;
            std::uint64_t pair = 0;
            for (std::size_t sg = 0; sg < gpusPerNode_; ++sg)
                for (std::size_t dg = 0; dg < gpusPerNode_; ++dg)
                    pair += traffic.at(
                        static_cast<GpuId>(s * gpusPerNode_ + sg),
                        static_cast<GpuId>(d * gpusPerNode_ + dg));
            cross_[s * numNodes_ + d] += pair;
            out += pair;
        }
        const std::uint64_t in = crossIngress(traffic, s);
        const Tick out_time = uplinkTime(s, out);
        const Tick in_time = uplinkTime(s, in);
        upEgress_[s]->record(out, out_time);
        upIngress_[s]->record(in, in_time);
        worst = std::max({worst, out_time, in_time});
        if (ProfileCollector* prof = sinks_.profile) {
            if (out > 0)
                prof->noteLinkBusy(out_time);
            if (in > 0)
                prof->noteLinkBusy(in_time);
        }
        if (TimelineRecorder* rec = sinks_.recorder) {
            const int tid =
                TimelineRecorder::uplinkTidBase + static_cast<int>(s);
            if (out > 0)
                rec->complete(tid, "uplink.egress", "link", rec->now(),
                              out_time,
                              {{"bytes", static_cast<double>(out)}});
            if (in > 0)
                rec->complete(tid, "uplink.ingress", "link", rec->now(),
                              in_time,
                              {{"bytes", static_cast<double>(in)}});
        }
    }
    return worst;
}

void
NodeTopology::registerMetrics(MetricRegistry& reg) const
{
    Topology::registerMetrics(reg);
    const std::string p = name() + '.';
    reg.counter(p + "cross_node_bytes", "bytes", [this] {
        return static_cast<double>(totalCrossNodeBytes());
    });
    reg.gauge(p + "uplink_faults", "uplinks", [this] {
        std::size_t n = 0;
        for (const PathState& st : uplinkFaults_)
            if (st.health != PathHealth::Healthy)
                ++n;
        return static_cast<double>(n);
    });
    for (const auto& link : upEgress_)
        link->registerMetrics(reg);
    for (const auto& link : upIngress_)
        link->registerMetrics(reg);
}

void
NodeTopology::saveState(snapshot::Serializer& out) const
{
    Topology::saveState(out);
    out.section("nodetopology");
    out.u64(numNodes_);
    for (const auto& link : upEgress_)
        link->saveState(out);
    for (const auto& link : upIngress_)
        link->saveState(out);
    for (const std::uint64_t b : cross_)
        out.u64(b);
    for (const PathState& st : uplinkFaults_) {
        out.u8(static_cast<std::uint8_t>(st.health));
        out.f64(st.factor);
    }
}

void
NodeTopology::restoreState(snapshot::Deserializer& in)
{
    Topology::restoreState(in);
    in.section("nodetopology");
    if (in.u64() != numNodes_)
        throw snapshot::SnapshotError(
            "snapshot node count differs from the configured topology");
    for (auto& link : upEgress_)
        link->restoreState(in);
    for (auto& link : upIngress_)
        link->restoreState(in);
    for (std::uint64_t& b : cross_)
        b = in.u64();
    for (PathState& st : uplinkFaults_) {
        st.health = decodePathHealth(in.u8());
        st.factor = in.f64();
    }
}

} // namespace gps

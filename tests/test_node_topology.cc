/**
 * @file
 * Unit tests for the hierarchical two-tier interconnect: node
 * assignment, uplink serialization and conservation, per-tier fault
 * injection, snapshot round-trips, and the flat-equivalence guarantees
 * (a single node behaves exactly like the flat switched topology, and
 * a checked multi-node GPS run must not diverge from the reference).
 */

#include <gtest/gtest.h>

#include "api/runner.hh"
#include "api/system.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "interconnect/node_topology.hh"
#include "interconnect/platforms.hh"
#include "interconnect/topology.hh"

namespace gps
{
namespace
{

/** 16 GPUs in 4 nodes of 4, NVLink intra, InfiniBand NDR uplinks. */
NodeTopology
makeTopo()
{
    return NodeTopology("ic", 16, 4, InterconnectKind::NvLink3,
                        InterconnectKind::IbNdr);
}

TEST(NodeTopology, NodesAreContiguousGpuRanges)
{
    NodeTopology topo = makeTopo();
    EXPECT_EQ(topo.numNodes(), 4u);
    EXPECT_EQ(topo.gpusPerNode(), 4u);
    EXPECT_EQ(topo.nodeOf(0), 0u);
    EXPECT_EQ(topo.nodeOf(3), 0u);
    EXPECT_EQ(topo.nodeOf(4), 1u);
    EXPECT_EQ(topo.nodeOf(15), 3u);
}

TEST(NodeTopology, RejectsIndivisibleGpuCount)
{
    EXPECT_THROW(NodeTopology("ic", 10, 4, InterconnectKind::NvLink3,
                              InterconnectKind::IbNdr),
                 FatalError);
}

TEST(NodeTopology, IntraNodeTrafficSkipsUplink)
{
    NodeTopology topo = makeTopo();
    Topology flat("flat", 16, InterconnectKind::NvLink3);
    TrafficMatrix traffic(16);
    traffic.add(0, 1, 16'000'000); // both in node 0
    traffic.add(5, 6, 8'000'000);  // both in node 1
    const Tick hier_t = topo.applyPhaseTraffic(traffic);
    const Tick flat_t = flat.applyPhaseTraffic(traffic);
    EXPECT_EQ(hier_t, flat_t);
    EXPECT_EQ(topo.totalCrossNodeBytes(), 0u);
    for (std::size_t n = 0; n < topo.numNodes(); ++n) {
        EXPECT_EQ(topo.uplinkEgress(n).totalBytes(), 0u);
        EXPECT_EQ(topo.uplinkIngress(n).totalBytes(), 0u);
    }
}

TEST(NodeTopology, CrossNodeFlowSerializesOnUplink)
{
    NodeTopology topo = makeTopo();
    Topology flat("flat", 16, InterconnectKind::NvLink3);
    TrafficMatrix traffic(16);
    traffic.add(0, 4, 16'000'000); // node 0 -> node 1
    const Tick hier_t = topo.applyPhaseTraffic(traffic);
    const Tick flat_t = flat.applyPhaseTraffic(traffic);
    // The IbNdr uplink is far thinner than an NVLink 3.0 link, so the
    // same flow takes longer through the node tier.
    EXPECT_GT(hier_t, flat_t);
    EXPECT_EQ(topo.crossNodeBytes(0, 1), 16'000'000u);
    EXPECT_EQ(topo.uplinkEgress(0).totalBytes(), 16'000'000u);
    EXPECT_EQ(topo.uplinkIngress(1).totalBytes(), 16'000'000u);
}

TEST(NodeTopology, UplinkConservationLaws)
{
    NodeTopology topo = makeTopo();
    TrafficMatrix traffic(16);
    traffic.add(0, 4, 1000);  // n0 -> n1
    traffic.add(0, 8, 2000);  // n0 -> n2
    traffic.add(5, 12, 4000); // n1 -> n3
    traffic.add(9, 1, 8000);  // n2 -> n0
    traffic.add(2, 3, 500);   // intra n0: must not touch uplinks
    topo.applyPhaseTraffic(traffic);
    topo.applyPhaseTraffic(traffic); // accumulate two phases

    std::uint64_t egress_sum = 0;
    std::uint64_t ingress_sum = 0;
    for (std::size_t n = 0; n < topo.numNodes(); ++n) {
        std::uint64_t row = 0;
        std::uint64_t col = 0;
        for (std::size_t m = 0; m < topo.numNodes(); ++m) {
            row += topo.crossNodeBytes(n, m);
            col += topo.crossNodeBytes(m, n);
        }
        EXPECT_EQ(topo.uplinkEgress(n).totalBytes(), row) << "node " << n;
        EXPECT_EQ(topo.uplinkIngress(n).totalBytes(), col)
            << "node " << n;
        egress_sum += row;
        ingress_sum += col;
    }
    EXPECT_EQ(egress_sum, ingress_sum);
    EXPECT_EQ(egress_sum, 2u * (1000 + 2000 + 4000 + 8000));
    EXPECT_EQ(topo.totalCrossNodeBytes(), egress_sum);
}

TEST(NodeTopology, EgressTimeIncludesUplinkSerialization)
{
    NodeTopology topo = makeTopo();
    TrafficMatrix traffic(16);
    traffic.add(0, 4, 16'000'000);
    // The per-GPU NVLink egress is fast; the shared uplink dominates.
    EXPECT_GT(topo.egressTime(traffic, 0),
              topo.linkTime(traffic.egress(0)));
    EXPECT_GT(topo.ingressTime(traffic, 4),
              topo.linkTime(traffic.ingress(4)));
    // GPUs in uninvolved nodes see no uplink component.
    EXPECT_EQ(topo.egressTime(traffic, 8),
              topo.linkTime(traffic.egress(8)));
}

TEST(NodeTopology, SharedUplinkContendsAcrossNodeMates)
{
    NodeTopology topo = makeTopo();
    TrafficMatrix traffic(16);
    // Four GPUs of node 0 each send to a distinct node-1 GPU: their
    // per-GPU links carry one flow each, but the shared uplink carries
    // all four.
    for (GpuId g = 0; g < 4; ++g)
        traffic.add(g, static_cast<GpuId>(4 + g), 4'000'000);
    const Tick single = topo.uplinkEgress(0).spec().infinite
                            ? 0
                            : topo.egressTime(traffic, 0);
    TrafficMatrix one(16);
    one.add(0, 4, 4'000'000);
    EXPECT_GT(single, topo.egressTime(one, 0));
}

TEST(NodeTopology, DegradedUplinkStretchesTransfer)
{
    NodeTopology topo = makeTopo();
    TrafficMatrix traffic(16);
    traffic.add(0, 4, 16'000'000);
    const Tick healthy = topo.egressTime(traffic, 0);
    topo.setUplinkState(0, PathHealth::Degraded, 0.25);
    const Tick degraded = topo.egressTime(traffic, 0);
    EXPECT_GT(degraded, healthy);
    EXPECT_EQ(topo.uplinkState(0).health, PathHealth::Degraded);
    topo.setUplinkState(0, PathHealth::Healthy);
    EXPECT_EQ(topo.egressTime(traffic, 0), healthy);
}

TEST(NodeTopology, DownUplinkFallsBackToPcie)
{
    NodeTopology topo = makeTopo();
    TrafficMatrix traffic(16);
    traffic.add(0, 4, 16'000'000);
    const Tick healthy = topo.egressTime(traffic, 0);
    topo.setUplinkState(0, PathHealth::Down);
    const Tick fallback = topo.egressTime(traffic, 0);
    EXPECT_GT(fallback, healthy);
    // With the host-staged fallback forbidden, a dead uplink makes the
    // partition unreachable: fatal, not silent.
    topo.setPcieFallback(false);
    EXPECT_THROW(topo.egressTime(traffic, 0), FatalError);
}

TEST(NodeTopology, SnapshotRoundTripIsByteIdentical)
{
    NodeTopology topo = makeTopo();
    TrafficMatrix traffic(16);
    traffic.add(0, 4, 1000);
    traffic.add(9, 1, 500);
    topo.applyPhaseTraffic(traffic);
    topo.setUplinkState(2, PathHealth::Degraded, 0.5);
    topo.setPathState(0, 1, PathHealth::Down);

    snapshot::Serializer out;
    topo.saveState(out);

    NodeTopology restored = makeTopo();
    snapshot::Deserializer in(out.bytes());
    restored.restoreState(in);
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(restored.totalCrossNodeBytes(),
              topo.totalCrossNodeBytes());
    EXPECT_EQ(restored.uplinkState(2).health, PathHealth::Degraded);

    snapshot::Serializer again;
    restored.saveState(again);
    EXPECT_EQ(again.bytes(), out.bytes());
}

TEST(NodeTopology, RestoreRejectsCorruptUplinkHealth)
{
    NodeTopology topo = makeTopo();
    snapshot::Serializer out;
    topo.saveState(out);
    // The serialization ends with numNodes (health u8, factor f64)
    // records; corrupt the last node's health byte.
    std::string bytes = out.bytes();
    ASSERT_GE(bytes.size(), 9u);
    bytes[bytes.size() - 9] = 7;
    NodeTopology restored = makeTopo();
    snapshot::Deserializer in(bytes);
    EXPECT_THROW(restored.restoreState(in), snapshot::SnapshotError);
}

TEST(NodeTopology, RestoreRejectsWrongNodeCount)
{
    NodeTopology topo = makeTopo();
    snapshot::Serializer out;
    topo.saveState(out);
    NodeTopology other("ic", 16, 2, InterconnectKind::NvLink3,
                       InterconnectKind::IbNdr);
    snapshot::Deserializer in(out.bytes());
    EXPECT_THROW(other.restoreState(in), snapshot::SnapshotError);
}

TEST(NodeTopology, SingleNodeMatchesFlatTopology)
{
    NodeTopology hier("ic", 4, 1, InterconnectKind::Pcie3,
                      InterconnectKind::IbNdr);
    Topology flat("ic", 4, InterconnectKind::Pcie3);
    TrafficMatrix traffic(4);
    traffic.add(0, 1, 16'000'000);
    traffic.add(2, 3, 4'000'000);
    traffic.add(1, 2, 1'000'000);
    EXPECT_EQ(hier.applyPhaseTraffic(traffic),
              flat.applyPhaseTraffic(traffic));
    for (GpuId g = 0; g < 4; ++g) {
        EXPECT_EQ(hier.egressTime(traffic, g),
                  flat.egressTime(traffic, g));
        EXPECT_EQ(hier.ingressTime(traffic, g),
                  flat.ingressTime(traffic, g));
    }
    EXPECT_EQ(hier.totalCrossNodeBytes(), 0u);
}

// --- Regression tests for the flat-topology stats/restore fixes ---

TEST(Topology, ExportStatsIncludesTotalPayloadBytes)
{
    Topology topo("ic", 2, InterconnectKind::Pcie3);
    TrafficMatrix traffic(2);
    traffic.add(0, 1, 1000, 900);
    topo.applyPhaseTraffic(traffic);
    StatSet stats;
    topo.exportStats(stats);
    ASSERT_TRUE(stats.has("ic.total_payload_bytes"));
    EXPECT_DOUBLE_EQ(stats.get("ic.total_payload_bytes"), 900.0);
    EXPECT_DOUBLE_EQ(stats.get("ic.total_bytes"), 1000.0);
}

TEST(Topology, RestoreRejectsCorruptPathHealth)
{
    Topology topo("ic", 2, InterconnectKind::Pcie3);
    topo.setPathState(0, 1, PathHealth::Degraded, 0.5);
    snapshot::Serializer out;
    topo.saveState(out);
    // Layout tail: ... u8(health) f64(factor) b(pcieFallback), so the
    // health byte of the single path record sits 10 bytes from the end.
    std::string bytes = out.bytes();
    ASSERT_GE(bytes.size(), 10u);
    bytes[bytes.size() - 10] = 9;
    Topology restored("ic", 2, InterconnectKind::Pcie3);
    snapshot::Deserializer in(bytes);
    EXPECT_THROW(restored.restoreState(in), snapshot::SnapshotError);
}

// --- System wiring and end-to-end equivalence ---

TEST(NodeSystem, SingleNodeBuildsFlatTopology)
{
    SystemConfig config;
    config.numGpus = 4;
    config.numNodes = 1;
    MultiGpuSystem system(config);
    EXPECT_EQ(dynamic_cast<NodeTopology*>(&system.topology()), nullptr);
}

TEST(NodeSystem, MultiNodeBuildsNodeTopology)
{
    SystemConfig config;
    config.numGpus = 4;
    config.numNodes = 2;
    MultiGpuSystem system(config);
    auto* topo = dynamic_cast<NodeTopology*>(&system.topology());
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->numNodes(), 2u);
    EXPECT_EQ(topo->gpusPerNode(), 2u);
}

TEST(NodeSystem, MultiNodeRejectsIndivisibleGpuCount)
{
    SystemConfig config;
    config.numGpus = 6;
    config.numNodes = 4;
    EXPECT_THROW(MultiGpuSystem system(config), FatalError);
}

RunConfig
nodeRunConfig(std::size_t gpus, std::size_t nodes, bool hierarchical)
{
    RunConfig config;
    config.system.numGpus = gpus;
    config.system.interconnect = InterconnectKind::NvLink3;
    config.system.numNodes = nodes;
    config.system.interNode = InterconnectKind::IbNdr;
    config.system.gps.hierarchicalSubscription = hierarchical;
    config.paradigm = ParadigmKind::Gps;
    config.scale = 0.05;
    return config;
}

TEST(NodeSystem, SingleNodeRunIsByteIdenticalToFlat)
{
    RunConfig flat;
    flat.system.numGpus = 4;
    flat.system.interconnect = InterconnectKind::NvLink3;
    flat.paradigm = ParadigmKind::Gps;
    flat.scale = 0.05;
    // numNodes = 1 must be indistinguishable from a build without the
    // node tier, whatever the (unused) inter-node fabric says.
    RunConfig single = flat;
    single.system.numNodes = 1;
    single.system.interNode = InterconnectKind::IbHdr;

    const RunResult a = runWorkload("Jacobi", flat);
    const RunResult b = runWorkload("Jacobi", single);
    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.interconnectBytes, b.interconnectBytes);
    EXPECT_EQ(a.totals.pushedStoreBytes, b.totals.pushedStoreBytes);
    EXPECT_DOUBLE_EQ(a.stats.get("gps.uplink_forwards"), 0.0);
    EXPECT_DOUBLE_EQ(b.stats.get("gps.uplink_forwards"), 0.0);
}

TEST(NodeSystem, HierarchicalNeverSlowerAndPaysUplinkOncePerNode)
{
    const RunResult flat = runWorkload("Jacobi",
                                       nodeRunConfig(8, 2, false));
    const RunResult hier = runWorkload("Jacobi",
                                       nodeRunConfig(8, 2, true));
    // Same data delivered either way; only wire placement differs.
    EXPECT_EQ(hier.totals.pushedStoreBytes, flat.totals.pushedStoreBytes);
    EXPECT_LE(hier.totalTime, flat.totalTime);
    // Proxy fan-out crosses the boundary at most once per remote node,
    // so it can never produce more uplink messages than flat forwarding.
    const double flat_up = flat.stats.get("gps.uplink_forwards");
    const double hier_up = hier.stats.get("gps.uplink_forwards");
    EXPECT_GT(flat_up, 0.0);
    EXPECT_GT(hier_up, 0.0);
    EXPECT_LE(hier_up, flat_up);
}

TEST(NodeSystem, CheckedMultiNodeRunsDoNotDiverge)
{
    for (const bool hierarchical : {false, true}) {
        RunConfig config = nodeRunConfig(4, 2, hierarchical);
        config.check.enabled = true;
        const RunResult result = runWorkload("Jacobi", config);
        ASSERT_NE(result.check, nullptr);
        EXPECT_EQ(result.check->divergences, 0u)
            << (hierarchical ? "hierarchical" : "flat")
            << " forwarding diverged: "
            << (result.check->findings.empty()
                    ? std::string("(no findings captured)")
                    : describe(result.check->findings.front()));
    }
}

} // namespace
} // namespace gps

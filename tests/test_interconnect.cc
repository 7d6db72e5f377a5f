/**
 * @file
 * Unit tests for interconnect specs, the Figure 3 platform survey,
 * traffic matrices and the topology timing model.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/units.hh"
#include "interconnect/pcie.hh"
#include "interconnect/platforms.hh"
#include "interconnect/topology.hh"

namespace gps
{
namespace
{

TEST(InterconnectSpec, PcieGenerationsDoublePerGen)
{
    EXPECT_DOUBLE_EQ(interconnectSpec(InterconnectKind::Pcie3).bandwidth,
                     16.0 * GBps);
    EXPECT_DOUBLE_EQ(interconnectSpec(InterconnectKind::Pcie4).bandwidth,
                     32.0 * GBps);
    EXPECT_DOUBLE_EQ(interconnectSpec(InterconnectKind::Pcie5).bandwidth,
                     64.0 * GBps);
    // The paper's projected PCIe 6.0 operates at 128 GB/s.
    EXPECT_DOUBLE_EQ(interconnectSpec(InterconnectKind::Pcie6).bandwidth,
                     128.0 * GBps);
}

TEST(InterconnectSpec, InfiniteIsFlagged)
{
    const InterconnectSpec& spec =
        interconnectSpec(InterconnectKind::Infinite);
    EXPECT_TRUE(spec.infinite);
    EXPECT_EQ(spec.latency, 0u);
}

TEST(InterconnectSpec, Figure13SweepIsPcie3To6)
{
    const auto sweep = figure13Sweep();
    ASSERT_EQ(sweep.size(), 4u);
    EXPECT_EQ(sweep.front(), InterconnectKind::Pcie3);
    EXPECT_EQ(sweep.back(), InterconnectKind::Pcie6);
}

TEST(Platforms, RemoteBandwidthImproved38x)
{
    const auto& platforms = figure3Platforms();
    ASSERT_EQ(platforms.size(), 5u);
    const double improvement =
        platforms.back().remoteGBps / platforms.front().remoteGBps;
    EXPECT_NEAR(improvement, 38.0, 1.0);
}

TEST(Platforms, LocalRemoteGapPersistsNear3x)
{
    // The paper's Figure 3 point: a ~3x gap persists on every platform.
    for (const PlatformSpec& p : figure3Platforms()) {
        EXPECT_GE(p.gap(), 2.5) << p.name;
        EXPECT_LE(p.gap(), 20.0) << p.name;
    }
    EXPECT_NEAR(figure3Platforms().back().gap(), 3.0, 0.5);
}

TEST(TrafficMatrix, EgressIngressRowColumnSums)
{
    TrafficMatrix traffic(3);
    traffic.add(0, 1, 100);
    traffic.add(0, 2, 50);
    traffic.add(2, 1, 25);
    EXPECT_EQ(traffic.egress(0), 150u);
    EXPECT_EQ(traffic.ingress(1), 125u);
    EXPECT_EQ(traffic.total(), 175u);
    EXPECT_EQ(traffic.at(0, 1), 100u);
}

TEST(TrafficMatrix, PayloadDefaultsToWireBytes)
{
    TrafficMatrix traffic(2);
    traffic.add(0, 1, 100);
    EXPECT_EQ(traffic.payload(), 100u);
}

TEST(TrafficMatrix, PayloadTracksSeparately)
{
    TrafficMatrix traffic(2);
    traffic.add(0, 1, 152, 128);
    traffic.add(0, 1, 24, 0);
    EXPECT_EQ(traffic.total(), 176u);
    EXPECT_EQ(traffic.payload(), 128u);
}

TEST(TrafficMatrix, ClearResetsEverything)
{
    TrafficMatrix traffic(2);
    traffic.add(0, 1, 100, 90);
    traffic.clear();
    EXPECT_EQ(traffic.total(), 0u);
    EXPECT_EQ(traffic.payload(), 0u);
}

TEST(TrafficMatrix, KeptTotalsMatchTheCellSums)
{
    // egress/ingress are running row and column totals; every way of
    // editing a cell (add, addWire, takeWire, clear) must keep them
    // equal to the sums of the cells.
    constexpr std::size_t n = 6;
    TrafficMatrix traffic(n);
    Rng rng(7);
    for (int step = 0; step < 2000; ++step) {
        const GpuId src = static_cast<GpuId>(rng.below(n));
        const GpuId dst = static_cast<GpuId>(rng.below(n));
        switch (rng.below(8)) {
          case 0:
            (void)traffic.takeWire(src, dst);
            break;
          case 1:
            traffic.addWire(src, dst, rng.below(1000));
            break;
          case 2:
            if (rng.below(50) == 0)
                traffic.clear();
            break;
          default:
            traffic.add(src, dst, rng.below(1000), rng.below(1000));
            break;
        }
        std::uint64_t total = 0;
        for (std::size_t g = 0; g < n; ++g) {
            std::uint64_t row = 0;
            std::uint64_t col = 0;
            for (std::size_t other = 0; other < n; ++other) {
                row += traffic.at(static_cast<GpuId>(g),
                                  static_cast<GpuId>(other));
                col += traffic.at(static_cast<GpuId>(other),
                                  static_cast<GpuId>(g));
            }
            ASSERT_EQ(traffic.egress(static_cast<GpuId>(g)), row)
                << "step " << step;
            ASSERT_EQ(traffic.ingress(static_cast<GpuId>(g)), col)
                << "step " << step;
            total += row;
        }
        ASSERT_EQ(traffic.total(), total) << "step " << step;
    }
}

TEST(Topology, LinkTimeMatchesBandwidth)
{
    Topology topo("ic", 4, InterconnectKind::Pcie3);
    // 16 MB at 16 GB/s = 1 ms.
    const Tick t = topo.linkTime(16'000'000);
    EXPECT_NEAR(ticksToMs(t), 1.0, 1e-6);
}

TEST(Topology, InfiniteBandwidthIsFree)
{
    Topology topo("ic", 4, InterconnectKind::Infinite);
    EXPECT_EQ(topo.linkTime(1 << 30), 0u);
}

TEST(Topology, PhaseTimeIsBusiestLink)
{
    Topology topo("ic", 4, InterconnectKind::Pcie3);
    TrafficMatrix traffic(4);
    // GPU0 broadcasts 16 MB to each peer: its egress (48 MB) dominates
    // any single ingress (16 MB).
    for (GpuId g = 1; g < 4; ++g)
        traffic.add(0, g, 16'000'000);
    const Tick t = topo.applyPhaseTraffic(traffic);
    EXPECT_NEAR(ticksToMs(t), 3.0, 1e-6);
}

TEST(Topology, IngressContentionDominatesWhenConverging)
{
    Topology topo("ic", 4, InterconnectKind::Pcie3);
    TrafficMatrix traffic(4);
    // All three peers send 16 MB to GPU0: its ingress serializes.
    for (GpuId g = 1; g < 4; ++g)
        traffic.add(g, 0, 16'000'000);
    const Tick t = topo.applyPhaseTraffic(traffic);
    EXPECT_NEAR(ticksToMs(t), 3.0, 1e-6);
}

TEST(Topology, TotalBytesAccumulateAcrossPhases)
{
    Topology topo("ic", 2, InterconnectKind::Pcie3);
    TrafficMatrix traffic(2);
    traffic.add(0, 1, 1000, 900);
    topo.applyPhaseTraffic(traffic);
    topo.applyPhaseTraffic(traffic);
    EXPECT_EQ(topo.totalBytes(), 2000u);
    EXPECT_EQ(topo.totalPayloadBytes(), 1800u);
}

TEST(Topology, LatencyComesFromSpec)
{
    Topology pcie("p", 2, InterconnectKind::Pcie3);
    Topology nvlink("n", 2, InterconnectKind::NvLink3);
    EXPECT_GT(pcie.latency(), nvlink.latency());
}

} // namespace
} // namespace gps

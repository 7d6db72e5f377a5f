/**
 * @file
 * Unit tests for the MultiGpuSystem facade, the logging primitives and
 * the WorkloadContext allocation routing.
 */

#include <gtest/gtest.h>

#include "api/system.hh"
#include "apps/workload.hh"
#include "common/logging.hh"
#include "paradigm/paradigm.hh"

namespace gps
{
namespace
{

TEST(MultiGpuSystem, BuildsTable1SystemByDefault)
{
    SystemConfig config;
    MultiGpuSystem system(config);
    EXPECT_EQ(system.numGpus(), 4u);
    EXPECT_EQ(system.geometry().bytes(), 64 * KiB);
    EXPECT_EQ(system.topology().spec().kind, InterconnectKind::Pcie3);
    for (GpuId g = 0; g < 4; ++g) {
        EXPECT_EQ(system.gpu(g).id(), g);
        EXPECT_EQ(system.gpu(g).l2().capacityBytes(), 6 * MiB);
    }
}

TEST(MultiGpuSystem, ConfigDumpCarriesTable1Rows)
{
    SystemConfig config;
    MultiGpuSystem system(config);
    const std::string dump = system.configDump().render();
    EXPECT_NE(dump.find("GPU Parameters"), std::string::npos);
    EXPECT_NE(dump.find("GPS Structures"), std::string::npos);
    EXPECT_NE(dump.find("128 bytes"), std::string::npos);   // line
    EXPECT_NE(dump.find("512 entries"), std::string::npos); // WQ
    EXPECT_NE(dump.find("135 bytes"), std::string::npos);   // WQ entry
    EXPECT_NE(dump.find("32 entries"), std::string::npos);  // GPS-TLB
    EXPECT_NE(dump.find("49 bits"), std::string::npos);     // VA
    EXPECT_NE(dump.find("47 bits"), std::string::npos);     // PA
}

TEST(MultiGpuSystem, StatsAggregateEveryComponent)
{
    SystemConfig config;
    config.numGpus = 2;
    MultiGpuSystem system(config);
    const StatSet stats = system.stats();
    EXPECT_TRUE(stats.has("gpu0.l2.hits"));
    EXPECT_TRUE(stats.has("gpu1.tlb.misses"));
    EXPECT_TRUE(stats.has("interconnect.total_bytes"));
    EXPECT_TRUE(stats.has("driver.pages"));
}

TEST(MultiGpuSystemDeath, RejectsZeroGpus)
{
    SystemConfig config;
    config.numGpus = 0;
    EXPECT_DEATH(MultiGpuSystem system(config), "unsupported");
}

TEST(Logging, FatalThrowsCatchableError)
{
    try {
        gps_fatal("user did ", 42, " bad things");
        FAIL() << "gps_fatal returned";
    } catch (const FatalError& error) {
        EXPECT_NE(std::string(error.what()).find("42 bad things"),
                  std::string::npos);
    }
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(gps_panic("internal invariant ", 7, " broke"),
                 "invariant 7 broke");
}

TEST(LoggingDeath, AssertCarriesContext)
{
    const int x = 3;
    EXPECT_DEATH(gps_assert(x == 4, "x was ", x), "x was 3");
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    gps_warn("survivable condition ", 1);
    setVerbose(false);
    gps_inform("silenced");
    setVerbose(true);
    gps_inform("visible");
    setVerbose(false);
}

class ContextKinds : public ::testing::TestWithParam<ParadigmKind>
{};

TEST_P(ContextKinds, AllocSharedFollowsTheParadigm)
{
    SystemConfig sys_config;
    sys_config.numGpus = 2;
    MultiGpuSystem system(sys_config);
    auto paradigm = makeParadigm(GetParam(), system);
    WorkloadContext ctx(system, *paradigm);

    const Addr shared = ctx.allocShared(64 * KiB, "s", 1);
    const Region* region = system.addressSpace().regionOf(shared);
    ASSERT_NE(region, nullptr);
    EXPECT_EQ(region->kind, paradigm->sharedKind());

    const Addr priv = ctx.allocPrivate(64 * KiB, "p", 1);
    const Region* priv_region = system.addressSpace().regionOf(priv);
    ASSERT_NE(priv_region, nullptr);
    EXPECT_EQ(priv_region->kind, MemKind::Pinned);
    EXPECT_EQ(priv_region->home, 1);
}

TEST_P(ContextKinds, AllocSharedManualIsManualOnlyUnderGps)
{
    SystemConfig sys_config;
    sys_config.numGpus = 2;
    MultiGpuSystem system(sys_config);
    auto paradigm = makeParadigm(GetParam(), system);
    WorkloadContext ctx(system, *paradigm);
    const Addr shared = ctx.allocSharedManual(64 * KiB, "m", 0);
    const Region* region = system.addressSpace().regionOf(shared);
    ASSERT_NE(region, nullptr);
    if (GetParam() == ParadigmKind::Gps) {
        EXPECT_TRUE(region->manualSubscription);
    } else {
        EXPECT_EQ(region->kind, paradigm->sharedKind());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllParadigms, ContextKinds,
    ::testing::ValuesIn(allParadigms()),
    [](const auto& info) {
        std::string name = to_string(info.param);
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace gps

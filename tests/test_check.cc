/**
 * @file
 * Tests for the differential-validation subsystem: clean runs agree
 * with the reference model under every paradigm, checking is zero-cost
 * and bit-exact when disabled, and deliberately seeded defects are
 * detected and reported with kernel/page context (golden-divergence
 * cases).
 */

#include <gtest/gtest.h>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "check/check.hh"
#include "check/differential.hh"
#include "check/invariants.hh"
#include "core/gps_paradigm.hh"

namespace gps
{
namespace
{

constexpr double smokeScale = 0.0625;

RunConfig
checkedConfig(ParadigmKind paradigm = ParadigmKind::Gps,
              std::size_t gpus = 2)
{
    RunConfig config;
    config.system.numGpus = gpus;
    config.paradigm = paradigm;
    config.scale = smokeScale;
    config.check.enabled = true;
    return config;
}

// --- Clean runs -------------------------------------------------------

TEST(Check, CleanGpsRunAgreesWithReference)
{
    const RunResult result = runWorkload("Jacobi", checkedConfig());
    ASSERT_NE(result.check, nullptr);
    const CheckReport& report = *result.check;
    EXPECT_TRUE(report.enabled);
    EXPECT_TRUE(report.ok()) << describe(report.findings.front());
    EXPECT_GT(report.refAccesses, 0u);
    EXPECT_GT(report.sinkEvents, 0u);
    EXPECT_GT(report.invariantChecks, 0u);
    EXPECT_GT(report.counterChecks, 0u);
}

TEST(Check, EveryParadigmPassesTheInvariantSuite)
{
    for (const ParadigmKind paradigm : allParadigms()) {
        const RunResult result =
            runWorkload("Jacobi", checkedConfig(paradigm));
        ASSERT_NE(result.check, nullptr) << to_string(paradigm);
        EXPECT_TRUE(result.check->ok())
            << to_string(paradigm) << ": "
            << describe(result.check->findings.front());
        EXPECT_GT(result.check->invariantChecks, 0u)
            << to_string(paradigm);
    }
}

TEST(Check, SinkSeesEverySubscriptionFlip)
{
    // The check sink is in place before onSetupComplete(), so the
    // subscribe-all profiling set-up reaches the reference model too:
    // in a fault-free run without sys-scoped stores the sink hears
    // exactly one event per subscribe and per unsubscribe.
    for (const std::string& app : workloadNames()) {
        RunConfig config = checkedConfig(ParadigmKind::Gps, 4);
        config.scale = 0.125;
        const RunResult result = runWorkload(app, config);
        ASSERT_NE(result.check, nullptr) << app;
        ASSERT_EQ(result.totals.sysCollapses, 0u) << app;
        const double flips =
            result.stats.get("subscription_manager.subscribe_ops") +
            result.stats.get("subscription_manager.unsubscribe_ops");
        EXPECT_GT(flips, 0.0) << app;
        EXPECT_EQ(static_cast<double>(result.check->sinkEvents), flips)
            << app;
    }
}

TEST(Check, MidRunCadenceRunsMoreInvariantSweeps)
{
    RunConfig sparse = checkedConfig();
    RunConfig dense = checkedConfig();
    dense.check.everyAccesses = 1000;
    const RunResult a = runWorkload("Jacobi", sparse);
    const RunResult b = runWorkload("Jacobi", dense);
    ASSERT_NE(a.check, nullptr);
    ASSERT_NE(b.check, nullptr);
    EXPECT_TRUE(b.check->ok());
    EXPECT_GT(b.check->invariantChecks, a.check->invariantChecks);
}

TEST(Check, WqWriteHeavyWorkloadsAgree)
{
    // Diffusion and EQWP exercise the write-combining path hard (high
    // wq hit rates), which is where the reference model earns its keep.
    for (const char* app : {"Diffusion", "EQWP"}) {
        const RunResult result = runWorkload(app, checkedConfig());
        ASSERT_NE(result.check, nullptr) << app;
        EXPECT_TRUE(result.check->ok())
            << app << ": " << describe(result.check->findings.front());
    }
}

TEST(Check, SurvivesPageRetireFaults)
{
    RunConfig config = checkedConfig(ParadigmKind::Gps, 4);
    config.faultPlan.addSpec("page:retire@1ms:gpu0:8");
    config.faultPlan.seed = 7;
    config.faultPlan.sort();
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.check, nullptr);
    EXPECT_TRUE(result.check->ok())
        << describe(result.check->findings.front());
}

TEST(Check, SurvivesWqSaturationFaults)
{
    RunConfig config = checkedConfig(ParadigmKind::Gps, 4);
    config.faultPlan.addSpec("wq:saturate@0:*");
    config.faultPlan.sort();
    const RunResult result = runWorkload("Diffusion", config);
    ASSERT_NE(result.check, nullptr);
    EXPECT_TRUE(result.check->ok())
        << describe(result.check->findings.front());
}

// --- Disabled checking is bit-exact -----------------------------------

TEST(Check, DisabledRunsAreByteIdentical)
{
    RunConfig off = checkedConfig();
    off.check.enabled = false;
    RunConfig on = checkedConfig();

    const RunResult a = runWorkload("Jacobi", off);
    const RunResult b = runWorkload("Jacobi", on);

    EXPECT_EQ(a.check, nullptr);
    ASSERT_NE(b.check, nullptr);

    EXPECT_EQ(a.totalTime, b.totalTime);
    EXPECT_EQ(a.interconnectBytes, b.interconnectBytes);
    EXPECT_EQ(a.totals.accesses, b.totals.accesses);
    EXPECT_EQ(a.totals.pushedStoreBytes, b.totals.pushedStoreBytes);
    const auto& sa = a.stats.all();
    const auto& sb = b.stats.all();
    ASSERT_EQ(sa.size(), sb.size());
    for (const auto& [name, value] : sa) {
        ASSERT_TRUE(b.stats.has(name)) << name;
        EXPECT_EQ(value, b.stats.get(name)) << name;
    }
}

// --- Golden divergences: seeded defects must be caught ----------------

TEST(Check, SkippedStoreMutationIsDetectedWithGpuContext)
{
    // Mutation 1: the reference silently drops one weak store. Exactly
    // one of {sm_coalesced, inserts, coalesced} is then one short, so a
    // per-GPU counter comparison must fire at a kernel end.
    RunConfig config = checkedConfig();
    config.check.testMutation = 1;
    const RunResult result = runWorkload("Diffusion", config);
    ASSERT_NE(result.check, nullptr);
    const CheckReport& report = *result.check;
    ASSERT_FALSE(report.ok());
    ASSERT_FALSE(report.findings.empty());
    const CheckFinding& finding = report.findings.front();
    EXPECT_EQ(finding.invariant.rfind("counter:", 0), 0u)
        << describe(finding);
    EXPECT_NE(finding.gpu, invalidGpu) << describe(finding);
    EXPECT_FALSE(finding.phase.empty()) << describe(finding);
}

TEST(Check, DroppedUnsubscribeMutationIsDetectedWithPageContext)
{
    // Mutation 2: the reference drops one unsubscribe event, so its
    // subscriber mask for that page keeps a stale bit. The finalize
    // page-state sweep must report the page.
    RunConfig config = checkedConfig();
    config.check.testMutation = 2;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.check, nullptr);
    const CheckReport& report = *result.check;
    ASSERT_FALSE(report.ok());
    bool found_page_finding = false;
    for (const CheckFinding& finding : report.findings) {
        if (finding.invariant.rfind("page.", 0) == 0 && finding.hasVpn)
            found_page_finding = true;
    }
    EXPECT_TRUE(found_page_finding)
        << describe(report.findings.front());
}

TEST(Check, MutationsDoNotFireOutsideGps)
{
    // Non-GPS paradigms have no reference replay, so seeded mutations
    // must be inert there (the invariant suite still runs clean).
    RunConfig config = checkedConfig(ParadigmKind::Memcpy);
    config.check.testMutation = 1;
    const RunResult result = runWorkload("Jacobi", config);
    ASSERT_NE(result.check, nullptr);
    EXPECT_TRUE(result.check->ok());
    EXPECT_EQ(result.check->refAccesses, 0u);
}

TEST(Check, FlippedMappingGpsBitIsDetected)
{
    // The GPS bit lives on the page state and on every GPU's mapping;
    // subscribe relies on the mappings agreeing, so one stale mapping
    // must be reported with its GPU and page.
    SystemConfig config;
    config.numGpus = 4;
    MultiGpuSystem system(config);
    GpsParadigm paradigm(system);
    const Region& region =
        system.driver().mallocGps(2 * 64 * KiB, "gps", 0);
    paradigm.onSetupComplete(); // subscribe-all: the bit is set
    const PageNum vpn = system.geometry().pageNum(region.base) + 1;
    InvariantChecker checker(system, &paradigm);

    CheckReport clean;
    checker.checkSubscriptions("setup", clean);
    EXPECT_TRUE(clean.ok()) << describe(clean.findings.front());

    system.driver().pageTable(2).setGpsBit(vpn, false);
    CheckReport mutated;
    checker.checkSubscriptions("setup", mutated);
    ASSERT_EQ(mutated.findings.size(), 1u);
    const CheckFinding& finding = mutated.findings.front();
    EXPECT_EQ(finding.invariant, "subscription.gps-bit");
    EXPECT_EQ(finding.gpu, 2u);
    EXPECT_TRUE(finding.hasVpn);
    EXPECT_EQ(finding.vpn, vpn);
    // The mapping sweep rides on the existing check's count.
    EXPECT_EQ(mutated.invariantChecks, clean.invariantChecks);
}

// --- Differential sweep mode ------------------------------------------

TEST(Check, DifferentialSweepReportsFirstDivergenceWithContext)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"Jacobi", checkedConfig(ParadigmKind::Memcpy),
                    "clean-memcpy"});
    jobs.push_back({"Diffusion", checkedConfig(ParadigmKind::Gps),
                    "mutated-gps"});

    CheckConfig check;
    check.testMutation = 1;
    const DifferentialResult result =
        runDifferentialCheck(jobs, check, 2);

    ASSERT_EQ(result.outcomes.size(), 2u);
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.divergences.size(), 1u);
    const DifferentialDivergence* div = result.first();
    ASSERT_NE(div, nullptr);
    EXPECT_EQ(div->jobIndex, 1u);
    EXPECT_EQ(div->label, "mutated-gps");
    EXPECT_EQ(div->finding.invariant.rfind("counter:", 0), 0u);
    EXPECT_NE(div->finding.gpu, invalidGpu);
}

TEST(Check, DifferentialSweepPassesOnCleanJobs)
{
    std::vector<SweepJob> jobs;
    for (const char* app : {"Jacobi", "CT"}) {
        RunConfig config = checkedConfig();
        config.check.enabled = false; // forced on by the sweep
        jobs.push_back({app, config, app});
    }
    const DifferentialResult result =
        runDifferentialCheck(jobs, CheckConfig{}, 2);
    EXPECT_TRUE(result.ok());
    for (const SweepOutcome& outcome : result.outcomes) {
        ASSERT_TRUE(outcome.ok());
        ASSERT_NE(outcome.result.check, nullptr);
        EXPECT_TRUE(outcome.result.check->ok());
    }
}

// --- Reporting --------------------------------------------------------

TEST(Check, ResultJsonCarriesTheCheckReport)
{
    const RunResult result = runWorkload("Jacobi", checkedConfig());
    const std::string json = resultToJson(result, false);
    EXPECT_NE(json.find("\"check\""), std::string::npos);
    EXPECT_NE(json.find("\"divergences\""), std::string::npos);
}

TEST(Check, DescribeRendersAllContext)
{
    CheckFinding finding;
    finding.invariant = "rwq.conservation";
    finding.detail = "inserts=3 drains=1 resident=1";
    finding.phase = "jacobi.sweep";
    finding.gpu = 2;
    finding.vpn = 42;
    finding.hasVpn = true;
    const std::string text = describe(finding);
    EXPECT_NE(text.find("rwq.conservation"), std::string::npos);
    EXPECT_NE(text.find("jacobi.sweep"), std::string::npos);
    EXPECT_NE(text.find("gpu 2"), std::string::npos);
    EXPECT_NE(text.find("page 42"), std::string::npos);
}

TEST(Check, FindingsAreCappedButCounted)
{
    CheckReport report;
    for (std::size_t i = 0; i < CheckReport::maxFindings + 10; ++i) {
        CheckFinding finding;
        finding.invariant = "test";
        addFinding(report, std::move(finding));
    }
    EXPECT_EQ(report.findings.size(), CheckReport::maxFindings);
    EXPECT_EQ(report.divergences, CheckReport::maxFindings + 10);
    EXPECT_FALSE(report.ok());
}

} // namespace
} // namespace gps

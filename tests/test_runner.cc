/**
 * @file
 * Integration tests for the runner: phase execution, the simulated
 * clock and the sampler polls it makes, iteration extrapolation and
 * result assembly, driven by a minimal synthetic workload.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "api/runner.hh"
#include "apps/app_common.hh"

namespace gps
{
namespace
{

/** Tiny deterministic workload: each GPU sweeps its private slab and
 * stores one shared page. */
class ToyWorkload : public Workload
{
  public:
    std::string name() const override { return "Toy"; }
    std::string description() const override { return "toy"; }
    std::string commPattern() const override { return "Peer-to-peer"; }
    std::size_t effectiveIterations() const override { return eff; }

    void
    setup(WorkloadContext& ctx) override
    {
        gpus = ctx.numGpus();
        shared = ctx.allocShared(gpus * 64 * KiB, "toy.shared");
        for (std::size_t g = 0; g < gpus; ++g) {
            priv.push_back(ctx.allocPrivate(
                64 * KiB, "toy.priv", static_cast<GpuId>(g)));
        }
    }

    std::vector<Phase>
    iteration(std::size_t iter, WorkloadContext& ctx) override
    {
        (void)iter;
        (void)ctx;
        Phase phase;
        phase.name = "toy.phase";
        for (std::size_t g = 0; g < gpus; ++g) {
            const GpuId gpu = static_cast<GpuId>(g);
            std::vector<apps::Group> groups;
            groups.push_back(apps::Group{{
                apps::Burst{priv[g], 64, 128, AccessType::Load, 128,
                            Scope::Weak},
                apps::Burst{shared + g * 64 * KiB, 64, 128,
                            AccessType::Store, 128, Scope::Weak},
            }});
            KernelLaunch kernel;
            kernel.gpu = gpu;
            kernel.name = "toy.kernel";
            kernel.computeInstrs = 1'000'000;
            kernel.stream = apps::makeGroupStream(std::move(groups));
            phase.kernels.push_back(std::move(kernel));
        }
        std::vector<Phase> phases;
        phases.push_back(std::move(phase));
        return phases;
    }

    std::size_t eff = 10;
    std::size_t gpus = 0;
    Addr shared = 0;
    std::vector<Addr> priv;
};

RunConfig
toyConfig()
{
    RunConfig config;
    config.system.numGpus = 2;
    return config;
}

TEST(Runner, ProducesNonzeroTimeAndCounters)
{
    ToyWorkload workload;
    Runner runner(toyConfig());
    const RunResult result = runner.run(workload);
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_GT(result.totals.accesses, 0u);
    EXPECT_EQ(result.numGpus, 2u);
    EXPECT_EQ(result.workload, "Toy");
}

TEST(Runner, AccessCountsMatchTheTrace)
{
    ToyWorkload workload;
    RunConfig config = toyConfig();
    config.paradigm = ParadigmKind::Memcpy;
    Runner runner(config);
    const RunResult result = runner.run(workload);
    // 2 GPUs x 128 accesses per phase x 5 simulated iterations.
    EXPECT_EQ(result.totals.accesses, 2u * 128u * 5u);
    EXPECT_EQ(result.totals.loads, 2u * 64u * 5u);
    EXPECT_EQ(result.totals.stores, 2u * 64u * 5u);
}

TEST(Runner, ExtrapolationScalesSteadyStateLinearly)
{
    ToyWorkload short_run;
    short_run.eff = 10;
    ToyWorkload long_run;
    long_run.eff = 100;
    RunConfig config = toyConfig();
    config.paradigm = ParadigmKind::Memcpy;
    Runner runner(config);
    const RunResult a = runner.run(short_run);
    const RunResult b = runner.run(long_run);
    const double ratio = static_cast<double>(b.totalTime) /
                         static_cast<double>(a.totalTime);
    // (1 + 99*s) / (1 + 9*s): close to 10 when iterations dominate.
    EXPECT_NEAR(ratio, 10.0, 1.0);
}

TEST(Runner, EffectiveIterationsOverrideWins)
{
    ToyWorkload workload;
    RunConfig config = toyConfig();
    config.paradigm = ParadigmKind::Memcpy;
    config.effectiveIterationsOverride = 1;
    Runner runner(config);
    const RunResult one = runner.run(workload);
    ToyWorkload workload2;
    config.effectiveIterationsOverride = 0; // back to workload's 10
    const RunResult ten = Runner(config).run(workload2);
    EXPECT_LT(one.totalTime, ten.totalTime);
    // A single effective iteration simulates only iteration 0.
    EXPECT_EQ(one.totals.accesses, 2u * 128u);
}

TEST(Runner, GpsRunProducesSubscriberHistogram)
{
    ToyWorkload workload;
    RunConfig config = toyConfig();
    config.paradigm = ParadigmKind::Gps;
    const RunResult result = Runner(config).run(workload);
    EXPECT_TRUE(result.hasSubscriberHist);
    EXPECT_GT(result.totals.wqDrains + result.totals.wqInserts, 0u);
}

TEST(Runner, MemcpyBaselineHasNoFaults)
{
    ToyWorkload workload;
    RunConfig config = toyConfig();
    config.paradigm = ParadigmKind::Memcpy;
    const RunResult result = Runner(config).run(workload);
    EXPECT_EQ(result.totals.pageFaults, 0u);
}

TEST(Runner, SingleGpuRunWorks)
{
    ToyWorkload workload;
    RunConfig config = toyConfig();
    config.system.numGpus = 1;
    config.paradigm = ParadigmKind::Memcpy;
    const RunResult result = Runner(config).run(workload);
    EXPECT_GT(result.totalTime, 0u);
    EXPECT_EQ(result.interconnectBytes, 0u);
}

TEST(Runner, InfiniteBwNeverSlowerThanMemcpy)
{
    ToyWorkload a, b;
    RunConfig config = toyConfig();
    config.paradigm = ParadigmKind::Memcpy;
    const RunResult memcpy_result = Runner(config).run(a);
    config.paradigm = ParadigmKind::InfiniteBw;
    const RunResult infinite_result = Runner(config).run(b);
    EXPECT_LE(infinite_result.totalTime, memcpy_result.totalTime);
}

TEST(Runner, RunByNameResolvesBundledWorkloads)
{
    RunConfig config = toyConfig();
    config.scale = 0.03125;
    config.paradigm = ParadigmKind::Memcpy;
    const RunResult result = Runner(config).runByName("Jacobi");
    EXPECT_EQ(result.workload, "Jacobi");
    EXPECT_GT(result.totalTime, 0u);
}

TEST(Runner, SamplerPollsAtEveryKernelCompletionAndPhaseEnd)
{
    // With a one-tick period every poll records, so the sample ticks
    // are exactly the instants the runner polls at: run start, each
    // kernel's completion (phase start + prefetch + its gpuTime), each
    // phase end, and run end.
    RunConfig config = toyConfig();
    config.system.numGpus = 4;
    config.scale = 0.0625;
    config.obs.metrics = true;
    config.obs.causal = true;
    config.obs.sampleEvery = 1;
    const RunResult result = Runner(config).runByName("Jacobi");
    ASSERT_NE(result.obs, nullptr);
    const CausalReport& causal = result.obs->causal;
    ASSERT_EQ(causal.droppedPhases, 0u);

    std::set<Tick> completions;
    std::set<Tick> expected{0};
    std::uint64_t kernels = 0;
    for (const CausalPhase& phase : causal.phases) {
        for (const CausalKernel& k : phase.kernels) {
            completions.insert(phase.start + phase.prefetchTime +
                               k.gpuTime);
            ++kernels;
        }
        expected.insert(phase.start + phase.phaseTime);
    }
    const std::size_t phase_ends = expected.size();
    expected.insert(completions.begin(), completions.end());
    // The run must have kernels that finish before their phase ends,
    // or the completion polls would be indistinguishable.
    ASSERT_GT(expected.size(), phase_ends);

    const std::vector<Tick> want(expected.begin(), expected.end());
    EXPECT_EQ(result.obs->sampleTicks, want);
    EXPECT_EQ(causal.edges[static_cast<std::size_t>(
                  CausalEdge::KernelToPhase)],
              kernels);
}

TEST(Runner, RejectsScaleOutsideValidRange)
{
    // Apps size themselves by casting k * scale to a 64-bit integer,
    // which is undefined for NaN, infinity and huge products; the run
    // fails before any set-up.
    for (const double scale :
         {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), 1e300,
          std::nextafter(0x1p32, 0x1p33)}) {
        RunConfig config = toyConfig();
        config.scale = scale;
        ToyWorkload toy;
        EXPECT_THROW((void)Runner(config).run(toy), FatalError) << scale;
        EXPECT_EQ(toy.gpus, 0u) << scale;
    }
    EXPECT_TRUE(validScale(0.0625));
    EXPECT_TRUE(validScale(0x1p32));
    EXPECT_TRUE(validScale(std::numeric_limits<double>::denorm_min()));
}

TEST(Runner, RejectsOutOfRangeSystemConfig)
{
    // Past these bounds a component assert would abort the whole
    // process; the run fails with a FatalError before any set-up.
    const std::pair<const char*, void (*)(SystemConfig&)> bad[] = {
        {"0 GPUs", [](SystemConfig& s) { s.numGpus = 0; }},
        {"257 GPUs", [](SystemConfig& s) { s.numGpus = maxGpus + 1; }},
        {"0 B pages", [](SystemConfig& s) { s.pageBytes = 0; }},
        {"2 KiB pages", [](SystemConfig& s) { s.pageBytes = 2 * KiB; }},
        {"3 KiB pages", [](SystemConfig& s) { s.pageBytes = 3 * KiB; }},
        {"96 KiB pages", [](SystemConfig& s) { s.pageBytes = 96 * KiB; }},
        {"4 MiB pages", [](SystemConfig& s) { s.pageBytes = 4 * MiB; }},
        {"0 WQ entries", [](SystemConfig& s) { s.gps.wqEntries = 0; }},
    };
    for (const auto& [what, mutate] : bad) {
        RunConfig config = toyConfig();
        mutate(config.system);
        EXPECT_FALSE(systemConfigError(config.system).empty()) << what;
        ToyWorkload toy;
        EXPECT_THROW((void)Runner(config).run(toy), FatalError) << what;
        EXPECT_EQ(toy.gpus, 0u) << what;
    }

    // The bounds themselves are inside.
    const std::pair<const char*, void (*)(SystemConfig&)> good[] = {
        {"1 GPU", [](SystemConfig& s) { s.numGpus = 1; }},
        {"256 GPUs", [](SystemConfig& s) { s.numGpus = maxGpus; }},
        {"4 KiB pages", [](SystemConfig& s) { s.pageBytes = 4 * KiB; }},
        {"2 MiB pages", [](SystemConfig& s) { s.pageBytes = 2 * MiB; }},
        {"1 WQ entry", [](SystemConfig& s) { s.gps.wqEntries = 1; }},
    };
    for (const auto& [what, mutate] : good) {
        SystemConfig system = toyConfig().system;
        mutate(system);
        EXPECT_EQ(systemConfigError(system), "") << what;
    }
}

} // namespace
} // namespace gps

/**
 * @file
 * Parameterized property tests over all eight bundled workloads: every
 * generated access falls inside an allocated region, every GPU gets a
 * kernel, generation is deterministic, and the declared hints reference
 * allocated memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "api/system.hh"
#include "apps/workload.hh"
#include "paradigm/paradigm.hh"

namespace gps
{
namespace
{

constexpr double testScale = 0.0625;

class WorkloadFixture : public ::testing::TestWithParam<std::string>
{
  protected:
    WorkloadFixture()
    {
        SystemConfig config;
        config.numGpus = 4;
        system = std::make_unique<MultiGpuSystem>(config);
        paradigm = makeParadigm(ParadigmKind::Memcpy, *system);
        ctx = std::make_unique<WorkloadContext>(*system, *paradigm);
        workload = makeWorkload(GetParam());
        workload->setScale(testScale);
        workload->setup(*ctx);
    }

    bool
    inAllocatedRegion(Addr addr) const
    {
        return system->addressSpace().regionOf(addr) != nullptr;
    }

    std::unique_ptr<MultiGpuSystem> system;
    std::unique_ptr<Paradigm> paradigm;
    std::unique_ptr<WorkloadContext> ctx;
    std::unique_ptr<Workload> workload;
};

TEST_P(WorkloadFixture, DeclaresIdentityStrings)
{
    EXPECT_EQ(workload->name(), GetParam());
    EXPECT_FALSE(workload->description().empty());
    EXPECT_FALSE(workload->commPattern().empty());
    EXPECT_GE(workload->effectiveIterations(), 2u);
}

TEST_P(WorkloadFixture, SetupAllocatesSharedAndUsuallyPrivateRegions)
{
    bool has_shared = false;
    for (const auto& [base, region] :
         system->addressSpace().regions()) {
        if (region.kind != MemKind::Pinned)
            has_shared = true;
    }
    EXPECT_TRUE(has_shared);
    EXPECT_GT(system->addressSpace().bytesAllocated(), 0u);
}

TEST_P(WorkloadFixture, EveryGpuGetsAKernelEachPhase)
{
    std::vector<Phase> phases = workload->iteration(0, *ctx);
    ASSERT_FALSE(phases.empty());
    for (Phase& phase : phases) {
        std::map<GpuId, int> kernels;
        for (const KernelLaunch& kernel : phase.kernels)
            ++kernels[kernel.gpu];
        EXPECT_EQ(kernels.size(), 4u) << phase.name;
        for (const auto& [gpu, count] : kernels)
            EXPECT_EQ(count, 1) << phase.name;
    }
}

TEST_P(WorkloadFixture, AllAccessesFallInAllocatedRegions)
{
    std::vector<Phase> phases = workload->iteration(0, *ctx);
    std::uint64_t accesses = 0;
    for (Phase& phase : phases) {
        for (KernelLaunch& kernel : phase.kernels) {
            MemAccess access;
            while (kernel.stream->next(access)) {
                ++accesses;
                ASSERT_TRUE(inAllocatedRegion(access.vaddr))
                    << phase.name << " addr " << access.vaddr;
                ASSERT_TRUE(
                    inAllocatedRegion(access.vaddr + access.size - 1))
                    << phase.name;
            }
        }
    }
    EXPECT_GT(accesses, 0u);
}

TEST_P(WorkloadFixture, StreamsAreDeterministicAcrossCalls)
{
    std::vector<Phase> a = workload->iteration(1, *ctx);
    std::vector<Phase> b = workload->iteration(1, *ctx);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
        ASSERT_EQ(a[p].kernels.size(), b[p].kernels.size());
        for (std::size_t k = 0; k < a[p].kernels.size(); ++k) {
            MemAccess x, y;
            // Compare a prefix of both streams access by access.
            for (int i = 0; i < 5000; ++i) {
                const bool more_a = a[p].kernels[k].stream->next(x);
                const bool more_b = b[p].kernels[k].stream->next(y);
                ASSERT_EQ(more_a, more_b);
                if (!more_a)
                    break;
                ASSERT_EQ(x.vaddr, y.vaddr);
                ASSERT_EQ(x.type, y.type);
            }
        }
    }
}

TEST_P(WorkloadFixture, KernelsDeclareComputeWork)
{
    std::vector<Phase> phases = workload->iteration(0, *ctx);
    for (const Phase& phase : phases) {
        for (const KernelLaunch& kernel : phase.kernels)
            EXPECT_GT(kernel.computeInstrs, 0u) << phase.name;
    }
}

TEST_P(WorkloadFixture, HintRangesReferenceAllocatedMemory)
{
    std::vector<Phase> phases = workload->iteration(0, *ctx);
    for (const Phase& phase : phases) {
        for (const PrefetchRange& range : phase.prefetches) {
            EXPECT_LT(range.gpu, 4);
            EXPECT_TRUE(inAllocatedRegion(range.base));
            EXPECT_TRUE(inAllocatedRegion(range.base + range.len - 1));
        }
        for (const BroadcastRange& range : phase.barrierBroadcasts) {
            EXPECT_LT(range.src, 4);
            EXPECT_TRUE(inAllocatedRegion(range.base));
            EXPECT_TRUE(inAllocatedRegion(range.base + range.len - 1));
        }
    }
}

TEST_P(WorkloadFixture, UmHintsApplyWithoutError)
{
    workload->applyUmHints(*ctx);
    // At least one page must have a preferred location after hints
    // (every bundled app partitions its shared data).
    bool any_preferred = false;
    for (const auto& [base, region] :
         system->addressSpace().regions()) {
        system->driver().forEachPage(region, [&](PageNum vpn) {
            if (system->driver().state(vpn).preferredLocation !=
                invalidGpu)
                any_preferred = true;
        });
    }
    EXPECT_TRUE(any_preferred);
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadFixture,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto& info) { return info.param; });

TEST(AlsWorkload, EpochStreamIsTheRowTrace)
{
    // Each GPU loads then atomically updates every item row, then each
    // of its own user rows, one row at a time.
    const std::uint64_t rows = 2048; // max(2048, 24576 x testScale)
    for (const std::size_t gpus : {1u, 3u, 4u, 32u, 256u}) {
        SystemConfig config;
        config.numGpus = gpus;
        MultiGpuSystem system(config);
        std::unique_ptr<Paradigm> paradigm =
            makeParadigm(ParadigmKind::Memcpy, system);
        WorkloadContext ctx(system, *paradigm);
        std::unique_ptr<Workload> als = makeWorkload("ALS");
        als->setScale(testScale);
        als->setup(ctx);
        Addr users = 0, items = 0;
        for (const auto& [base, region] : system.addressSpace().regions()) {
            if (region.label == "als.user")
                users = base;
            else if (region.label == "als.item")
                items = base;
        }

        std::vector<Phase> phases = als->iteration(0, ctx);
        ASSERT_EQ(phases.size(), 1u);
        ASSERT_EQ(phases[0].kernels.size(), gpus);
        for (std::size_t g = 0; g < gpus; ++g) {
            std::vector<MemAccess> trace;
            for (std::uint64_t i = 0; i < rows; ++i) {
                trace.push_back(MemAccess::load(items + i * 128, 128));
                trace.push_back(MemAccess::atomic(items + i * 128, 128));
            }
            for (std::uint64_t u = rows * g / gpus;
                 u < rows * (g + 1) / gpus; ++u) {
                trace.push_back(MemAccess::load(users + u * 128, 128));
                trace.push_back(MemAccess::atomic(users + u * 128, 128));
            }

            KernelLaunch& kernel = phases[0].kernels[g];
            ASSERT_EQ(kernel.gpu, g);
            // Pulled in the replay loop's default chunk.
            std::vector<MemAccess> got(trace.size() + 128);
            std::size_t n = 0;
            for (std::size_t pulled = 1; pulled > 0; n += pulled)
                pulled = kernel.stream->nextBatch(
                    got.data() + n, std::min<std::size_t>(
                                        128, got.size() - n));
            ASSERT_EQ(n, trace.size()) << gpus << " GPUs, gpu " << g;
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(got[i].vaddr, trace[i].vaddr)
                    << gpus << " GPUs, gpu " << g << ", access " << i;
                ASSERT_EQ(got[i].size, trace[i].size);
                ASSERT_EQ(got[i].type, trace[i].type);
                ASSERT_EQ(got[i].scope, trace[i].scope);
            }
        }
    }
}

TEST(WorkloadRegistry, ListsTheTable2Suite)
{
    const auto names = workloadNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names.front(), "Jacobi");
    EXPECT_EQ(names.back(), "HIT");
}

TEST(WorkloadRegistry, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("NoSuchApp"), FatalError);
}

} // namespace
} // namespace gps

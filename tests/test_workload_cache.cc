/**
 * @file
 * Tests for the cross-run workload-input cache: hit byte-identity
 * against an uncached build, bounded LRU eviction, in-flight dedup and
 * determinism under concurrent access (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "apps/graph.hh"
#include "apps/workload_cache.hh"

namespace gps::apps
{
namespace
{

GraphParams
cacheParams(std::uint64_t seed = 7)
{
    GraphParams params;
    params.numVertices = 4096;
    params.avgDegree = 4;
    params.numParts = 4;
    params.locality = 0.8;
    params.hubSkew = 0.75;
    params.seed = seed;
    return params;
}

class WorkloadCacheTest : public ::testing::Test
{
  protected:
    WorkloadCacheTest()
    {
        WorkloadCache::instance().clear();
        WorkloadCache::instance().setCapacity(32);
    }
    ~WorkloadCacheTest() override
    {
        WorkloadCache::instance().clear();
        WorkloadCache::instance().setCapacity(32);
    }
};

TEST_F(WorkloadCacheTest, HitIsByteIdenticalToUncachedBuild)
{
    WorkloadCache& cache = WorkloadCache::instance();
    const GraphParams params = cacheParams();

    const auto cold = cache.graphBundle(params, 32);
    const auto warm = cache.graphBundle(params, 32);

    // A hit hands back the very object the cold build produced.
    EXPECT_EQ(cold.get(), warm.get());

    // And that object matches a from-scratch, non-cached build.
    EXPECT_EQ(cold->graph, makePowerLawGraph(params, 32));
    EXPECT_EQ(cold->graph.targetGroups.size(), params.numParts);

    const WorkloadCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.hits, 1u);
    EXPECT_GT(counters.buildSeconds, 0.0);
}

TEST_F(WorkloadCacheTest, KeySeparatesEveryGenerationField)
{
    const GraphParams base = cacheParams();
    EXPECT_EQ(graphBundleKey(base, 32), graphBundleKey(base, 32));
    EXPECT_NE(graphBundleKey(base, 32), graphBundleKey(base, 1));

    GraphParams other = base;
    other.seed = base.seed + 1;
    EXPECT_NE(graphBundleKey(base, 32), graphBundleKey(other, 32));
    other = base;
    other.locality = 0.8000001;
    EXPECT_NE(graphBundleKey(base, 32), graphBundleKey(other, 32));
    other = base;
    other.numParts = 2;
    EXPECT_NE(graphBundleKey(base, 32), graphBundleKey(other, 32));
}

TEST_F(WorkloadCacheTest, DistinctKeysGetDistinctEntries)
{
    WorkloadCache& cache = WorkloadCache::instance();
    const auto a = cache.graphBundle(cacheParams(1), 32);
    const auto b = cache.graphBundle(cacheParams(2), 32);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(a->graph, makePowerLawGraph(cacheParams(1), 32));
    EXPECT_EQ(b->graph, makePowerLawGraph(cacheParams(2), 32));
    EXPECT_NE(a->graph.targetGroups, b->graph.targetGroups);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.counters().misses, 2u);
}

TEST_F(WorkloadCacheTest, EvictionIsBoundedAndLru)
{
    WorkloadCache& cache = WorkloadCache::instance();
    cache.setCapacity(2);

    const auto a = cache.graphBundle(cacheParams(1), 32);
    (void)cache.graphBundle(cacheParams(2), 32);
    (void)cache.graphBundle(cacheParams(1), 32); // touch: 1 is now MRU
    (void)cache.graphBundle(cacheParams(3), 32); // evicts 2, not 1
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.counters().evictions, 1u);

    // Seed 1 survived the eviction: re-requesting it is a hit that
    // returns the original object...
    const std::uint64_t hits_before = cache.counters().hits;
    const auto a2 = cache.graphBundle(cacheParams(1), 32);
    EXPECT_EQ(a.get(), a2.get());
    EXPECT_EQ(cache.counters().hits, hits_before + 1);

    // ...while seed 2 was evicted and rebuilds to identical bytes.
    const std::uint64_t misses_before = cache.counters().misses;
    const auto b2 = cache.graphBundle(cacheParams(2), 32);
    EXPECT_EQ(cache.counters().misses, misses_before + 1);
    EXPECT_EQ(b2->graph, makePowerLawGraph(cacheParams(2), 32));
}

TEST_F(WorkloadCacheTest, EvictedHandleStaysAlive)
{
    WorkloadCache& cache = WorkloadCache::instance();
    cache.setCapacity(1);
    const auto held = cache.graphBundle(cacheParams(1), 32);
    (void)cache.graphBundle(cacheParams(2), 32); // evicts seed 1
    EXPECT_EQ(cache.size(), 1u);
    // The evicted bundle is still fully usable through the handle.
    EXPECT_EQ(held->graph, makePowerLawGraph(cacheParams(1), 32));
}

TEST_F(WorkloadCacheTest, ConcurrentRequestsShareOneBuild)
{
    WorkloadCache& cache = WorkloadCache::instance();
    const GraphParams params = cacheParams();

    constexpr std::size_t numThreads = 8;
    std::vector<std::shared_ptr<const GraphBundle>> results(numThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < numThreads; ++t)
        threads.emplace_back([&cache, &results, &params, t] {
            results[t] = cache.graphBundle(params, 32);
        });
    for (std::thread& thread : threads)
        thread.join();

    // Exactly one build ran; every thread got the same object.
    const WorkloadCache::Counters counters = cache.counters();
    EXPECT_EQ(counters.misses, 1u);
    EXPECT_EQ(counters.hits, numThreads - 1);
    for (const auto& result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results[0].get());
    }

    // And the shared bytes equal a single-threaded build.
    EXPECT_EQ(results[0]->graph, makePowerLawGraph(params, 32));
}

TEST_F(WorkloadCacheTest, ConcurrentDistinctKeysAllComplete)
{
    WorkloadCache& cache = WorkloadCache::instance();
    constexpr std::size_t numThreads = 6;
    std::vector<std::shared_ptr<const GraphBundle>> results(numThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < numThreads; ++t)
        threads.emplace_back([&cache, &results, t] {
            // Three keys, two requesters each.
            results[t] =
                cache.graphBundle(cacheParams(1 + t % 3), 32);
        });
    for (std::thread& thread : threads)
        thread.join();
    for (std::size_t t = 0; t < numThreads; ++t) {
        ASSERT_NE(results[t], nullptr);
        EXPECT_EQ(results[t].get(), results[t % 3].get());
        EXPECT_EQ(results[t]->graph,
                  makePowerLawGraph(cacheParams(1 + t % 3), 32));
    }
    EXPECT_EQ(cache.counters().misses, 3u);
    EXPECT_EQ(cache.size(), 3u);
}

TEST_F(WorkloadCacheTest, CapacityZeroDisablesCaching)
{
    // GPS_WORKLOAD_CACHE_CAP=0 means "cache disabled", not "unbounded":
    // every request builds fresh, stores nothing, and the bytes still
    // match a direct build.
    WorkloadCache& cache = WorkloadCache::instance();
    cache.setCapacity(0);
    const GraphParams params = cacheParams();

    const auto first = cache.graphBundle(params, 32);
    const auto second = cache.graphBundle(params, 32);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_NE(first.get(), second.get()); // no sharing when disabled
    EXPECT_EQ(first->graph, makePowerLawGraph(params, 32));
    EXPECT_EQ(second->graph, makePowerLawGraph(params, 32));

    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.counters().misses, 2u);
    EXPECT_EQ(cache.counters().hits, 0u);
}

TEST_F(WorkloadCacheTest, SetCapacityZeroDrainsResidentEntries)
{
    WorkloadCache& cache = WorkloadCache::instance();
    (void)cache.graphBundle(cacheParams(1), 32);
    (void)cache.graphBundle(cacheParams(2), 32);
    EXPECT_EQ(cache.size(), 2u);
    cache.setCapacity(0);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.counters().evictions, 2u);
}

} // namespace
} // namespace gps::apps

/**
 * @file
 * Unit tests for the synthetic partitioned power-law graph generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "apps/graph.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace gps::apps
{
namespace
{

/** A full edge list: rowPtr[v]..rowPtr[v+1] index v's targets. */
struct CsrGraph
{
    Graph shape; ///< numVertices, numParts and the partition ranges
    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> targets;
};

/**
 * The original per-vertex generator (push_back + per-row sort + direct
 * rng.zipf), kept verbatim as the reference the streaming generator
 * must reproduce: figure outputs depend on the generated graph, so any
 * divergence is a silent result change.
 */
CsrGraph
referenceGraph(const GraphParams& params)
{
    CsrGraph graph;
    graph.shape.numVertices = params.numVertices;
    graph.shape.numParts = params.numParts;
    graph.rowPtr.resize(params.numVertices + 1, 0);
    graph.targets.reserve(params.numVertices * params.avgDegree);

    Rng rng(params.seed);
    for (std::uint64_t v = 0; v < params.numVertices; ++v) {
        graph.rowPtr[v] = graph.targets.size();
        const GpuId part = graph.shape.owner(v);
        const std::uint64_t pfirst = graph.shape.partFirst(part);
        const std::uint64_t pcount = graph.shape.partEnd(part) - pfirst;
        const std::uint32_t degree =
            1 + static_cast<std::uint32_t>(
                    rng.below(2 * params.avgDegree - 1));
        for (std::uint32_t e = 0; e < degree; ++e) {
            std::uint64_t target;
            if (rng.chance(params.locality)) {
                target = pfirst + rng.below(pcount);
            } else {
                target = rng.zipf(params.numVertices, params.hubSkew);
            }
            graph.targets.push_back(static_cast<std::uint32_t>(target));
        }
        auto begin = graph.targets.begin() +
                     static_cast<std::ptrdiff_t>(graph.rowPtr[v]);
        std::sort(begin, graph.targets.end());
    }
    graph.rowPtr[params.numVertices] = graph.targets.size();
    return graph;
}

/** Edges whose source lies in partition @p part's vertex range. */
std::uint64_t
referencePartEdges(const CsrGraph& graph, std::size_t part)
{
    return graph.rowPtr[graph.shape.partEnd(part)] -
           graph.rowPtr[graph.shape.partFirst(part)];
}

/** The original copy+sort+unique distinct-target collector. */
std::vector<std::uint32_t>
referenceDistinctTargetGroups(const CsrGraph& graph, std::size_t part,
                              std::uint32_t vertices_per_group)
{
    const std::uint64_t first = graph.shape.partFirst(part);
    const std::uint64_t end = graph.shape.partEnd(part);
    std::vector<std::uint32_t> groups(
        graph.targets.begin() +
            static_cast<std::ptrdiff_t>(graph.rowPtr[first]),
        graph.targets.begin() +
            static_cast<std::ptrdiff_t>(graph.rowPtr[end]));
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()),
                 groups.end());
    for (auto& g : groups)
        g /= vertices_per_group;
    groups.erase(std::unique(groups.begin(), groups.end()),
                 groups.end());
    return groups;
}

/** Streamed output against the reference, partition by partition. */
void
expectMatchesReference(const GraphParams& params,
                       std::uint32_t vertices_per_group,
                       const std::string& what)
{
    const Graph got = makePowerLawGraph(params, vertices_per_group);
    const CsrGraph want = referenceGraph(params);
    ASSERT_EQ(got.numVertices, params.numVertices) << what;
    ASSERT_EQ(got.numParts, params.numParts) << what;
    ASSERT_EQ(got.partEdges.size(), params.numParts) << what;
    ASSERT_EQ(got.targetGroups.size(), params.numParts) << what;
    for (std::size_t p = 0; p < params.numParts; ++p) {
        ASSERT_EQ(got.partEdges[p], referencePartEdges(want, p))
            << what << " part " << p;
        ASSERT_EQ(got.targetGroups[p],
                  referenceDistinctTargetGroups(want, p,
                                                vertices_per_group))
            << what << " part " << p;
    }
}

GraphParams
smallParams()
{
    GraphParams params;
    params.numVertices = 4096;
    params.avgDegree = 4;
    params.numParts = 4;
    params.locality = 0.8;
    params.hubSkew = 0.75;
    params.seed = 99;
    return params;
}

TEST(Graph, MatchesReferenceGeneratorOnRandomizedParams)
{
    // Arbitrary parameters, including uneven partition boundaries
    // (where owner(v) is not the inverse of partFirst/partEnd), fewer
    // vertices than partitions (empty partitions), and group sizes of
    // 1, 32 and odd values.
    Rng meta(2026);
    int uneven = 0;
    int empty_parts = 0;
    for (int c = 0; c < 60; ++c) {
        GraphParams params;
        if (c % 5 == 0) {
            params.numVertices = 1 + meta.below(24);
            params.numParts = 1 + static_cast<std::size_t>(meta.below(40));
        } else {
            params.numVertices = 1024 + meta.below(8192);
            params.numParts = 1 + static_cast<std::size_t>(meta.below(37));
        }
        params.avgDegree = 1 + static_cast<std::uint32_t>(meta.below(9));
        params.locality = 0.05 * static_cast<double>(meta.below(21));
        params.hubSkew =
            0.1 + 0.08 * static_cast<double>(meta.below(10));
        params.seed = meta.next();
        const std::uint32_t group_sizes[] = {
            1, 32, 1 + 2 * static_cast<std::uint32_t>(meta.below(40))};
        const std::uint32_t vertices_per_group = group_sizes[c % 3];
        expectMatchesReference(params, vertices_per_group,
                               "case " + std::to_string(c));
        uneven += params.numVertices % params.numParts != 0 ? 1 : 0;
        empty_parts += params.numVertices < params.numParts ? 1 : 0;
    }
    EXPECT_GT(uneven, 0);
    EXPECT_GT(empty_parts, 0);
}

TEST(Graph, MatchesReferenceGeneratorOnProductionParams)
{
    // The parameters PagerankWorkload and SsspWorkload generate at
    // scale 1, at the part counts of the 1-GPU baseline, the 4-GPU
    // Table 1 system and a 32-GPU system; one group per 128 B line.
    GraphParams pagerank;
    pagerank.numVertices = 1 << 18;
    pagerank.avgDegree = 16;
    pagerank.locality = 0.95;
    pagerank.hubSkew = 0.75;
    GraphParams sssp;
    sssp.numVertices = 1 << 18;
    sssp.avgDegree = 12;
    sssp.locality = 0.8;
    sssp.hubSkew = 0.6;
    sssp.seed = 1234;
    for (const std::size_t parts : {1, 4, 32}) {
        pagerank.numParts = parts;
        sssp.numParts = parts;
        expectMatchesReference(pagerank, 32,
                               "Pagerank " + std::to_string(parts));
        expectMatchesReference(sssp, 32,
                               "SSSP " + std::to_string(parts));
    }
}

TEST(Graph, PartitionsAreContiguousBlocks)
{
    const Graph graph = makePowerLawGraph(smallParams(), 32);
    EXPECT_EQ(graph.partFirst(0), 0u);
    EXPECT_EQ(graph.partEnd(3), graph.numVertices);
    EXPECT_EQ(graph.owner(0), 0);
    EXPECT_EQ(graph.owner(graph.numVertices - 1), 3);
    for (std::size_t p = 0; p + 1 < 4; ++p)
        EXPECT_EQ(graph.partEnd(p), graph.partFirst(p + 1));
}

TEST(Graph, EdgeCountsStayWithinDegreeBounds)
{
    // Every vertex has 1..2*avg-1 out-edges, so each partition's edge
    // count lies within its vertex count times those bounds, and the
    // average degree sits near the requested one.
    const GraphParams params = smallParams();
    const Graph graph = makePowerLawGraph(params, 32);
    const std::uint64_t max_degree = 2 * params.avgDegree - 1;
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < params.numParts; ++p) {
        const std::uint64_t vertices =
            graph.partEnd(p) - graph.partFirst(p);
        EXPECT_GE(graph.partEdges[p], vertices);
        EXPECT_LE(graph.partEdges[p], vertices * max_degree);
        total += graph.partEdges[p];
    }
    EXPECT_NEAR(static_cast<double>(total) /
                    static_cast<double>(graph.numVertices),
                4.0, 0.5);
}

TEST(Graph, ReferenceDegreesStayWithinGeneratorBounds)
{
    const GraphParams params = smallParams();
    const CsrGraph graph = referenceGraph(params);
    const std::uint64_t max_degree = 2 * params.avgDegree - 1;
    for (std::uint64_t v = 0; v < params.numVertices; ++v) {
        const std::uint64_t degree =
            graph.rowPtr[v + 1] - graph.rowPtr[v];
        ASSERT_GE(degree, 1u);
        ASSERT_LE(degree, max_degree);
    }
}

TEST(Graph, PublishSetsAreSortedUniqueAndInRange)
{
    for (const std::uint32_t per_group : {1u, 32u, 7u}) {
        const Graph graph = makePowerLawGraph(smallParams(), per_group);
        for (const std::vector<std::uint32_t>& groups :
             graph.targetGroups) {
            EXPECT_FALSE(groups.empty());
            EXPECT_TRUE(std::is_sorted(groups.begin(), groups.end()));
            EXPECT_EQ(std::adjacent_find(groups.begin(), groups.end()),
                      groups.end());
            for (const std::uint32_t g : groups)
                ASSERT_LT(static_cast<std::uint64_t>(g) * per_group,
                          graph.numVertices);
        }
    }
}

TEST(Graph, TargetGroupsCollapseVertexTargets)
{
    // A group is touched exactly when one of its vertices is: the
    // 32-vertex publish set is the vertex publish set divided by 32.
    const Graph vertices = makePowerLawGraph(smallParams(), 1);
    const Graph lines = makePowerLawGraph(smallParams(), 32);
    EXPECT_EQ(vertices.partEdges, lines.partEdges);
    for (std::size_t p = 0; p < smallParams().numParts; ++p) {
        std::vector<std::uint32_t> collapsed;
        for (const std::uint32_t v : vertices.targetGroups[p])
            if (collapsed.empty() || collapsed.back() != v / 32)
                collapsed.push_back(v / 32);
        EXPECT_EQ(lines.targetGroups[p], collapsed) << "part " << p;
        EXPECT_LT(lines.targetGroups[p].size(),
                  vertices.targetGroups[p].size());
    }
}

TEST(Graph, FullLocalityKeepsPublishSetsInsidePartitions)
{
    // With every edge local and even partition boundaries, each
    // partition publishes only to its own vertices.
    GraphParams params = smallParams();
    params.locality = 1.0;
    const Graph graph = makePowerLawGraph(params, 1);
    for (std::size_t p = 0; p < params.numParts; ++p) {
        ASSERT_FALSE(graph.targetGroups[p].empty());
        EXPECT_GE(graph.targetGroups[p].front(), graph.partFirst(p));
        EXPECT_LT(graph.targetGroups[p].back(), graph.partEnd(p));
    }
}

TEST(Graph, ReferenceLocalityFractionApproximatelyHolds)
{
    const CsrGraph graph = referenceGraph(smallParams());
    std::uint64_t local = 0;
    for (std::uint64_t v = 0; v < graph.shape.numVertices; ++v) {
        const GpuId part = graph.shape.owner(v);
        for (std::uint64_t e = graph.rowPtr[v]; e < graph.rowPtr[v + 1];
             ++e) {
            if (graph.shape.owner(graph.targets[e]) == part)
                ++local;
        }
    }
    const double fraction = static_cast<double>(local) /
                            static_cast<double>(graph.targets.size());
    // Remote zipf edges occasionally land locally too, so the measured
    // fraction sits at or slightly above the requested locality.
    EXPECT_GT(fraction, 0.75);
    EXPECT_LT(fraction, 0.95);
}

TEST(Graph, HubSkewShrinksRemotePublishSets)
{
    // All edges remote: the more skewed the hub law, the more the draws
    // pile onto the same low ids, so every publish set gets smaller.
    GraphParams params = smallParams();
    params.locality = 0.0;
    params.hubSkew = 0.1;
    const Graph flat = makePowerLawGraph(params, 1);
    params.hubSkew = 0.9;
    const Graph skewed = makePowerLawGraph(params, 1);
    EXPECT_EQ(flat.partEdges, skewed.partEdges);
    for (std::size_t p = 0; p < params.numParts; ++p)
        EXPECT_LT(2 * skewed.targetGroups[p].size(),
                  flat.targetGroups[p].size())
            << "part " << p;
}

TEST(Graph, ReferenceHubSkewConcentratesRemoteEdges)
{
    GraphParams params = smallParams();
    params.locality = 0.0; // all edges remote/zipf
    const CsrGraph graph = referenceGraph(params);
    std::uint64_t low = 0;
    for (const std::uint32_t t : graph.targets)
        low += t < params.numVertices / 10 ? 1 : 0;
    // Zipf exponent 0.75: well over half of the draws land in the first
    // tenth of the (degree-sorted) id space.
    EXPECT_GT(static_cast<double>(low) /
                  static_cast<double>(graph.targets.size()),
              0.5);
}

TEST(Graph, DeterministicForFixedSeed)
{
    EXPECT_EQ(makePowerLawGraph(smallParams(), 32),
              makePowerLawGraph(smallParams(), 32));
}

TEST(Graph, DeterministicUnderConcurrentGeneration)
{
    // Generation must not depend on how many threads run it (sweep
    // workers generate concurrently).
    const Graph serial = makePowerLawGraph(smallParams(), 32);
    std::vector<Graph> results(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < results.size(); ++t)
        threads.emplace_back([&results, t] {
            results[t] = makePowerLawGraph(smallParams(), 32);
        });
    for (std::thread& thread : threads)
        thread.join();
    for (const Graph& graph : results)
        EXPECT_EQ(graph, serial);
}

TEST(Graph, RejectsMoreVerticesThanTargetIdsCanName)
{
    // Target ids are 32-bit: a larger graph fails before allocating.
    GraphParams params = smallParams();
    params.numVertices = (std::uint64_t(1) << 32) + 1;
    EXPECT_THROW((void)makePowerLawGraph(params, 32), FatalError);
}

} // namespace
} // namespace gps::apps

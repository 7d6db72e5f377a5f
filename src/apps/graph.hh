/**
 * @file
 * Synthetic partitioned power-law graph generator for the graph
 * workloads (Pagerank, SSSP).
 *
 * Real-world web/social graphs have two properties that drive the
 * paper's results: partition locality (most edges stay within a
 * partition after a decent partitioner ran) and a heavy-tailed degree
 * distribution (remote edges concentrate on hub vertices, so remote
 * update sets are much smaller than V). Both are explicit parameters.
 *
 * The graph apps read only two things of a generated graph: each
 * partition's edge count and its publish set (the distinct target
 * groups its edges update). The generator streams every edge straight
 * into those, so no edge array is ever stored.
 */

#ifndef GPS_APPS_GRAPH_HH
#define GPS_APPS_GRAPH_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace gps::apps
{

/**
 * A generated graph reduced to what the graph apps read: the block
 * partition of its vertices, and per partition the edge count and the
 * publish set.
 */
struct Graph
{
    std::uint64_t numVertices = 0;
    std::size_t numParts = 1;

    /** Out-edges of the vertices in [partFirst(p), partEnd(p)). */
    std::vector<std::uint64_t> partEdges;

    /**
     * Distinct target groups of those edges per partition, ascending —
     * the per-GPU publish set of a push-style graph kernel. With 32
     * vertices per group it is the set after warp-level atomic
     * aggregation merges same-line updates (32 x 4 B counters per
     * 128 B line).
     */
    std::vector<std::vector<std::uint32_t>> targetGroups;

    /**
     * Partition whose vertex range local edges of @p v draw from. At
     * uneven partition boundaries this floor is not the inverse of
     * partFirst/partEnd.
     */
    GpuId
    owner(std::uint64_t v) const
    {
        return static_cast<GpuId>(v * numParts / numVertices);
    }

    std::uint64_t
    partFirst(std::size_t p) const
    {
        return numVertices * p / numParts;
    }

    std::uint64_t
    partEnd(std::size_t p) const
    {
        return numVertices * (p + 1) / numParts;
    }

    bool operator==(const Graph&) const = default;
};

/** Generation knobs. */
struct GraphParams
{
    std::uint64_t numVertices = 1 << 18;
    std::uint32_t avgDegree = 4;
    std::size_t numParts = 4;

    /** Fraction of edges that stay inside the source's partition. */
    double locality = 0.8;

    /** Zipf exponent for remote (hub) targets; higher = more skewed. */
    double hubSkew = 0.75;

    std::uint64_t seed = 42;
};

/**
 * Generate a partitioned power-law graph and reduce it, edge by edge,
 * to per-partition edge counts and publish sets of
 * @p vertices_per_group vertices per group. Throws FatalError for more
 * vertices than 32-bit target ids can name.
 */
Graph makePowerLawGraph(const GraphParams& params,
                        std::uint32_t vertices_per_group);

} // namespace gps::apps

#endif // GPS_APPS_GRAPH_HH

#include "apps/graph.hh"

#include <bit>

#include "common/logging.hh"
#include "common/rng.hh"

namespace gps::apps
{

namespace
{

/** The set bits of @p bits in ascending order; clears the bitmap. */
std::vector<std::uint32_t>
drainGroups(std::vector<std::uint64_t>& bits)
{
    std::size_t count = 0;
    for (const std::uint64_t word : bits)
        count += static_cast<std::size_t>(std::popcount(word));

    std::vector<std::uint32_t> groups;
    groups.reserve(count);
    for (std::size_t word_idx = 0; word_idx < bits.size(); ++word_idx) {
        for (std::uint64_t word = bits[word_idx]; word != 0;
             word &= word - 1)
            groups.push_back(static_cast<std::uint32_t>(
                (word_idx << 6) +
                static_cast<std::size_t>(std::countr_zero(word))));
        bits[word_idx] = 0;
    }
    return groups;
}

} // namespace

Graph
makePowerLawGraph(const GraphParams& params,
                  std::uint32_t vertices_per_group)
{
    gps_assert(params.numVertices > 0 && params.numParts > 0,
               "empty graph");
    gps_assert(params.avgDegree > 0, "zero average degree");
    gps_assert(vertices_per_group > 0, "empty target group");
    if (params.numVertices > (std::uint64_t(1) << 32))
        gps_fatal("a graph of ", params.numVertices,
                  " vertices has more than the 2^32 that 32-bit target "
                  "ids can name");

    Graph graph;
    graph.numVertices = params.numVertices;
    graph.numParts = params.numParts;
    graph.partEdges.assign(params.numParts, 0);
    graph.targetGroups.resize(params.numParts);

    const std::uint32_t maxDegree = 2 * params.avgDegree - 1;

    // Partitions hold consecutive vertex ranges, so walking them in
    // order visits every vertex in id order and draws the RNG exactly as
    // a full edge-list build would. One bitmap of touched groups serves
    // every partition: drained into its sorted publish set (and
    // cleared) when the partition's range ends.
    const std::uint64_t num_groups =
        (params.numVertices + vertices_per_group - 1) / vertices_per_group;
    std::vector<std::uint64_t> bits((num_groups + 63) / 64, 0);

    Rng rng(params.seed);
    // Local targets come from owner(v)'s range, which at uneven
    // boundaries is not the range [partFirst(p), partEnd(p)) holding v;
    // it is re-derived whenever owner(v) changes.
    GpuId local = graph.owner(0);
    std::uint64_t lfirst = graph.partFirst(local);
    std::uint64_t lcount = graph.partEnd(local) - lfirst;
    for (std::size_t p = 0; p < params.numParts; ++p) {
        const std::uint64_t vend = graph.partEnd(p);
        std::uint64_t edges = 0;
        for (std::uint64_t v = graph.partFirst(p); v < vend; ++v) {
            if (graph.owner(v) != local) {
                local = graph.owner(v);
                lfirst = graph.partFirst(local);
                lcount = graph.partEnd(local) - lfirst;
            }
            // Degree varies 1..2*avg-1 to avoid a perfectly regular
            // graph.
            const std::uint32_t degree =
                1 + static_cast<std::uint32_t>(rng.below(maxDegree));
            edges += degree;
            for (std::uint32_t e = 0; e < degree; ++e) {
                // Remote edges hit globally popular hubs. Vertex ids
                // follow the usual degree-sorted relabeling, so hubs
                // cluster at low ids. A hub draw is one std::pow: a
                // binary search in an 8 B-per-vertex inverse-CDF table
                // cost 3x more per draw at 2^18 vertices (cache misses
                // on a Xeon with 2 MB of L2 per core).
                const std::uint64_t target =
                    rng.chance(params.locality)
                        ? lfirst + rng.below(lcount)
                        : rng.zipf(params.numVertices, params.hubSkew);
                const std::uint64_t group = target / vertices_per_group;
                bits[group >> 6] |= 1ULL << (group & 63);
            }
        }
        graph.partEdges[p] = edges;
        graph.targetGroups[p] = drainGroups(bits);
    }
    return graph;
}

} // namespace gps::apps

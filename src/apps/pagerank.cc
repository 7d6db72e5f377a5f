#include "apps/pagerank.hh"

#include <algorithm>

#include "apps/app_common.hh"

namespace gps::apps
{

namespace
{
constexpr std::uint64_t instrsPerEdge = 14;
constexpr std::uint64_t instrsPerVertex = 10;
} // namespace

void
PagerankWorkload::setup(WorkloadContext& ctx)
{
    numGpus_ = ctx.numGpus();

    GraphParams params;
    params.numVertices = std::max<std::uint64_t>(
        1 << 14, static_cast<std::uint64_t>((1 << 18) * scale_));
    params.avgDegree = 16;
    params.numParts = numGpus_;
    params.locality = 0.95;
    params.hubSkew = 0.75;
    // The graph and its publish sets depend only on params — fetch them
    // from the cross-run workload cache (generated once per sweep).
    bundle_ = WorkloadCache::instance().graphBundle(params, lineBytes / 4);
    const Graph& graph = bundle_->graph;

    const std::uint64_t rank_bytes = graph.numVertices * 4;
    rank_ = ctx.allocShared(rank_bytes, "pagerank.rank", 0);
    rankNext_ = ctx.allocShared(rank_bytes, "pagerank.rank_next", 0);

    publishTrace_.assign(numGpus_, {});
    edgeLists_.assign(numGpus_, 0);
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t edges = graph.partEdges[g];
        edgeLists_[g] = ctx.allocPrivate(
            std::max<std::uint64_t>(edges, 1) * 4,
            "pagerank.edges." + std::to_string(g), gpu);

        // Publish set: one aggregated atomicAdd per distinct target
        // *line* (warp-level aggregation merges the per-edge atomics to
        // the same 128 B line into one L2 transaction). Only the base
        // address is per-run; the group list comes from the cache.
        const std::vector<std::uint32_t>& groups = graph.targetGroups[g];
        std::vector<MemAccess>& trace = publishTrace_[g];
        trace.reserve(groups.size());
        for (const std::uint32_t group : groups) {
            trace.push_back(MemAccess::atomic(
                rankNext_ + static_cast<Addr>(group) * lineBytes,
                lineBytes));
        }
    }
}

std::vector<Phase>
PagerankWorkload::iteration(std::size_t iter, WorkloadContext& ctx)
{
    (void)iter;
    (void)ctx;
    std::vector<Phase> phases(2);

    // Phase 1: scatter — read own ranks and edges, publish atomics.
    Phase& scatter = phases[0];
    scatter.name = "pagerank.scatter";
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t vfirst = graph().partFirst(g);
        const std::uint64_t vend = graph().partEnd(g);
        const std::uint64_t own_bytes = (vend - vfirst) * 4;
        const std::uint64_t edges = graph().partEdges[g];

        std::vector<Group> groups;
        // Stream own ranks (the edge list and the random per-edge
        // gather/accumulate traffic are statistically flat and enter
        // the DRAM model analytically via prechargedDramBytes).
        groups.push_back(Group{{
            Burst{rank_ + vfirst * 4, (own_bytes + lineBytes - 1) /
                                          lineBytes,
                  lineBytes, AccessType::Load, lineBytes, Scope::Weak},
        }});

        std::vector<std::unique_ptr<AccessStream>> parts;
        parts.push_back(makeGroupStream(std::move(groups)));
        parts.push_back(
            std::make_unique<ReplayStream>(&publishTrace_[g]));

        KernelLaunch kernel;
        kernel.gpu = gpu;
        kernel.name = "pagerank.scatter";
        kernel.computeInstrs =
            edges * instrsPerEdge + (vend - vfirst) * instrsPerVertex;
        // 4 B of edge list plus a random uncoalesced gather (two 32 B
        // sectors) and a 32 B read-modify-write to the private
        // accumulator per edge.
        kernel.prechargedDramBytes = edges * (4 + 2 * 32 + 2 * 32);
        kernel.stream =
            std::make_unique<ConcatStream>(std::move(parts));
        scatter.kernels.push_back(std::move(kernel));

        // Memcpy port: the partial results are reduced at the barrier —
        // every GPU ships its accumulator partition-by-partition.
        scatter.barrierBroadcasts.push_back(BroadcastRange{
            gpu, rankNext_ + vfirst * 4, own_bytes});
    }

    // Phase 2: apply — each GPU folds rank_next into rank for its own
    // vertices (rank pages are only ever touched by their owner).
    Phase& apply = phases[1];
    apply.name = "pagerank.apply";
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t vfirst = graph().partFirst(g);
        const std::uint64_t vend = graph().partEnd(g);
        const std::uint64_t lines =
            ((vend - vfirst) * 4 + lineBytes - 1) / lineBytes;

        std::vector<Group> groups;
        groups.push_back(Group{{
            Burst{rankNext_ + vfirst * 4, lines, lineBytes,
                  AccessType::Load, lineBytes, Scope::Weak},
            Burst{rank_ + vfirst * 4, lines, lineBytes,
                  AccessType::Store, lineBytes, Scope::Weak},
        }});

        KernelLaunch kernel;
        kernel.gpu = gpu;
        kernel.name = "pagerank.apply";
        kernel.computeInstrs = (vend - vfirst) * instrsPerVertex;
        kernel.stream = makeGroupStream(std::move(groups));
        apply.kernels.push_back(std::move(kernel));
    }

    return phases;
}

void
PagerankWorkload::applyUmHints(WorkloadContext& ctx)
{
    Driver& drv = ctx.driver();
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t vfirst = graph().partFirst(g);
        const std::uint64_t bytes =
            (graph().partEnd(g) - vfirst) * 4;
        drv.advisePreferredLocation(rank_ + vfirst * 4, bytes, gpu);
        drv.advisePreferredLocation(rankNext_ + vfirst * 4, bytes, gpu);
        // Every peer may publish into any partition of rank_next.
        for (std::size_t o = 0; o < numGpus_; ++o) {
            if (o != g) {
                drv.adviseAccessedBy(rankNext_ + vfirst * 4, bytes,
                                     static_cast<GpuId>(o));
            }
        }
    }
}

} // namespace gps::apps

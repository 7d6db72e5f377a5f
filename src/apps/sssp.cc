#include "apps/sssp.hh"

#include <algorithm>

#include "apps/app_common.hh"

namespace gps::apps
{

namespace
{
constexpr std::uint64_t instrsPerEdge = 12;
} // namespace

void
SsspWorkload::setup(WorkloadContext& ctx)
{
    numGpus_ = ctx.numGpus();

    GraphParams params;
    params.numVertices = std::max<std::uint64_t>(
        1 << 14, static_cast<std::uint64_t>((1 << 18) * scale_));
    params.avgDegree = 12;
    params.numParts = numGpus_;
    params.locality = 0.8;  // road/web mix: many-to-many relaxations
    params.hubSkew = 0.6;
    params.seed = 1234;
    // Graph + per-partition relax target sets come from the cross-run
    // workload cache (generated once per sweep).
    bundle_ = WorkloadCache::instance().graphBundle(params, lineBytes / 4);
    const Graph& graph = bundle_->graph;

    dist_ = ctx.allocShared(graph.numVertices * 4, "sssp.dist", 0);

    relaxTrace_.assign(numGpus_, {});
    edgeLists_.assign(numGpus_, 0);
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const std::uint64_t edges = graph.partEdges[g];
        edgeLists_[g] = ctx.allocPrivate(
            std::max<std::uint64_t>(edges, 1) * 4,
            "sssp.edges." + std::to_string(g), static_cast<GpuId>(g));
        // Warp-aggregated atomicMin per distinct target line. Only the
        // base address is per-run; the group list comes from the cache.
        const std::vector<std::uint32_t>& groups = graph.targetGroups[g];
        std::vector<MemAccess>& trace = relaxTrace_[g];
        trace.reserve(groups.size());
        for (const std::uint32_t group : groups) {
            trace.push_back(MemAccess::atomic(
                dist_ + static_cast<Addr>(group) * lineBytes,
                lineBytes));
        }
    }
}

std::vector<Phase>
SsspWorkload::iteration(std::size_t iter, WorkloadContext& ctx)
{
    (void)ctx;
    Phase relax;
    relax.name = "sssp.relax";
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t vfirst = graph().partFirst(g);
        const std::uint64_t vend = graph().partEnd(g);
        const std::uint64_t vcount = vend - vfirst;
        const std::uint64_t active = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(vcount) * frontierFraction));
        const std::uint64_t edges = graph().partEdges[g];
        const std::uint64_t active_edges = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(edges) *
                                          frontierFraction));

        // The frontier window rotates each iteration so the steady
        // state is statistically stationary; it stays inside the
        // partition.
        const std::uint64_t slots =
            std::max<std::uint64_t>(vcount - active, 1);
        const std::uint64_t window_start = (iter * active) % slots;

        std::vector<Group> groups;
        groups.push_back(Group{{
            // Frontier distances (own partition, rotating window).
            Burst{dist_ + (vfirst + window_start) * 4,
                  (active * 4 + lineBytes - 1) / lineBytes, lineBytes,
                  AccessType::Load, lineBytes, Scope::Weak},
        }});

        std::vector<std::unique_ptr<AccessStream>> parts;
        parts.push_back(makeGroupStream(std::move(groups)));
        // Relax the frontier's slice of the publish trace (circular).
        const std::size_t relax_count = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   static_cast<double>(relaxTrace_[g].size()) *
                   frontierFraction));
        parts.push_back(std::make_unique<ReplayStream>(
            &relaxTrace_[g], (iter * relax_count), relax_count));

        KernelLaunch kernel;
        kernel.gpu = gpu;
        kernel.name = "sssp.relax";
        kernel.computeInstrs = active_edges * instrsPerEdge;
        // Frontier adjacency (index + weight) plus random gather and
        // relax read-modify-write traffic per active edge.
        kernel.prechargedDramBytes = active_edges * (8 + 2 * 32 + 2 * 32);
        kernel.stream = std::make_unique<ConcatStream>(std::move(parts));
        relax.kernels.push_back(std::move(kernel));

        // Memcpy port: ship the updated distance partition each round.
        relax.barrierBroadcasts.push_back(
            BroadcastRange{gpu, dist_ + vfirst * 4, vcount * 4});
    }

    std::vector<Phase> phases;
    phases.push_back(std::move(relax));
    return phases;
}

void
SsspWorkload::applyUmHints(WorkloadContext& ctx)
{
    Driver& drv = ctx.driver();
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const std::uint64_t vfirst = graph().partFirst(g);
        const std::uint64_t bytes = (graph().partEnd(g) - vfirst) * 4;
        drv.advisePreferredLocation(dist_ + vfirst * 4, bytes,
                                    static_cast<GpuId>(g));
        for (std::size_t o = 0; o < numGpus_; ++o) {
            if (o != g) {
                drv.adviseAccessedBy(dist_ + vfirst * 4, bytes,
                                     static_cast<GpuId>(o));
            }
        }
    }
}

} // namespace gps::apps

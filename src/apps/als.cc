#include "apps/als.hh"

#include <algorithm>

#include "apps/app_common.hh"
#include "common/rng.hh"

namespace gps::apps
{

namespace
{
/** Rank-32 dot products and gradient update per rating sample. */
constexpr std::uint64_t instrsPerRating = 500;

/** Rating record plus two random factor-row gathers per sample. */
constexpr std::uint64_t dramBytesPerRating = 8 + 2 * 128;
} // namespace

void
AlsWorkload::setup(WorkloadContext& ctx)
{
    numGpus_ = ctx.numGpus();
    users_ = std::max<std::uint64_t>(
        2048, static_cast<std::uint64_t>(24576 * scale_));
    items_ = users_;

    // One factor row per line (rank 32 floats).
    userFactors_ = ctx.allocShared(users_ * lineBytes, "als.user", 0);
    itemFactors_ = ctx.allocShared(items_ * lineBytes, "als.item", 0);

    ratings_.assign(numGpus_, 0);
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const std::uint64_t ufirst = users_ * g / numGpus_;
        const std::uint64_t uend = users_ * (g + 1) / numGpus_;
        const std::uint64_t num_ratings =
            (uend - ufirst) * ratingsPerUser_;
        ratings_[g] = ctx.allocPrivate(num_ratings * 8,
                                       "als.ratings." + std::to_string(g),
                                       static_cast<GpuId>(g));
    }
}

namespace
{

/** Load then atomic update of each of @p rows lines from @p base. */
Group
readUpdateRows(Addr base, std::uint64_t rows)
{
    return Group{{
        Burst{base, rows, lineBytes, AccessType::Load, lineBytes,
              Scope::Weak},
        Burst{base, rows, lineBytes, AccessType::Atomic, lineBytes,
              Scope::Weak},
    }};
}

} // namespace

std::vector<Phase>
AlsWorkload::iteration(std::size_t iter, WorkloadContext& ctx)
{
    (void)iter;
    (void)ctx;
    Phase epoch;
    epoch.name = "als.sgd_epoch";
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t ufirst = users_ * g / numGpus_;
        const std::uint64_t uend = users_ * (g + 1) / numGpus_;
        const std::uint64_t num_ratings =
            (uend - ufirst) * ratingsPerUser_;

        // With ~128 ratings per user, an epoch touches every item row
        // and every owned user row many times; the LSU aggregates the
        // per-sample atomics so each factor row produces one read and
        // one aggregated atomic update per epoch. The per-sample random
        // gathers enter the DRAM model through prechargedDramBytes.
        std::vector<Group> groups;
        groups.push_back(readUpdateRows(itemFactors_, items_));
        groups.push_back(readUpdateRows(lineAddr(userFactors_, ufirst),
                                        uend - ufirst));

        KernelLaunch kernel;
        kernel.gpu = gpu;
        kernel.name = "als.sgd";
        kernel.computeInstrs = num_ratings * instrsPerRating;
        kernel.prechargedDramBytes = num_ratings * dramBytesPerRating;
        kernel.stream = makeGroupStream(std::move(groups));
        epoch.kernels.push_back(std::move(kernel));

        // Memcpy port: the partitioned-ALS variant broadcasts its own
        // factor slabs after each epoch.
        epoch.barrierBroadcasts.push_back(BroadcastRange{
            gpu, userFactors_ + ufirst * lineBytes,
            (uend - ufirst) * lineBytes});
        const std::uint64_t ifirst = items_ * g / numGpus_;
        const std::uint64_t iend = items_ * (g + 1) / numGpus_;
        epoch.barrierBroadcasts.push_back(BroadcastRange{
            gpu, itemFactors_ + ifirst * lineBytes,
            (iend - ifirst) * lineBytes});
    }

    std::vector<Phase> phases;
    phases.push_back(std::move(epoch));
    return phases;
}

void
AlsWorkload::applyUmHints(WorkloadContext& ctx)
{
    Driver& drv = ctx.driver();
    for (std::size_t g = 0; g < numGpus_; ++g) {
        const GpuId gpu = static_cast<GpuId>(g);
        const std::uint64_t ufirst = users_ * g / numGpus_;
        const std::uint64_t ulen =
            (users_ * (g + 1) / numGpus_ - ufirst) * lineBytes;
        drv.advisePreferredLocation(userFactors_ + ufirst * lineBytes,
                                    ulen, gpu);
        drv.advisePreferredLocation(itemFactors_ + ufirst * lineBytes,
                                    ulen, gpu);
        for (std::size_t o = 0; o < numGpus_; ++o) {
            if (o == g)
                continue;
            drv.adviseAccessedBy(userFactors_ + ufirst * lineBytes, ulen,
                                 static_cast<GpuId>(o));
            drv.adviseAccessedBy(itemFactors_ + ufirst * lineBytes, ulen,
                                 static_cast<GpuId>(o));
        }
    }
}

} // namespace gps::apps

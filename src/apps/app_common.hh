/**
 * @file
 * Building blocks shared by the workload generators: 1-D slab
 * partitioning and composable access-stream generators (interleaved
 * stencil bursts, sequential multi-pass sweeps, prebuilt access lists).
 */

#ifndef GPS_APPS_APP_COMMON_HH
#define GPS_APPS_APP_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "trace/access.hh"
#include "trace/kernel_trace.hh"

namespace gps::apps
{

/** Cache-line size every generator emits at (Table 1). */
constexpr std::uint32_t lineBytes = 128;

/** Address of line @p line within an array at @p base. */
constexpr Addr
lineAddr(Addr base, std::uint64_t line)
{
    return base + line * lineBytes;
}

/** 1-D block partition of an array of lines across GPUs. */
struct Slab1D
{
    std::uint64_t totalLines = 0;
    std::size_t numGpus = 1;

    std::uint64_t
    first(GpuId gpu) const
    {
        return totalLines * gpu / numGpus;
    }

    std::uint64_t
    end(GpuId gpu) const
    {
        return totalLines * (gpu + 1) / numGpus;
    }

    std::uint64_t count(GpuId gpu) const { return end(gpu) - first(gpu); }

    /**
     * GPU owning @p line: the smallest g with line < end(g), in closed
     * form. end(g) = floor(totalLines*(g+1)/numGpus) >= line+1 iff
     * totalLines*(g+1) >= ceil-adjusted numGpus*(line+1), so the
     * smallest such g is ceil(numGpus*(line+1)/totalLines) - 1. Lines
     * at or past totalLines clamp to the last GPU, matching the old
     * linear scan.
     */
    GpuId
    owner(std::uint64_t line) const
    {
        if (totalLines == 0)
            return static_cast<GpuId>(numGpus - 1);
        const std::uint64_t g =
            (numGpus * (line + 1) + totalLines - 1) / totalLines - 1;
        return static_cast<GpuId>(g >= numGpus ? numGpus - 1 : g);
    }
};

/** One strided run of accesses. */
struct Burst
{
    Addr base = 0;
    std::uint64_t count = 0;
    std::int64_t strideBytes = lineBytes;
    AccessType type = AccessType::Load;
    std::uint32_t size = lineBytes;
    Scope scope = Scope::Weak;
};

/**
 * A group interleaves its bursts round-robin (one access from each in
 * turn) — the natural shape of a stencil inner loop (load, load, load,
 * store per column). Groups run sequentially, which expresses multi-pass
 * sweeps and their store-reuse distances.
 */
struct Group
{
    std::vector<Burst> bursts;
};

/** Stream over a sequence of groups. */
class GroupStream : public AccessStream
{
  public:
    explicit GroupStream(std::vector<Group> groups)
        : groups_(std::move(groups))
    {
        enterGroup();
    }

    bool
    next(MemAccess& out) override
    {
        while (groupIdx_ < groups_.size()) {
            Group& group = groups_[groupIdx_];
            const std::size_t nb = group.bursts.size();
            // cursor_ < nb, so the round-robin index wraps at most once.
            std::size_t b = cursor_;
            for (std::size_t probe = 0; probe < nb;
                 ++probe, b = b + 1 == nb ? 0 : b + 1) {
                if (pos_[b] < group.bursts[b].count) {
                    const Burst& burst = group.bursts[b];
                    out.vaddr = static_cast<Addr>(
                        static_cast<std::int64_t>(burst.base) +
                        static_cast<std::int64_t>(pos_[b]) *
                            burst.strideBytes);
                    out.size = burst.size;
                    out.type = burst.type;
                    out.scope = burst.scope;
                    ++pos_[b];
                    cursor_ = b + 1 == nb ? 0 : b + 1;
                    return true;
                }
            }
            ++groupIdx_;
            enterGroup();
        }
        return false;
    }

    std::size_t
    nextBatch(MemAccess* out, std::size_t max) override
    {
        std::size_t n = 0;
        while (n < max && groupIdx_ < groups_.size()) {
            const Group& group = groups_[groupIdx_];
            if (group.bursts.size() != 1) {
                // Interleaved bursts keep the per-access path (the
                // round-robin cursor is the semantics).
                if (!next(out[n]))
                    break;
                ++n;
                continue;
            }
            // Single-burst group: emit the strided run directly.
            const Burst& burst = group.bursts[0];
            const std::uint64_t left = burst.count - pos_[0];
            const std::size_t chunk = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, max - n));
            for (std::size_t i = 0; i < chunk; ++i) {
                MemAccess& acc = out[n + i];
                acc.vaddr = static_cast<Addr>(
                    static_cast<std::int64_t>(burst.base) +
                    static_cast<std::int64_t>(pos_[0] + i) *
                        burst.strideBytes);
                acc.size = burst.size;
                acc.type = burst.type;
                acc.scope = burst.scope;
            }
            pos_[0] += chunk;
            n += chunk;
            if (pos_[0] == burst.count) {
                ++groupIdx_;
                enterGroup();
            }
        }
        return n;
    }

  private:
    void
    enterGroup()
    {
        cursor_ = 0;
        if (groupIdx_ < groups_.size()) {
            pos_.assign(groups_[groupIdx_].bursts.size(), 0);
        }
    }

    std::vector<Group> groups_;
    std::size_t groupIdx_ = 0;
    std::size_t cursor_ = 0;
    std::vector<std::uint64_t> pos_;
};

/**
 * Stream replaying a persistent, precomputed access list (graph kernels
 * build their per-epoch traces once at setup). Supports replaying a
 * circular slice, which models a rotating frontier.
 */
class ReplayStream : public AccessStream
{
  public:
    /**
     * @param trace persistent list owned by the workload
     * @param start first index (wraps)
     * @param count accesses to emit (capped at trace size)
     */
    ReplayStream(const std::vector<MemAccess>* trace, std::size_t start,
                 std::size_t count)
        : trace_(trace), pos_(start),
          remaining_(std::min(count, trace->size()))
    {
        gps_assert(trace != nullptr, "null replay trace");
    }

    explicit ReplayStream(const std::vector<MemAccess>* trace)
        : ReplayStream(trace, 0, trace->size())
    {}

    bool
    next(MemAccess& out) override
    {
        if (remaining_ == 0 || trace_->empty())
            return false;
        out = (*trace_)[pos_ % trace_->size()];
        ++pos_;
        --remaining_;
        return true;
    }

    std::size_t
    nextBatch(MemAccess* out, std::size_t max) override
    {
        const std::size_t size = trace_->size();
        if (size == 0)
            return 0;
        const std::size_t want = std::min(max, remaining_);
        std::size_t produced = 0;
        // The circular slice is at most two contiguous spans per lap.
        while (produced < want) {
            const std::size_t at = pos_ % size;
            const std::size_t chunk =
                std::min(want - produced, size - at);
            std::copy_n(trace_->data() + at, chunk, out + produced);
            produced += chunk;
            pos_ += chunk;
        }
        remaining_ -= produced;
        return produced;
    }

  private:
    const std::vector<MemAccess>* trace_;
    std::size_t pos_;
    std::size_t remaining_;
};

/** Convenience: wrap groups into a stream pointer. */
inline std::unique_ptr<AccessStream>
makeGroupStream(std::vector<Group> groups)
{
    return std::make_unique<GroupStream>(std::move(groups));
}

/**
 * Append a tiled multi-pass store sweep over [first_line, first_line +
 * total_lines): the slab is cut into tiles whose sizes cycle through
 * @p tile_sizes; each tile is stored @p passes times in a row. A pass
 * re-stores lines at reuse distance == tile size, which is what the GPS
 * remote write queue can coalesce (Figure 14's ramp) — tiles larger than
 * the queue never hit.
 */
void appendTiledStores(std::vector<Group>& groups, Addr array_base,
                       std::uint64_t first_line, std::uint64_t total_lines,
                       const std::vector<std::uint64_t>& tile_sizes,
                       unsigned passes);

} // namespace gps::apps

#endif // GPS_APPS_APP_COMMON_HH

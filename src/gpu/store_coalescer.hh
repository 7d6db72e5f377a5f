/**
 * @file
 * SM-level store coalescer.
 *
 * Models the intra-SM write combining that merges spatially adjacent
 * stores from a warp into a single cache-line transaction before anything
 * reaches the GPS remote write queue. This is why the paper measures a 0%
 * *remote write queue* hit rate for Jacobi: all of its spatial locality is
 * captured here (Section 7.4).
 */

#ifndef GPS_GPU_STORE_COALESCER_HH
#define GPS_GPU_STORE_COALESCER_HH

#include <cstdint>
#include <vector>

#include "common/divider.hh"
#include "common/types.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

/**
 * Small FIFO of recently written cache lines; a store whose line is still
 * resident merges and produces no downstream transaction.
 */
class StoreCoalescer : public SimObject
{
  public:
    /**
     * @param name component name
     * @param depth number of line slots (GpuConfig::smCoalescerDepth)
     * @param line_bytes cache line size
     */
    StoreCoalescer(std::string name, std::uint32_t depth,
                   std::uint32_t line_bytes);

    /**
     * Offer a store to the coalescer.
     * @param addr store address
     * @return true if merged into a resident line (absorbed), false if it
     *         starts a new line transaction.
     */
    bool absorb(Addr addr);

    /** Atomics are never coalesced; they flush nothing but bypass. */
    void reset();

    std::uint64_t absorbed() const { return absorbed_; }
    std::uint64_t forwarded() const { return forwarded_; }

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;
    void resetStats() override;

    /** Serialize the resident lines and the counters. */
    void
    saveState(snapshot::Serializer& out) const
    {
        out.section("coalescer");
        out.u64(lines_.size());
        for (const std::uint64_t line : lines_)
            out.u64(line);
        out.u32(head_);
        out.u32(valid_);
        out.u64(absorbed_);
        out.u64(forwarded_);
    }

    /** Counterpart of saveState; depth must match this instance. */
    void
    restoreState(snapshot::Deserializer& in)
    {
        in.section("coalescer");
        if (in.u64() != lines_.size())
            throw snapshot::SnapshotError(
                "snapshot coalescer depth differs from the configured "
                "coalescer");
        for (std::uint64_t& line : lines_)
            line = in.u64();
        head_ = in.u32();
        valid_ = in.u32();
        if (head_ >= depth_ || valid_ > depth_)
            throw snapshot::SnapshotError(
                "snapshot coalescer cursor out of range");
        absorbed_ = in.u64();
        forwarded_ = in.u64();
    }

  private:
    std::uint32_t depth_;
    Divider lineDiv_;
    std::vector<std::uint64_t> lines_; ///< circular buffer of line numbers
    std::uint32_t head_ = 0;
    std::uint32_t valid_ = 0;

    std::uint64_t absorbed_ = 0;
    std::uint64_t forwarded_ = 0;
};

} // namespace gps

#endif // GPS_GPU_STORE_COALESCER_HH

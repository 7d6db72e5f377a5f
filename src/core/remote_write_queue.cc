#include "core/remote_write_queue.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"

namespace gps
{

namespace
{

/** Ring slots of a fresh queue; the ring doubles from here on demand. */
constexpr std::size_t minRingSlots = 8;

} // namespace

RemoteWriteQueue::RemoteWriteQueue(std::string name,
                                   const GpsConfig& config,
                                   std::uint32_t line_bytes,
                                   PageGeometry geometry,
                                   const RunSinks& sinks, int track)
    : SimObject(std::move(name)), config_(&config),
      lineBytes_(line_bytes),
      lineShift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
      geometry_(geometry), sinks_(sinks), track_(track)
{
    gps_assert(config.wqEntries > 0, "zero-entry remote write queue");
    resize(minRingSlots);
}

bool
RemoteWriteQueue::insert(Addr addr, std::uint32_t size,
                         std::uint32_t copies)
{
    (void)size;
    const Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);

    const std::uint32_t weight =
        config_->virtuallyAddressedWq ? 1 : std::max(copies, 1u);

    const std::size_t at = find(line);
    if (index_[at] != noSlot) {
        WqEntry& entry = ring_[index_[at]];
        entry.bytesWritten =
            std::min<std::uint32_t>(lineBytes_, entry.bytesWritten + size);
        ++entry.mergedStores;
        ++coalesced_;
        // The subscriber set may have changed since the entry was
        // created; under the physically-addressed ablation the entry's
        // capacity weight tracks the current copy count, so occupancy
        // is re-charged and a growth may force watermark drains. The
        // entry itself can drain here — don't touch it afterwards.
        if (weight != entry.weight) {
            occupancy_ = occupancy_ - entry.weight + weight;
            entry.weight = weight;
            drainToWatermark();
        }
        return true;
    }

    WqEntry entry;
    entry.line = line;
    entry.bytesWritten = std::min<std::uint32_t>(lineBytes_, size);
    entry.mergedStores = 1;
    entry.weight = weight;

    entry.seq = inserts_;
    pushBack(entry, at);
    occupancy_ += entry.weight;
    ++inserts_;
    if (sinks_.profile != nullptr)
        sinks_.profile->noteRwqOccupancy(occupancy_);
    if (sinks_.causal != nullptr)
        sinks_.causal->noteDep(CausalEdge::RwqInsertToDrain);

    drainToWatermark();
    return false;
}

void
RemoteWriteQueue::drainToWatermark()
{
    // At the high watermark, drain least-recently-added entries to free
    // space while leaving maximum coalescing opportunity (§5.2). Under
    // injected saturation the watermark collapses and each forced drain
    // stalls the producing SM (charged by the caller via stallDrains).
    std::uint32_t watermark = config_->highWatermark();
    if (saturated_ && config_->saturatedWatermarkDivisor > 0)
        watermark = std::min(
            watermark,
            config_->wqEntries / config_->saturatedWatermarkDivisor);
    while (occupancy_ > watermark && count_ > 1) {
        ++watermarkDrains_;
        if (saturated_) {
            ++stallDrains_;
            if (sinks_.causal != nullptr)
                sinks_.causal->noteDep(CausalEdge::RwqSaturationStall);
        }
        drainOne();
    }
}

bool
RemoteWriteQueue::contains(Addr addr) const
{
    const Addr line = addr & ~static_cast<Addr>(lineBytes_ - 1);
    return index_[find(line)] != noSlot;
}

void
RemoteWriteQueue::setSaturated(bool saturated)
{
    if (saturated == saturated_)
        return;
    saturated_ = saturated;
    if (sinks_.recorder != nullptr)
        sinks_.recorder->instantNow(
            track_, saturated ? "wq_saturated" : "wq_restored", "rwq");
}

void
RemoteWriteQueue::drainAll()
{
    const std::uint64_t before = drains_;
    while (count_ > 0)
        drainOne();
    if (sinks_.recorder != nullptr && drains_ > before)
        sinks_.recorder->instantNow(
            track_, "wq_drain_all", "rwq",
            {{"entries", static_cast<double>(drains_ - before)}});
}

void
RemoteWriteQueue::drainPage(PageNum vpn)
{
    // Drain the page's entries front to back, sliding each survivor
    // down over the gaps so the ring stays in insertion order.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count_; ++i) {
        const std::size_t slot = slotAt(i);
        if (geometry_.pageNum(ring_[slot].line) != vpn) {
            if (kept != i) {
                const std::size_t to = slotAt(kept);
                index_[find(ring_[slot].line)] = to;
                ring_[to] = ring_[slot];
            }
            ++kept;
            continue;
        }
        const WqEntry entry = ring_[slot];
        unindex(find(entry.line));
        drainEntry(entry);
    }
    count_ = kept;
}

void
RemoteWriteQueue::drainOne()
{
    gps_assert(count_ > 0, "drain of empty write queue");
    const WqEntry entry = ring_[head_];
    unindex(find(entry.line));
    head_ = slotAt(1);
    --count_;
    drainEntry(entry);
}

void
RemoteWriteQueue::drainEntry(const WqEntry& entry)
{
    occupancy_ -= entry.weight;
    ++drains_;
    if (sinks_.profile != nullptr)
        sinks_.profile->noteRwqDrainResidency(inserts_ - entry.seq);
    if (drain_)
        drain_(entry);
}

void
RemoteWriteQueue::pushBack(const WqEntry& entry, std::size_t at)
{
    if (count_ == ring_.size()) {
        resize(2 * ring_.size());
        at = find(entry.line);
    }
    const std::size_t slot = slotAt(count_);
    ring_[slot] = entry;
    index_[at] = slot;
    ++count_;
}

void
RemoteWriteQueue::unindex(std::size_t hole)
{
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; index_[i] != noSlot;
         i = (i + 1) & mask) {
        // The entry at i may move back into the hole unless its probe
        // starts after the hole, in (hole, i].
        const std::size_t home = homeOf(ring_[index_[i]].line);
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole] = noSlot;
}

void
RemoteWriteQueue::resize(std::size_t slots)
{
    std::vector<WqEntry> ring(slots);
    for (std::size_t i = 0; i < count_; ++i)
        ring[i] = ring_[slotAt(i)];
    ring_ = std::move(ring);
    head_ = 0;
    index_.assign(2 * slots, noSlot);
    indexShift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (std::size_t i = 0; i < count_; ++i)
        index_[find(ring_[i].line)] = i;
}

void
RemoteWriteQueue::restoreState(snapshot::Deserializer& in)
{
    in.section("rwq");
    count_ = 0;
    resize(minRingSlots);
    const std::uint64_t n = in.count(1ULL << 24);
    for (std::uint64_t i = 0; i < n; ++i) {
        WqEntry e;
        e.line = in.u64();
        if (in.u64() != geometry_.pageNum(e.line))
            throw snapshot::SnapshotError(
                "corrupt snapshot: write-queue entry's vpn is not its "
                "line's page");
        e.bytesWritten = in.u32();
        e.mergedStores = in.u32();
        e.weight = in.u32();
        e.seq = in.u64();
        const std::size_t at = find(e.line);
        if (index_[at] != noSlot)
            throw snapshot::SnapshotError(
                "corrupt snapshot: write-queue line buffered twice");
        pushBack(e, at);
    }
    occupancy_ = in.u32();
    inserts_ = in.u64();
    coalesced_ = in.u64();
    drains_ = in.u64();
    atomicBypass_ = in.u64();
    watermarkDrains_ = in.u64();
    forwardHits_ = in.u64();
    stallDrains_ = in.u64();
    saturated_ = in.b();
}

double
RemoteWriteQueue::hitRate() const
{
    const std::uint64_t total = coalesced_ + inserts_ + atomicBypass_;
    return total == 0 ? 0.0
                      : static_cast<double>(coalesced_) /
                            static_cast<double>(total);
}

std::uint64_t
RemoteWriteQueue::sramBytes() const
{
    return static_cast<std::uint64_t>(config_->wqEntries) *
           config_->wqEntryBytes;
}

void
RemoteWriteQueue::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.counter(p + "inserts", "entries",
                [this] { return static_cast<double>(inserts_); });
    reg.counter(p + "coalesced", "stores",
                [this] { return static_cast<double>(coalesced_); });
    reg.counter(p + "drains", "entries",
                [this] { return static_cast<double>(drains_); });
    reg.counter(p + "atomic_bypass", "ops",
                [this] { return static_cast<double>(atomicBypass_); });
    reg.counter(p + "watermark_drains", "entries",
                [this] { return static_cast<double>(watermarkDrains_); });
    reg.counter(p + "stall_drains", "entries",
                [this] { return static_cast<double>(stallDrains_); });
    reg.counter(p + "forward_hits", "loads",
                [this] { return static_cast<double>(forwardHits_); });
    reg.gauge(p + "occupancy", "units",
              [this] { return static_cast<double>(occupancy_); });
    reg.gauge(p + "hit_rate", "ratio", [this] { return hitRate(); });
}

} // namespace gps

#include "mem/page_table.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "obs/metric_registry.hh"

namespace gps
{

namespace
{

/** Slots of a table's first allocation. */
constexpr std::size_t minSlots = 16;

/** Whether @p mappings fit @p slots at most three quarters full. */
constexpr bool
fits(std::size_t mappings, std::size_t slots)
{
    return mappings * 4 <= slots * 3;
}

} // namespace

void
PageTable::map(PageNum vpn, const Pte& pte)
{
    gps_assert(vpn != noVpn, "map of the reserved vpn ", vpn);
    ++mapOps_;
    if (Pte* mapped = lookupMutable(vpn)) {
        *mapped = pte;
        return;
    }
    if (!fits(size_ + 1, slots_.size()))
        rehash(std::max(minSlots, 2 * slots_.size()));
    insert(Slot{vpn, pte});
    ++size_;
}

void
PageTable::insert(Slot slot)
{
    // Take the slot of the first entry nearer its home than this one
    // is to its own, and carry that entry on.
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(slot.vpn) & mask;
    for (std::size_t d = 0;; ++d, i = (i + 1) & mask) {
        if (slots_[i].vpn == noVpn) {
            slots_[i] = slot;
            return;
        }
        const std::size_t other = distance(i);
        if (other < d) {
            std::swap(slots_[i], slot);
            d = other;
        }
    }
}

void
PageTable::unmap(PageNum vpn)
{
    std::size_t hole = find(vpn);
    if (hole == notFound)
        return;
    // Shift the cluster's later entries back one slot each, up to the
    // first that sits at its home (or the end of the cluster).
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (hole + 1) & mask;
         slots_[i].vpn != noVpn && distance(i) > 0; i = (i + 1) & mask) {
        slots_[hole] = slots_[i];
        hole = i;
    }
    slots_[hole].vpn = noVpn;
    --size_;
    ++unmapOps_;
}

void
PageTable::rehash(std::size_t capacity)
{
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    for (const Slot& slot : old) {
        if (slot.vpn != noVpn)
            insert(slot);
    }
}

void
PageTable::setGpsBit(PageNum vpn, bool value)
{
    Pte* pte = lookupMutable(vpn);
    gps_assert(pte != nullptr, "setGpsBit on unmapped vpn ", vpn);
    pte->gpsBit = value;
}

void
PageTable::saveState(snapshot::Serializer& out) const
{
    out.section("pagetable");
    std::vector<const Slot*> mapped;
    mapped.reserve(size_);
    for (const Slot& slot : slots_) {
        if (slot.vpn != noVpn)
            mapped.push_back(&slot);
    }
    std::sort(mapped.begin(), mapped.end(),
              [](const Slot* a, const Slot* b) { return a->vpn < b->vpn; });
    out.u64(mapped.size());
    for (const Slot* slot : mapped) {
        out.u64(slot->vpn);
        out.u64(slot->pte.ppn);
        out.u32(slot->pte.location);
        out.b(slot->pte.gpsBit);
    }
    out.u64(mapOps_);
    out.u64(unmapOps_);
}

void
PageTable::restoreState(snapshot::Deserializer& in)
{
    in.section("pagetable");
    const std::uint64_t n = in.count(1ULL << 40);
    std::size_t capacity = minSlots;
    while (!fits(n, capacity))
        capacity *= 2;
    slots_.assign(capacity, Slot{});
    size_ = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        Slot slot;
        slot.vpn = in.u64();
        if (slot.vpn == noVpn || find(slot.vpn) != notFound)
            throw snapshot::SnapshotError(
                "corrupt snapshot: page table maps a vpn twice or the "
                "reserved vpn");
        slot.pte.ppn = in.u64();
        slot.pte.location = static_cast<GpuId>(in.u32());
        slot.pte.gpsBit = in.b();
        insert(slot);
        ++size_;
    }
    mapOps_ = in.u64();
    unmapOps_ = in.u64();
}

void
PageTable::registerMetrics(MetricRegistry& reg) const
{
    const std::string p = name() + '.';
    reg.gauge(p + "mappings", "pages",
              [this] { return static_cast<double>(size_); });
    reg.counter(p + "map_ops", "events",
                [this] { return static_cast<double>(mapOps_); });
    reg.counter(p + "unmap_ops", "events",
                [this] { return static_cast<double>(unmapOps_); });
}

} // namespace gps

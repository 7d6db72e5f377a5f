#include "apps/workload_cache.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/env.hh"

namespace gps::apps
{

std::string
graphBundleKey(const GraphParams& params,
               std::uint32_t vertices_per_group)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "graph|%llu|%u|%zu|%.17g|%.17g|%llu|%u|",
                  static_cast<unsigned long long>(params.numVertices),
                  params.avgDegree, params.numParts, params.locality,
                  params.hubSkew,
                  static_cast<unsigned long long>(params.seed),
                  vertices_per_group);
    return buf;
}

namespace
{

std::shared_ptr<const GraphBundle>
buildBundle(const GraphParams& params, std::uint32_t vertices_per_group)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto bundle = std::make_shared<GraphBundle>();
    bundle->graph = makePowerLawGraph(params, vertices_per_group);
    bundle->buildSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return bundle;
}

} // namespace

WorkloadCache::WorkloadCache()
{
    // Validated parse: garbage or out-of-range values warn and keep the
    // default instead of silently becoming 0 (disabled) or a
    // wrapped-around huge capacity.
    capacity_ = envSizeT("GPS_WORKLOAD_CACHE_CAP", capacity_,
                         std::size_t(1) << 20);
}

WorkloadCache&
WorkloadCache::instance()
{
    static WorkloadCache cache;
    return cache;
}

std::shared_ptr<const GraphBundle>
WorkloadCache::graphBundle(const GraphParams& params,
                           std::uint32_t vertices_per_group)
{
    const std::string key = graphBundleKey(params, vertices_per_group);

    std::promise<std::shared_ptr<const GraphBundle>> promise;
    std::shared_future<std::shared_ptr<const GraphBundle>> pending;
    std::uint64_t myId = 0;
    bool disabled = false;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        if (capacity_ == 0)
            disabled = true;
    }
    if (disabled) {
        // Capacity 0 = caching disabled: build fresh and store nothing
        // (no entry, no in-flight dedup).
        std::shared_ptr<const GraphBundle> bundle =
            buildBundle(params, vertices_per_group);
        const std::lock_guard<std::mutex> lock(mu_);
        ++counters_.misses;
        counters_.buildSeconds += bundle->buildSeconds;
        return bundle;
    }
    {
        const std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            // Hit — possibly on a build still in flight, in which case
            // waiting on the future (outside the lock) blocks until the
            // builder finishes, so concurrent requesters share one
            // single-threaded build.
            ++counters_.hits;
            touchLocked(it->second);
            pending = it->second.future;
        } else {
            ++counters_.misses;
            Entry entry;
            entry.future = promise.get_future().share();
            entry.id = nextId_++;
            myId = entry.id;
            entries_.emplace(key, std::move(entry));
        }
    }
    if (pending.valid())
        return pending.get();

    std::shared_ptr<const GraphBundle> bundle;
    try {
        bundle = buildBundle(params, vertices_per_group);
    } catch (...) {
        // Unwind: fail the waiters and forget the entry so a later
        // request can retry.
        promise.set_exception(std::current_exception());
        const std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.id == myId)
            entries_.erase(it);
        throw;
    }
    promise.set_value(bundle);

    const std::lock_guard<std::mutex> lock(mu_);
    counters_.buildSeconds += bundle->buildSeconds;
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.id == myId) {
        lru_.push_front(key);
        it->second.lruIt = lru_.begin();
        it->second.inLru = true;
        evictIfNeededLocked();
    }
    return bundle;
}

WorkloadCache::Counters
WorkloadCache::counters() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

std::size_t
WorkloadCache::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
WorkloadCache::clear()
{
    const std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    lru_.clear();
    counters_ = Counters{};
}

std::size_t
WorkloadCache::capacity() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
}

void
WorkloadCache::setCapacity(std::size_t capacity)
{
    const std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    evictIfNeededLocked();
}

void
WorkloadCache::touchLocked(Entry& entry)
{
    if (entry.inLru)
        lru_.splice(lru_.begin(), lru_, entry.lruIt);
}

void
WorkloadCache::evictIfNeededLocked()
{
    // capacity 0 = caching disabled: nothing may stay resident, so the
    // plain size comparison also drains the LRU after setCapacity(0).
    while (lru_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++counters_.evictions;
    }
}

} // namespace gps::apps

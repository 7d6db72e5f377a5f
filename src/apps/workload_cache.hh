/**
 * @file
 * Cross-run memoization of generated workload inputs.
 *
 * Sweep grids re-run the same application under many simulator knobs
 * (paradigm, interconnect, queue depths, ...). Those knobs change how a
 * run replays, but not what the workload generates: a synthetic graph's
 * per-partition edge counts and publish sets depend only on the
 * generation parameters. The benches' RunCache memoizes finished
 * *runs*; this layer memoizes generated *inputs*, so a 30-cell grid
 * generates each distinct graph once instead of 30 times — across the
 * sweep thread-pool and the serve-mode workers alike. An entry holds
 * only what the apps read, at most 4 B per target group per partition:
 * the generator streams the edges into it and keeps no edge array.
 *
 * Keying follows the configKey idiom (src/api/sweep.hh): a
 * deterministic serialization of every field that can change the
 * generated bytes. Entries are immutable once built and handed out as
 * shared_ptr<const>; a bounded LRU keeps the resident set in check
 * (evicted entries stay alive for as long as a workload holds the
 * handle). Concurrent requests for the same key deduplicate in-flight:
 * the first requester generates, the rest wait on its future — which
 * also makes generation deterministic for any thread count, since a
 * key's bytes are always produced by exactly one single-threaded build.
 */

#ifndef GPS_APPS_WORKLOAD_CACHE_HH
#define GPS_APPS_WORKLOAD_CACHE_HH

#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/graph.hh"

namespace gps::apps
{

/**
 * One generated graph workload input: the partition shape, per-partition
 * edge counts and publish sets every graph app reads.
 */
struct GraphBundle
{
    /** makePowerLawGraph(params, vertices_per_group). */
    Graph graph;

    /** Wall seconds the cold build took (generation cost telemetry). */
    double buildSeconds = 0.0;
};

/** Deterministic serialization of every generation-affecting field. */
std::string graphBundleKey(const GraphParams& params,
                           std::uint32_t vertices_per_group);

/**
 * Process-wide, thread-safe, bounded memo of generated workload inputs.
 * Capacity comes from GPS_WORKLOAD_CACHE_CAP (entries, default 32,
 * 0 = caching disabled, every request generates fresh). Invalid values
 * warn and keep the default.
 */
class WorkloadCache
{
  public:
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;

        /** Total wall seconds spent in cold builds. */
        double buildSeconds = 0.0;
    };

    static WorkloadCache& instance();

    /**
     * The bundle for @p params at @p vertices_per_group: generated on
     * first request, shared afterwards. A hit returns the very object a
     * cold build produced, so anything derived from it is byte-identical
     * to a fresh generation.
     */
    std::shared_ptr<const GraphBundle> graphBundle(
        const GraphParams& params, std::uint32_t vertices_per_group);

    Counters counters() const;
    std::size_t size() const;
    std::size_t capacity() const;

    /** Drop every entry and zero the counters (tests). */
    void clear();

    /** Rebound the cache, evicting LRU entries if needed (tests). */
    void setCapacity(std::size_t capacity);

  private:
    WorkloadCache();

    struct Entry
    {
        std::shared_future<std::shared_ptr<const GraphBundle>> future;
        /** Position in lru_; valid once the build completed. */
        std::list<std::string>::iterator lruIt;
        bool inLru = false;
        /** Distinguishes re-created entries after a clear() race. */
        std::uint64_t id = 0;
    };

    void touchLocked(Entry& entry);
    void evictIfNeededLocked();

    std::size_t capacity_ = 32;
    mutable std::mutex mu_;
    std::list<std::string> lru_; ///< front = most recently used
    std::map<std::string, Entry> entries_;
    Counters counters_;
    std::uint64_t nextId_ = 1;
};

} // namespace gps::apps

#endif // GPS_APPS_WORKLOAD_CACHE_HH

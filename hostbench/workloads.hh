/**
 * @file
 * The benchmark's named workloads: which (app, RunConfig) rows each one
 * runs, the per-row outputs pinned for them, and the seeded row order.
 */

#ifndef GPS_HOSTBENCH_WORKLOADS_HH
#define GPS_HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/runner.hh"

namespace hostbench
{

/** One simulation the workload runs. */
struct Row
{
    std::string label; ///< unique within the workload, e.g. "fig8/CT/GPS"
    std::string app;   ///< bundled workload name
    gps::RunConfig config;
};

/**
 * The rows of @p workload in canonical order; throws on an unknown
 * name. `observed` rows have every collector on.
 */
std::vector<Row> workloadRows(const std::string& workload);

/**
 * @p rows permuted by @p seed. `paper4` keeps each app's rows together
 * and in canonical order, so every warm-start group keeps its leader
 * (the subscribed GPS row); only the app order changes. Other workloads
 * permute freely. Simulated outputs do not depend on the order.
 */
std::vector<Row> seededOrder(const std::string& workload,
                             std::vector<Row> rows, std::uint64_t seed);

/** The simulated outputs a row must reproduce. */
struct Pinned
{
    gps::Tick totalTime = 0;
    std::uint64_t interconnectBytes = 0;
    std::uint64_t accesses = 0;

    bool operator==(const Pinned&) const = default;
};

Pinned pinnedOf(const gps::RunResult& result);

/** "workload/label" -> pinned outputs. */
using PinnedTable = std::map<std::string, Pinned>;

/**
 * Read a pinned table: one "workload label totalTime interconnectBytes
 * accesses" line per row, '#' comments allowed. Throws on a malformed
 * line.
 */
PinnedTable readPinned(const std::string& path);

/** One line of the pinned table. */
std::string pinnedLine(const std::string& workload, const std::string& label,
                       const Pinned& pinned);

/**
 * Whether @p result reproduces the pinned outputs of @p label; a row
 * missing from @p table never does.
 */
bool matchesPinned(const PinnedTable& table, const std::string& workload,
                   const std::string& label, const gps::RunResult& result);

} // namespace hostbench

#endif // GPS_HOSTBENCH_WORKLOADS_HH

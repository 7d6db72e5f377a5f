/**
 * @file
 * Generator micro-benchmark: host-side replay throughput of the graph
 * workloads (Pagerank, SSSP) next to the stencil reference (Jacobi).
 *
 * Graph apps used to run ~100x slower than Jacobi because trace
 * generation (per-vertex sort + std::pow Zipf + copy/sort/unique
 * distinct targets) dominated their wall time. This bench regenerates
 * the numbers that exposed that gap and gates the fix: each app runs
 * under two paradigms plus its single-GPU baseline: the first paradigm
 * cell runs cold (paying the one-time graph build), the second hits
 * the workload cache — the steady state every later sweep grid point
 * sees. The perf log lands in BENCH_gen_graph.json for
 * tools/perf_compare; on top of that, the bench hard-fails if either
 * graph app's steady-state throughput drops below 1/3 of Jacobi's —
 * the ratio is machine-relative, so it is stable where absolute
 * throughput is not.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hh"
#include "common/logging.hh"

namespace
{

using namespace gps;
using namespace gps::bench;

const std::vector<std::string> appNames = {"Jacobi", "Pagerank", "SSSP"};
const std::vector<ParadigmKind> paradigms = {ParadigmKind::Gps,
                                             ParadigmKind::Memcpy};

RunConfig
cellConfig(ParadigmKind paradigm)
{
    RunConfig config = defaultConfig();
    config.paradigm = paradigm;
    return config;
}

std::string
cellLabel(const std::string& app, ParadigmKind paradigm)
{
    return "gen/" + app + "/" + to_string(paradigm);
}

/** Macc/s of a perf row by label (0 when absent or unmeasurable). */
double
maccOf(const std::vector<PerfRow>& rows, const std::string& label)
{
    for (const PerfRow& row : rows) {
        if (row.label == label && row.wallSeconds > 0.0)
            return static_cast<double>(row.accesses) /
                   row.wallSeconds / 1e6;
    }
    return 0.0;
}

/** Print the table; returns false if a graph app misses the ratio bar. */
bool
printTable()
{
    const std::vector<PerfRow> rows = RunCache::instance().perf();
    // The first paradigm cell runs cold (it pays the one-time graph
    // build); the second hits the workload cache, so it measures the
    // steady-state replay throughput every later grid point sees.
    const double jacobi =
        maccOf(rows, cellLabel("Jacobi", paradigms[1]));

    Table table({"app", "cold_macc", "warm_macc", "vs_jacobi"});
    bool ok = true;
    for (const std::string& app : appNames) {
        const double cold = maccOf(rows, cellLabel(app, paradigms[0]));
        const double warm = maccOf(rows, cellLabel(app, paradigms[1]));
        const double ratio = jacobi > 0.0 ? warm / jacobi : 0.0;
        table.row({app, fmt(cold, 2), fmt(warm, 2), fmt(ratio, 3)});
        // Acceptance bar: graph apps within 3x of Jacobi once the
        // one-time generation is amortized.
        if (app != "Jacobi" && ratio < 1.0 / 3.0)
            ok = false;
    }
    table.print("Generator micro-bench: replay throughput (4 GPU)");

    const gps::apps::WorkloadCache::Counters wc =
        gps::apps::WorkloadCache::instance().counters();
    std::printf("workload cache: %llu hits, %llu misses, %.3fs "
                "generating\n",
                static_cast<unsigned long long>(wc.hits),
                static_cast<unsigned long long>(wc.misses),
                wc.buildSeconds);
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    gps::setVerbose(false);
    const std::size_t jobs = parseJobs(argc, argv);
    benchmark::Initialize(&argc, argv);
    // Two waves: the cold cells (with the baselines), then the warm
    // cells. In one wave with --jobs >= 2 a warm cell would race its
    // cold cell for the same workload-cache entry, and its wall would
    // include the build in flight.
    for (const std::string& app : appNames)
        plan().addWithBaseline(app, cellConfig(paradigms[0]),
                               cellLabel(app, paradigms[0]));
    plan().run(jobs);
    for (const std::string& app : appNames)
        plan().add(app, cellConfig(paradigms[1]),
                   cellLabel(app, paradigms[1]));
    plan().run(jobs);
    benchmark::Shutdown();
    const bool ok = printTable();
    writePerfLog("BENCH_gen_graph.json", jobs);
    if (!ok) {
        std::fprintf(stderr,
                     "FAIL: steady-state graph-app replay throughput "
                     "below 1/3 of Jacobi's — trace generation or the "
                     "workload cache has regressed\n");
        return 1;
    }
    return 0;
}

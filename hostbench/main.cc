/**
 * @file
 * hostbench: one pass of a benchmark workload per process, driven by
 * run.py (which owns repetition, aggregation, peak RSS and the contract).
 *
 *   hostbench pin     --workload W
 *   hostbench measure --workload W --seed N --pinned F
 *   hostbench trace   --workload W --seed N --pinned F --spans-out P
 *   common options:   [--only LABEL] [--skip-end-kernel]
 *
 * pin prints the pinned-output lines of every row. measure runs the
 * workload once through the public entry points (runSweepWarm for
 * paper4, Runner::run per row otherwise), checks every row against the
 * pinned outputs, then times Runner::run's set-up sequence setupReps
 * times. trace runs the untraced passes (warm and cold sweeps on
 * paper4, collectors on and off on observed, in alternating order) and
 * the traced copy (mirror.hh), and reports the per-layer metrics. Every
 * mode runs on one simulation thread, starts each pass from an empty
 * WorkloadCache of fixed capacity, and ends its output with one
 * "hostbench-result {json}" line.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/result_export.hh"
#include "api/sweep.hh"
#include "apps/workload_cache.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "mirror.hh"
#include "obs/causal/causal.hh"
#include "obs/observability.hh"
#include "workloads.hh"

namespace
{

using namespace gps;
using namespace hostbench;
using Clock = std::chrono::steady_clock;

/** WorkloadCache capacity every pass runs with (the library default). */
constexpr std::size_t cacheCapacity = 32;

/**
 * Set-up sequences a measure pass times. run.py reports the median over
 * every pass of a run, so a noisy sample moves it less.
 */
constexpr std::size_t setupReps = 2;

/** Fig. 8's paradigms in plotting order, as row-label tags. */
const std::vector<std::string> fig8Paradigms = {
    "UM", "UM+hints", "RDL", "Memcpy", "GPS", "InfiniteBW"};

/** Paper Figure 8 bar heights (as tabulated in bench_fig08), per app. */
const std::map<std::string, std::vector<double>> paperFig8 = {
    {"Jacobi", {0.6, 1.4, 2.4, 1.2, 3.2, 3.3}},
    {"Pagerank", {0.3, 0.9, 1.4, 0.9, 3.0, 3.2}},
    {"SSSP", {0.3, 0.8, 1.2, 0.8, 2.9, 3.1}},
    {"ALS", {0.4, 0.9, 1.1, 1.0, 2.2, 3.0}},
    {"CT", {0.5, 1.1, 1.3, 2.8, 3.0, 3.3}},
    {"EQWP", {0.7, 1.5, 1.8, 1.4, 4.2, 4.4}},
    {"Diffusion", {0.6, 1.0, 1.9, 1.3, 3.1, 3.3}},
    {"HIT", {0.5, 1.2, 1.6, 1.1, 3.0, 3.2}},
};

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 0;
    std::string pinned;
    std::string spansOut;
    std::string only;
    MirrorOptions mirror;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
freshCache()
{
    apps::WorkloadCache& cache = apps::WorkloadCache::instance();
    cache.clear();
    cache.setCapacity(cacheCapacity);
}

/** One untraced pass over a workload's rows. */
struct Pass
{
    std::vector<SweepOutcome> outcomes; ///< in row order
    double wall = 0.0;       ///< the whole pass, export included
    double runnerWall = 0.0; ///< sum of the rows' Runner::run walls
    double obsExport = 0.0;  ///< serialising the collector reports
    std::uint64_t timelineEvents = 0;
    std::uint64_t timelineDropped = 0;
    WarmSweepStats warm;
    apps::WorkloadCache::Counters cache;
};

std::vector<SweepJob>
jobsOf(const std::vector<Row>& rows)
{
    std::vector<SweepJob> jobs;
    for (const Row& row : rows)
        jobs.push_back({row.app, row.config, row.label});
    return jobs;
}

enum class Entry { SweepWarm, SweepCold, RunnerPerRow };

/**
 * Run @p rows from an empty WorkloadCache and serialise every result
 * (and every collector report) to JSON in memory, as a client would.
 */
Pass
runPass(const std::vector<Row>& rows, Entry entry)
{
    freshCache();
    Pass pass;
    const Clock::time_point t0 = Clock::now();
    const std::vector<SweepJob> jobs = jobsOf(rows);
    if (entry == Entry::SweepWarm)
        pass.outcomes = runSweepWarm(jobs, 1, &pass.warm);
    else if (entry == Entry::SweepCold)
        pass.outcomes = runSweep(jobs, 1);
    else
        for (const SweepJob& job : jobs)
            pass.outcomes.push_back(runSweepJob(job));
    for (const SweepOutcome& out : pass.outcomes) {
        pass.runnerWall += out.wallSeconds;
        if (!out.ok())
            continue;
        (void)resultToJson(out.result);
        if (const ObsReport* obs = out.result.obs.get()) {
            const Clock::time_point e0 = Clock::now();
            (void)metricsToJson(*obs);
            (void)timelineToJson(*obs);
            (void)profileToJson(*obs);
            (void)causalToJson(obs->causal);
            pass.obsExport += secondsSince(e0);
            pass.timelineEvents += obs->timeline.size();
            pass.timelineDropped += obs->timelineDropped;
        }
    }
    pass.wall = secondsSince(t0);
    pass.cache = apps::WorkloadCache::instance().counters();
    return pass;
}

/** Rows that throw or differ from their pinned outputs. */
std::vector<std::string>
failedRows(const std::string& workload, const std::vector<Row>& rows,
           const Pass& pass, const PinnedTable& pinned)
{
    std::vector<std::string> failed;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepOutcome& out = pass.outcomes.at(i);
        if (!out.ok()) {
            std::printf("row %s FAILED: %s\n", rows[i].label.c_str(),
                        out.errorText().c_str());
            failed.push_back(rows[i].label);
        } else if (!matchesPinned(pinned, workload, rows[i].label,
                                  out.result)) {
            const Pinned got = pinnedOf(out.result);
            std::printf("row %s FAILED: outputs %s differ from the "
                        "pinned ones\n",
                        rows[i].label.c_str(),
                        pinnedLine(workload, rows[i].label, got).c_str());
            failed.push_back(rows[i].label);
        }
    }
    return failed;
}

/** Seconds of Runner::run's set-up sequence, summed over @p rows. */
double
setupPass(const std::vector<Row>& rows)
{
    freshCache();
    double total = 0.0;
    for (const Row& row : rows) {
        const Clock::time_point t0 = Clock::now();
        Rig rig = buildRig(row, nullptr);
        total += secondsSince(t0);
    }
    return total;
}

std::uint64_t
accessesOf(const Pass& pass)
{
    std::uint64_t n = 0;
    for (const SweepOutcome& out : pass.outcomes)
        n += out.result.totals.accesses;
    return n;
}

/**
 * Fig. 8 speedups beside the paper's bar heights; @return the mean
 * absolute error in percent of the bar height.
 */
double
printFig8(const std::vector<Row>& rows, const Pass& pass)
{
    std::map<std::string, const RunResult*> by_label;
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (pass.outcomes.at(i).ok())
            by_label[rows[i].label] = &pass.outcomes[i].result;
    std::printf("Fig. 8: simulated 4-GPU speedup over 1 GPU (paper bar "
                "height). The paper heights are read off the figure, so "
                "the model is unvalidated against hardware.\n");
    std::printf("%-10s", "app");
    for (const std::string& paradigm : fig8Paradigms)
        std::printf(" %12s", paradigm.c_str());
    std::printf("\n");
    double err_sum = 0.0;
    std::size_t cells = 0;
    for (const std::string& app : gps::workloadNames()) {
        std::printf("%-10s", app.c_str());
        const auto base = by_label.find("base/" + app);
        for (std::size_t p = 0; p < fig8Paradigms.size(); ++p) {
            const double height = paperFig8.at(app).at(p);
            const auto cell =
                by_label.find("fig8/" + app + "/" + fig8Paradigms[p]);
            if (base == by_label.end() || cell == by_label.end()) {
                std::printf(" %12s", "-");
                continue;
            }
            const double speedup = speedupOver(*base->second, *cell->second);
            std::printf("  %4.2f (%3.1f)", speedup, height);
            err_sum += std::fabs(speedup - height) / height;
            ++cells;
        }
        std::printf("\n");
    }
    const double err_pct = cells == 0 ? 0.0 : 100.0 * err_sum / cells;
    std::printf("mean absolute error vs the paper: %.1f%% of the bar "
                "height over %zu cells\n",
                err_pct, cells);
    return err_pct;
}

/** A metric value plus its unit, in the order it is printed. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

void
writeResult(const std::vector<std::pair<std::string, std::string>>& raw,
            const std::vector<Metric>& metrics,
            const std::vector<std::string>& not_applicable)
{
    JsonWriter w;
    w.beginObject();
    for (const auto& [key, json] : raw)
        w.key(key).rawValue(json);
    w.key("metrics").beginObject();
    for (const Metric& m : metrics) {
        w.key(m.name).beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.key("not_applicable").beginArray();
    for (const std::string& name : not_applicable)
        w.value(name);
    w.endArray();
    w.endObject();
    std::printf("hostbench-result %s\n", w.str().c_str());
}

std::string
jsonNumber(double v)
{
    JsonWriter w;
    w.value(v);
    return w.str();
}

std::string
jsonArray(const std::vector<double>& values)
{
    JsonWriter w;
    w.beginArray();
    for (double v : values)
        w.value(v);
    w.endArray();
    return w.str();
}

int
modePin(const Options& opt, const std::vector<Row>& rows)
{
    std::printf("# workload label totalTime interconnectBytes accesses\n");
    for (const Row& row : rows) {
        freshCache();
        const SweepOutcome out = runSweepJob({row.app, row.config, row.label});
        if (!out.ok()) {
            std::fprintf(stderr, "%s failed: %s\n", row.label.c_str(),
                         out.errorText().c_str());
            return 1;
        }
        std::printf("%s\n", pinnedLine(opt.workload, row.label,
                                       pinnedOf(out.result))
                                .c_str());
        std::fflush(stdout);
    }
    return 0;
}

Entry
entryOf(const std::string& workload)
{
    return workload == "paper4" ? Entry::SweepWarm : Entry::RunnerPerRow;
}

int
modeMeasure(const Options& opt, const std::vector<Row>& rows,
            const PinnedTable& pinned)
{
    const Pass pass = runPass(rows, entryOf(opt.workload));
    const std::vector<std::string> failed =
        failedRows(opt.workload, rows, pass, pinned);
    if (opt.workload == "paper4")
        printFig8(rows, pass);
    std::vector<double> setups;
    for (std::size_t i = 0; i < setupReps; ++i)
        setups.push_back(setupPass(rows));
    writeResult({{"wall_s", jsonNumber(pass.wall)},
                 {"setup_s", jsonArray(setups)},
                 {"accesses", jsonNumber(static_cast<double>(
                                  accessesOf(pass)))},
                 {"attempted", jsonNumber(static_cast<double>(rows.size()))},
                 {"failed", jsonNumber(static_cast<double>(failed.size()))}},
                {}, {});
    return 0;
}

/** Sum of every stat named gpu<N>.<suffix> over @p pass's results. */
double
sumGpuStat(const Pass& pass, const std::string& suffix)
{
    double total = 0.0;
    for (const SweepOutcome& out : pass.outcomes)
        for (const auto& [name, value] : out.result.stats.all())
            if (name.rfind("gpu", 0) == 0 && name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0 &&
                name.find('.') == name.size() - suffix.size())
                total += value;
    return total;
}

/**
 * Metrics another workload measures: reported as 0 and listed as not
 * applicable, so every workload prints the same metric set.
 */
void
notApplicable(std::vector<Metric>& m, std::vector<std::string>& names,
              const std::vector<std::pair<std::string, std::string>>& which)
{
    for (const auto& [name, unit] : which) {
        m.push_back({name, 0.0, unit});
        names.push_back(name);
    }
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** The RunResult counts every workload reports. */
void
addCounts(const Pass& pass, std::vector<Metric>& m)
{
    KernelCounters t;
    double uplink = 0.0, payload = 0.0;
    for (const SweepOutcome& out : pass.outcomes) {
        t.merge(out.result.totals);
        uplink += out.result.stats.get("gps.uplink_forwards");
        payload += out.result.stats.get("interconnect.total_payload_bytes");
    }
    const double tlb_hits = sumGpuStat(pass, ".tlb.hits");
    const double tlb_misses = sumGpuStat(pass, ".tlb.misses");
    const double l2_hits = sumGpuStat(pass, ".l2.hits");
    const double l2_misses = sumGpuStat(pass, ".l2.misses");
    m.push_back({"replay.accesses", static_cast<double>(t.accesses),
                 "count"});
    m.push_back({"gpu.tlb_hit_rate", ratio(tlb_hits, tlb_hits + tlb_misses),
                 "ratio"});
    m.push_back({"cache.l2_hit_rate", ratio(l2_hits, l2_hits + l2_misses),
                 "ratio"});
    m.push_back({"core.wq_hit_rate",
                 ratio(static_cast<double>(t.wqCoalesced),
                       static_cast<double>(t.wqCoalesced + t.wqInserts +
                                           t.wqAtomicBypass)),
                 "ratio"});
    m.push_back({"core.wq_drains", static_cast<double>(t.wqDrains),
                 "count"});
    m.push_back({"core.uplink_forwards", uplink, "count"});
    m.push_back({"driver.page_faults", static_cast<double>(t.pageFaults),
                 "count"});
    m.push_back({"driver.migration_mb",
                 static_cast<double>(t.migrationBytes) / 1e6, "MB"});
    m.push_back({"interconnect.payload_mb", payload / 1e6, "MB"});
}

/** Untraced passes of two kinds, each in run order. */
struct AbPasses
{
    std::vector<Pass> a;
    std::vector<Pass> b;
};

/** Passes of each kind an A/B comparison runs. */
constexpr std::size_t abPairs = 2;

/**
 * Run abPairs passes of each kind. Which kind runs first alternates from
 * pair to pair, starting by @p seed's parity, so the costs of a fresh
 * process (first touch of the heap, cold caches) fall on neither side
 * alone.
 */
template <typename RunA, typename RunB>
AbPasses
alternate(std::uint64_t seed, RunA run_a, RunB run_b)
{
    AbPasses ab;
    for (std::size_t k = 0; k < abPairs; ++k) {
        if ((seed + k) % 2 == 0) {
            ab.a.push_back(run_a());
            ab.b.push_back(run_b());
        } else {
            ab.b.push_back(run_b());
            ab.a.push_back(run_a());
        }
    }
    return ab;
}

/** The smallest @p field over @p passes. */
double
fastest(const std::vector<Pass>& passes, double Pass::*field)
{
    double best = passes.front().*field;
    for (const Pass& pass : passes)
        best = std::min(best, pass.*field);
    return best;
}

int
modeTrace(const Options& opt, const std::vector<Row>& rows,
          const PinnedTable& pinned)
{
    std::vector<Metric> m;
    std::vector<std::string> not_applicable;
    std::size_t attempted = 0, failed = 0;
    auto check = [&](const Pass& pass) {
        attempted += rows.size();
        failed += failedRows(opt.workload, rows, pass, pinned).size();
    };

    // Untraced passes. paper4 alternates warm and cold sweeps, observed
    // alternates collectors on and off; scaleout runs once. The plain side
    // (cold, collectors off) runs the rows as the copy does: its results
    // are what the copy must reproduce and its fastest wall is what the
    // traced wall is compared with.
    auto with_collectors_off = [](std::vector<Row> plain) {
        for (Row& row : plain)
            row.config.obs = ObsConfig{};
        return plain;
    };
    AbPasses ab;
    if (opt.workload == "paper4")
        ab = alternate(opt.seed,
                       [&] { return runPass(rows, Entry::SweepWarm); },
                       [&] { return runPass(rows, Entry::SweepCold); });
    else if (opt.workload == "observed")
        ab = alternate(
            opt.seed, [&] { return runPass(rows, Entry::RunnerPerRow); },
            [&, plain = with_collectors_off(rows)] {
                return runPass(plain, Entry::RunnerPerRow);
            });
    else
        ab.a.push_back(runPass(rows, Entry::RunnerPerRow));
    for (const Pass& pass : ab.a)
        check(pass);
    for (const Pass& pass : ab.b)
        check(pass);
    const Pass& first = ab.a.front();
    const std::vector<Pass>& plain = ab.b.empty() ? ab.a : ab.b;

    if (opt.workload == "paper4") {
        m.push_back({"sweep.warm_speedup",
                     ratio(fastest(ab.b, &Pass::wall),
                           fastest(ab.a, &Pass::wall)),
                     "ratio"});
        m.push_back({"sweep.followers",
                     static_cast<double>(first.warm.followers), "count"});
        m.push_back({"sweep.cold_fallbacks",
                     static_cast<double>(first.warm.coldFallbacks),
                     "count"});
        m.push_back({"accuracy.fig8_err_pct", printFig8(rows, first), "%"});
    } else {
        notApplicable(m, not_applicable,
                      {{"sweep.warm_speedup", "ratio"},
                       {"sweep.followers", "count"},
                       {"sweep.cold_fallbacks", "count"},
                       {"accuracy.fig8_err_pct", "%"}});
    }
    if (opt.workload == "observed") {
        m.push_back({"obs.overhead",
                     ratio(fastest(ab.a, &Pass::runnerWall),
                           fastest(ab.b, &Pass::runnerWall)),
                     "ratio"});
        m.push_back({"obs.export_s", fastest(ab.a, &Pass::obsExport), "s"});
        m.push_back({"obs.timeline_events",
                     static_cast<double>(first.timelineEvents), "count"});
        m.push_back({"obs.timeline_dropped",
                     static_cast<double>(first.timelineDropped), "count"});
    } else {
        notApplicable(m, not_applicable,
                      {{"obs.overhead", "ratio"},
                       {"obs.export_s", "s"},
                       {"obs.timeline_events", "count"},
                       {"obs.timeline_dropped", "count"}});
    }
    const double cache_lookups =
        static_cast<double>(first.cache.hits + first.cache.misses);
    m.push_back({"workload_cache.hit_rate",
                 ratio(static_cast<double>(first.cache.hits), cache_lookups),
                 "ratio"});
    m.push_back({"workload_cache.build_s", first.cache.buildSeconds, "s"});
    addCounts(first, m);

    // The traced pass: every row through the copy, from an empty cache.
    freshCache();
    Tracer tracer;
    std::size_t mismatch = 0;
    double traced_wall = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        std::optional<RunResult> copy;
        try {
            copy = tracedRun(rows[i], tracer, opt.mirror);
        } catch (const std::exception& e) {
            std::printf("traced row %s threw: %s\n", rows[i].label.c_str(),
                        e.what());
        }
        traced_wall += secondsSince(t0);
        const SweepOutcome& ref = plain.front().outcomes.at(i);
        if (!copy.has_value() || !ref.ok() ||
            pinnedOf(*copy) != pinnedOf(ref.result)) {
            std::printf("traced row %s differs from Runner::run\n",
                        rows[i].label.c_str());
            ++mismatch;
        }
    }
    double layer_sum = 0.0;
    for (std::size_t l = 0; l < numLayers; ++l) {
        const Layer layer = static_cast<Layer>(l);
        const double s = tracer.seconds(layer);
        layer_sum += s;
        m.push_back({std::string(layerName(layer)) + "_s", s, "s"});
        m.push_back({std::string(layerName(layer)) + "_share",
                     ratio(s, traced_wall), "ratio"});
    }
    m.push_back({"replay.ns_per_access",
                 ratio(tracer.seconds(Layer::ReplayAccess) * 1e9,
                       static_cast<double>(accessesOf(first))),
                 "ns"});
    m.push_back({"trace.coverage", ratio(layer_sum, traced_wall), "ratio"});
    m.push_back({"trace.overhead",
                 ratio(traced_wall, fastest(plain, &Pass::wall)), "ratio"});
    m.push_back({"trace.mismatch", static_cast<double>(mismatch), "count"});
    m.push_back({"error_rate",
                 ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)),
                 "ratio"});

    if (!opt.spansOut.empty()) {
        if (std::FILE* f = std::fopen(opt.spansOut.c_str(), "w")) {
            std::fputs(tracer.toJson(opt.workload, opt.seed).c_str(), f);
            std::fputc('\n', f);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "cannot write %s\n", opt.spansOut.c_str());
            return 1;
        }
    }
    writeResult({{"attempted", jsonNumber(static_cast<double>(attempted))},
                 {"failed", jsonNumber(static_cast<double>(failed))}},
                m, not_applicable);
    return 0;
}

Options
parseOptions(int argc, char** argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing mode");
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--pinned")
            opt.pinned = value();
        else if (arg == "--spans-out")
            opt.spansOut = value();
        else if (arg == "--only")
            opt.only = value();
        else if (arg == "--skip-end-kernel")
            opt.mirror.skipEndKernel = true;
        else
            throw std::invalid_argument("unknown option " + arg);
    }
    if (opt.mode != "pin" && opt.mode != "measure" && opt.mode != "trace")
        throw std::invalid_argument("unknown mode " + opt.mode);
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    gps::setVerbose(false);
    try {
        const Options opt = parseOptions(argc, argv);
        std::vector<Row> rows = workloadRows(opt.workload);
        if (opt.mode != "pin")
            rows = seededOrder(opt.workload, std::move(rows), opt.seed);
        if (!opt.only.empty()) {
            std::erase_if(rows,
                          [&](const Row& r) { return r.label != opt.only; });
            if (rows.empty())
                throw std::invalid_argument("no row " + opt.only);
        }
        if (opt.mode == "pin")
            return modePin(opt, rows);
        const PinnedTable pinned = readPinned(opt.pinned);
        if (opt.mode == "measure")
            return modeMeasure(opt, rows, pinned);
        return modeTrace(opt, rows, pinned);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 2;
    }
}

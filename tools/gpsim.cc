/**
 * @file
 * gpsim — command-line front end for the GPS multi-GPU simulator.
 *
 * Runs any bundled workload under any memory-management paradigm on a
 * configurable system and prints time, traffic and speedup (plus the
 * full component statistics on request). The Swiss-army knife an
 * open-source release ships for quick experiments:
 *
 *   gpsim --app Jacobi --paradigm GPS --gpus 4 --interconnect pcie3
 *   gpsim --app all --paradigm all --gpus 16 --interconnect pcie6
 *   gpsim --app EQWP --paradigm GPS --stats
 *   gpsim --config
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "api/sweep.hh"
#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "fault/fault_plan.hh"
#include "obs/causal/whatif.hh"
#include "serve/protocol.hh"
#include "serve/run_store.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "snapshot/snapshot.hh"

namespace
{

using namespace gps;

struct Options
{
    std::vector<std::string> apps{"Jacobi"};
    std::vector<ParadigmKind> paradigms{ParadigmKind::Gps};
    std::size_t gpus = 4;
    InterconnectKind interconnect = InterconnectKind::Pcie3;
    std::size_t nodes = 1;
    InterconnectKind interNode = InterconnectKind::IbNdr;
    std::uint64_t pageBytes = 64 * KiB;
    double scale = 1.0;
    std::uint32_t wqEntries = 512;
    bool autoUnsubscribe = true;
    bool dumpStats = false;
    bool dumpConfig = false;
    bool json = false;
    std::vector<std::size_t> gpuSweep; ///< empty: just --gpus
    std::size_t jobs = 1; ///< sweep worker threads
    FaultPlan faultPlan;
    std::string metricsOut;  ///< metrics JSON path; empty disables
    std::string timelineOut; ///< trace JSON path; empty disables
    std::string profileOut;  ///< bottleneck profile JSON; empty disables
    std::string causalOut;   ///< causal graph + critical path JSON
    std::string whatifSpec;  ///< what-if scaling spec; empty disables
    double whatifTolerance = 0.0; ///< max error %; 0: report only
    double linkBwScale = 1.0;     ///< link-bandwidth multiplier
    double wqDrainScale = 1.0;    ///< RWQ drain-speed multiplier
    Tick sampleEvery = 0;    ///< metric sampling period in ticks
    std::size_t timelineMaxEvents = 1 << 20;
    std::size_t profileTop = 20;         ///< hot-page rows kept
    std::uint64_t profileBucketPages = 1; ///< pages per heat bucket
    bool check = false;          ///< differential validation
    std::uint64_t checkEvery = 0; ///< mid-run invariant cadence
    std::string snapshotOut;     ///< checkpoint file; empty disables
    snapshot::SnapshotPoint snapshotAt; ///< when to capture
    std::string restorePath;     ///< resume from this checkpoint
    bool serve = false;          ///< daemon mode (stdio or socket)
    std::string socketPath;      ///< unix socket; empty: serve stdio
    ServeConfig serveConfig;     ///< scheduler + store settings
};

[[noreturn]] void
usage(const char* argv0, int exit_code)
{
    std::printf(
        "usage: %s [options]\n"
        "  --app <name|all>          workload (default Jacobi): %s\n"
        "  --paradigm <name|all>     UM | UM+hints | RDL | Memcpy | GPS"
        " | Infinite (default GPS)\n"
        "  --gpus <n>                GPU count (default 4)\n"
        "  --interconnect <k>        pcie3|pcie4|pcie5|pcie6|nvlink2|"
        "nvlink3|infinite\n"
        "  --nodes <n>               split the GPUs across n nodes "
        "joined by\n"
        "                            --inter-node uplinks (default 1: "
        "flat)\n"
        "  --inter-node <k>          inter-node fabric: ib-hdr|ib-ndr|"
        "pcie-fabric\n"
        "                            (default ib-ndr)\n"
        "  --page-kb <n>             page size in KiB (default 64)\n"
        "  --scale <f>               problem scale factor (default 1.0)\n"
        "  --wq-entries <n>          GPS remote write queue size "
        "(default 512)\n"
        "  --no-unsubscribe          keep the all-to-all subscription\n"
        "  --sweep-gpus <a,b,c>      strong-scaling sweep over GPU"
        " counts\n"
        "  --jobs <n|auto>           run the config grid on n worker"
        " threads\n"
        "                            (results stay in deterministic"
        " order; default 1)\n"
        "  --fault <spec>            inject a fault (repeatable), e.g.\n"
        "                            link:down@2ms:gpu0-gpu1,\n"
        "                            link:degrade@1ms:0-1:0.25,\n"
        "                            page:retire@1ms:gpu2:16,\n"
        "                            wq:saturate@0:*\n"
        "  --fault-plan <file.json>  load a JSON fault plan\n"
        "  --fault-seed <n>          seed for fault victim selection\n"
        "  --no-pcie-fallback        unreachable partitions are fatal\n"
        "  --metrics-out <file>      write per-component metrics JSON\n"
        "                            (and print per-GPU/per-link tables)\n"
        "  --timeline-out <file>     write a Chrome trace-event JSON\n"
        "                            (open in Perfetto / about:tracing)\n"
        "  --timeline-max-events <n> timeline event cap before dropping\n"
        "                            (default 1048576)\n"
        "  --profile-out <file>      write the bottleneck-attribution\n"
        "                            profile JSON (per-kernel breakdown,\n"
        "                            hot pages, latency histograms)\n"
        "  --profile-top <n>         hot-page rows to keep (default 20)\n"
        "  --profile-bucket-pages <n>  pages per heat bucket (default 1)\n"
        "  --sample-every <ticks>    metric sampling period in simulated\n"
        "                            ticks (default 0: final values only)\n"
        "  --causal-out <file>       record the causal activity graph and\n"
        "                            write it (with the critical-path\n"
        "                            attribution) as JSON\n"
        "  --whatif <spec>           predict the speedup of scaled\n"
        "                            resources from a causally traced\n"
        "                            run, then validate against a real\n"
        "                            re-run, e.g. link_bw=2x,rwq_drain=2x\n"
        "  --whatif-tolerance <pct>  exit 1 when the what-if prediction\n"
        "                            error exceeds this percentage\n"
        "                            (default 0: report only)\n"
        "  --link-bw-scale <f>       scale every link's bandwidth\n"
        "                            (default 1.0)\n"
        "  --wq-drain-scale <f>      scale RWQ drain-stall charges down\n"
        "                            by this factor (default 1.0)\n"
        "  --log-format <text|json>  warn/info line encoding (default\n"
        "                            text; json emits one object per\n"
        "                            line for log shippers)\n"
        "  --check[=N]               differential validation: replay the\n"
        "                            run through the reference model and\n"
        "                            assert runtime invariants (every N\n"
        "                            accesses when given); exit 1 on any\n"
        "                            divergence\n"
        "  --snapshot-out <file>     write a checkpoint of the full\n"
        "                            simulator state (see\n"
        "                            docs/checkpoint.md)\n"
        "  --snapshot-at <spec>      when to capture: profile |\n"
        "                            iter:N | phase:N (default profile)\n"
        "  --restore <file>          resume a run from a checkpoint;\n"
        "                            results are byte-identical to the\n"
        "                            uninterrupted run\n"
        "  --serve                   run as a sweep service (see\n"
        "                            docs/service.md): line-delimited\n"
        "                            JSON requests on stdin or --socket\n"
        "  --socket <path>           serve a unix domain socket instead\n"
        "                            of stdin/stdout\n"
        "  --store <dir>             content-addressed run store for\n"
        "                            serve mode (crash-safe result reuse)\n"
        "  --serve-workers <n|auto>  serve-mode worker threads (default"
        " 2)\n"
        "  --max-queue <n>           admission queue bound before the\n"
        "                            service sheds load (default 64)\n"
        "  --default-deadline-ms <n> deadline applied to jobs that do\n"
        "                            not carry one (default 0: none)\n"
        "  --json                    one JSON object per run on stdout\n"
        "  --stats                   dump full component statistics\n"
        "  --config                  print the Table 1 configuration and"
        " exit\n"
        "  --help                    this text\n",
        argv0,
        [] {
            static std::string names;
            for (const auto& n : workloadNames())
                names += n + " ";
            return names.c_str();
        }());
    std::exit(exit_code);
}

Options
parseArgs(int argc, char** argv)
{
    Options opts;
    auto value = [&](int& i) -> const char* {
        if (i + 1 >= argc)
            usage(argv[0], 1);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--app") {
            const std::string v = value(i);
            opts.apps = v == "all" ? workloadNames()
                                   : std::vector<std::string>{v};
        } else if (arg == "--paradigm") {
            const std::string v = value(i);
            if (v == "all") {
                opts.paradigms = allParadigms();
            } else {
                opts.paradigms = {paradigmFromName(v)};
            }
        } else if (arg == "--gpus") {
            opts.gpus = parseUnsigned("--gpus", value(i));
        } else if (arg == "--interconnect") {
            opts.interconnect = interconnectFromName(value(i));
        } else if (arg == "--nodes") {
            opts.nodes =
                std::max<std::uint64_t>(parseUnsigned("--nodes",
                                                      value(i)), 1);
        } else if (arg == "--inter-node") {
            opts.interNode = interconnectFromName(value(i));
        } else if (arg == "--page-kb") {
            // Bounded so the multiply cannot wrap; the page-size range
            // itself is systemConfigError()'s.
            opts.pageBytes =
                parseUnsigned("--page-kb", value(i),
                              std::numeric_limits<std::uint64_t>::max() /
                                  KiB) *
                KiB;
        } else if (arg == "--scale") {
            opts.scale = parseFloat("--scale", value(i));
            if (!validScale(opts.scale))
                gps_fatal("--scale must be in (0, 2^32]");
        } else if (arg == "--wq-entries") {
            opts.wqEntries = static_cast<std::uint32_t>(
                parseUnsigned("--wq-entries", value(i),
                              std::numeric_limits<std::uint32_t>::max()));
        } else if (arg == "--fault") {
            opts.faultPlan.addSpec(value(i));
        } else if (arg == "--fault-plan") {
            FaultPlan loaded = FaultPlan::fromJsonFile(value(i));
            for (const FaultEvent& ev : loaded.events)
                opts.faultPlan.events.push_back(ev);
            opts.faultPlan.seed = loaded.seed;
            opts.faultPlan.pcieFallback = loaded.pcieFallback;
        } else if (arg == "--fault-seed") {
            opts.faultPlan.seed = parseUnsigned("--fault-seed", value(i));
        } else if (arg == "--no-pcie-fallback") {
            opts.faultPlan.pcieFallback = false;
        } else if (arg == "--metrics-out") {
            opts.metricsOut = value(i);
        } else if (arg == "--timeline-out") {
            opts.timelineOut = value(i);
        } else if (arg == "--timeline-max-events") {
            opts.timelineMaxEvents = static_cast<std::size_t>(
                parseUnsigned("--timeline-max-events", value(i)));
        } else if (arg == "--profile-out") {
            opts.profileOut = value(i);
        } else if (arg == "--profile-top") {
            opts.profileTop = static_cast<std::size_t>(
                parseUnsigned("--profile-top", value(i)));
        } else if (arg == "--profile-bucket-pages") {
            opts.profileBucketPages =
                parseUnsigned("--profile-bucket-pages", value(i));
            if (opts.profileBucketPages == 0)
                gps_fatal("--profile-bucket-pages must be >= 1");
        } else if (arg == "--sample-every") {
            opts.sampleEvery = parseUnsigned("--sample-every", value(i));
        } else if (arg == "--causal-out") {
            opts.causalOut = value(i);
        } else if (arg == "--whatif") {
            opts.whatifSpec = value(i);
        } else if (arg == "--whatif-tolerance") {
            opts.whatifTolerance =
                parseFloat("--whatif-tolerance", value(i));
            if (opts.whatifTolerance < 0.0)
                gps_fatal("--whatif-tolerance must be >= 0");
        } else if (arg == "--link-bw-scale") {
            opts.linkBwScale = parseFloat("--link-bw-scale", value(i));
            if (opts.linkBwScale <= 0.0)
                gps_fatal("--link-bw-scale must be > 0");
        } else if (arg == "--wq-drain-scale") {
            opts.wqDrainScale = parseFloat("--wq-drain-scale", value(i));
            if (opts.wqDrainScale <= 0.0)
                gps_fatal("--wq-drain-scale must be > 0");
        } else if (arg == "--log-format") {
            const std::string v = value(i);
            if (v == "text")
                setLogFormat(LogFormat::Text);
            else if (v == "json")
                setLogFormat(LogFormat::Json);
            else
                gps_fatal("invalid --log-format '", v,
                          "': expected text or json");
        } else if (arg == "--check") {
            opts.check = true;
        } else if (arg.rfind("--check=", 0) == 0) {
            opts.check = true;
            opts.checkEvery =
                parseUnsigned("--check", arg.substr(8));
        } else if (arg == "--no-unsubscribe") {
            opts.autoUnsubscribe = false;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--sweep-gpus") {
            std::string list = value(i);
            std::size_t pos = 0;
            while (pos < list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string item =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                opts.gpuSweep.push_back(
                    parseUnsigned("--sweep-gpus", item));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else if (arg == "--jobs") {
            const std::string v = value(i);
            opts.jobs = v == "auto"
                            ? defaultSweepJobs()
                            : std::max<std::uint64_t>(
                                  parseUnsigned("--jobs", v), 1);
        } else if (arg == "--snapshot-out") {
            opts.snapshotOut = value(i);
            if (!opts.snapshotAt.active())
                opts.snapshotAt = {snapshot::AtKind::Profile, 0};
        } else if (arg == "--snapshot-at") {
            const std::string v = value(i);
            if (!snapshot::parseSnapshotPoint(v, opts.snapshotAt))
                gps_fatal("invalid --snapshot-at '", v,
                          "': expected profile, iter:N or phase:N");
        } else if (arg == "--restore") {
            opts.restorePath = value(i);
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--socket") {
            opts.socketPath = value(i);
        } else if (arg == "--store") {
            opts.serveConfig.storeDir = value(i);
        } else if (arg == "--serve-workers") {
            const std::string v = value(i);
            opts.serveConfig.workers =
                v == "auto" ? defaultSweepJobs()
                            : std::max<std::uint64_t>(
                                  parseUnsigned("--serve-workers", v), 1);
        } else if (arg == "--max-queue") {
            opts.serveConfig.maxQueue = std::max<std::uint64_t>(
                parseUnsigned("--max-queue", value(i)), 1);
        } else if (arg == "--default-deadline-ms") {
            opts.serveConfig.defaultDeadlineMs =
                parseUnsigned("--default-deadline-ms", value(i),
                              maxDeadlineMs);
        } else if (arg == "--stats") {
            opts.dumpStats = true;
        } else if (arg == "--config") {
            opts.dumpConfig = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0], 1);
        }
    }
    opts.faultPlan.sort();
    return opts;
}

RunConfig
makeConfig(const Options& opts)
{
    RunConfig config;
    config.system.numGpus = opts.gpus;
    config.system.interconnect = opts.interconnect;
    config.system.numNodes = opts.nodes;
    config.system.interNode = opts.interNode;
    config.system.pageBytes = opts.pageBytes;
    config.system.gps.wqEntries = opts.wqEntries;
    config.system.gps.autoUnsubscribe = opts.autoUnsubscribe;
    config.scale = opts.scale;
    config.faultPlan = opts.faultPlan;
    config.obs.metrics = !opts.metricsOut.empty();
    config.obs.timeline = !opts.timelineOut.empty();
    config.obs.sampleEvery = opts.sampleEvery;
    config.obs.maxTimelineEvents = opts.timelineMaxEvents;
    config.obs.profile = !opts.profileOut.empty();
    config.obs.profileTopN = opts.profileTop;
    config.obs.profilePagesPerBucket = opts.profileBucketPages;
    config.obs.causal = !opts.causalOut.empty();
    config.system.linkBandwidthScale = opts.linkBwScale;
    config.system.gps.wqDrainScale = opts.wqDrainScale;
    config.check.enabled = opts.check;
    config.check.everyAccesses = opts.checkEvery;
    return config;
}

/**
 * Per-row differential-validation verdict.
 * @return true when the run diverged from the reference model.
 */
bool
printCheckSummary(const RunResult& result)
{
    if (result.check == nullptr)
        return false;
    const CheckReport& check = *result.check;
    if (check.ok()) {
        std::printf("    check: OK (%llu invariant checks, %llu counter "
                    "checks, %llu ref accesses)\n",
                    static_cast<unsigned long long>(check.invariantChecks),
                    static_cast<unsigned long long>(check.counterChecks),
                    static_cast<unsigned long long>(check.refAccesses));
        return false;
    }
    std::printf("    check: DIVERGED (%llu divergence(s))\n",
                static_cast<unsigned long long>(check.divergences));
    for (const CheckFinding& finding : check.findings)
        std::printf("      %s\n", describe(finding).c_str());
    return true;
}

/** Per-GPU and per-link breakdown from a run's metric snapshot. */
void
printObsBreakdown(const ObsReport& report, std::size_t gpus)
{
    const auto metric = [&report](const std::string& name) {
        for (const MetricValue& m : report.finals)
            if (m.name == name)
                return m.value;
        return 0.0;
    };
    std::printf("    per-GPU:\n");
    std::printf("    %6s %12s %12s %8s %12s %8s\n", "gpu", "l2_hits",
                "l2_misses", "l2_hit", "tlb_misses", "tlb_hit");
    for (std::size_t g = 0; g < gpus; ++g) {
        const std::string p = "gpu" + std::to_string(g) + '.';
        std::printf("    %6zu %12.0f %12.0f %7.1f%% %12.0f %7.1f%%\n", g,
                    metric(p + "l2.hits"), metric(p + "l2.misses"),
                    metric(p + "l2.hit_rate") * 100.0,
                    metric(p + "tlb.misses"),
                    metric(p + "tlb.hit_rate") * 100.0);
    }
    std::printf("    per-link:\n");
    std::printf("    %6s %12s %12s %12s %12s\n", "gpu", "egress_MB",
                "egress_us", "ingress_MB", "ingress_us");
    for (std::size_t g = 0; g < gpus; ++g) {
        const std::string p =
            "interconnect.gpu" + std::to_string(g) + '.';
        std::printf("    %6zu %12.2f %12.1f %12.2f %12.1f\n", g,
                    metric(p + "egress.bytes") / 1e6,
                    metric(p + "egress.busy_us"),
                    metric(p + "ingress.bytes") / 1e6,
                    metric(p + "ingress.busy_us"));
    }
}

void
writeTextFile(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        gps_fatal("cannot open '", path, "' for writing");
    out << text;
    if (!out.flush())
        gps_fatal("write to '", path, "' failed");
}

/**
 * Fail fast on unwritable output paths — before the simulation runs, so
 * a typo'd directory costs seconds, not a completed run's worth of work.
 * Append mode probes writability without truncating an existing file.
 */
void
requireWritable(const char* flag, const std::string& path)
{
    if (path.empty())
        return;
    std::ofstream probe(path, std::ios::app);
    if (!probe)
        gps_fatal("cannot open '", path, "' for writing (", flag, ")");
}

/** Text summary of the bottleneck profile (full detail is in the JSON). */
void
printProfileSummary(const ObsReport& report)
{
    const ProfileReport& prof = report.profile;
    std::printf("    bottlenecks:\n");
    std::printf("    %-14s %4s %10s  %-10s %8s %8s %8s\n", "phase", "gpu",
                "time(ms)", "limiter", "dram%", "link%", "remote%");
    for (const BottleneckProfile& k : prof.kernels) {
        const auto shares = k.shares();
        const auto& names = BottleneckProfile::componentNames();
        double dram = 0.0, link = 0.0, remote = 0.0;
        for (std::size_t i = 0; i < shares.size(); ++i) {
            const std::string name = names[i];
            if (name == "dram")
                dram = shares[i];
            else if (name == "egress" || name == "ingress")
                link += shares[i];
            else if (name == "remote")
                remote = shares[i];
        }
        std::printf("    %-14s %4u %10.3f  %-10s %7.1f%% %7.1f%% %7.1f%%\n",
                    k.phase.c_str(), static_cast<unsigned>(k.gpu),
                    ticksToMs(k.total), k.limiter(), dram * 100.0,
                    link * 100.0, remote * 100.0);
    }
    if (!prof.hotPages.empty()) {
        std::printf("    hot pages (top %zu of %llu buckets, %llu "
                    "page(s)/bucket):\n",
                    prof.hotPages.size(),
                    static_cast<unsigned long long>(prof.totalHotBuckets),
                    static_cast<unsigned long long>(prof.pagesPerBucket));
        std::printf("    %10s %-16s %12s %12s %8s %8s\n", "vpn", "region",
                    "rwq_bytes", "rem_writes", "subflip", "migrate");
        for (const HotPage& page : prof.hotPages) {
            std::printf(
                "    %10llu %-16s %12llu %12llu %8llu %8llu\n",
                static_cast<unsigned long long>(page.firstVpn),
                page.region.c_str(),
                static_cast<unsigned long long>(page.heat.rwqBytes),
                static_cast<unsigned long long>(
                    page.heat.remoteWritesForwarded),
                static_cast<unsigned long long>(page.heat.subFlips),
                static_cast<unsigned long long>(page.heat.migrations));
        }
    }
}

/**
 * --whatif mode: trace one run causally, predict the effect of the
 * requested resource scaling, then re-run for real and report the
 * prediction error. Exit 1 when --whatif-tolerance is exceeded.
 */
int
runWhatIf(const Options& opts)
{
    WhatIfSpec spec;
    std::string error;
    if (!parseWhatIfSpec(opts.whatifSpec, spec, error))
        gps_fatal("invalid --whatif '", opts.whatifSpec, "': ", error);
    if (opts.apps.size() != 1 || opts.paradigms.size() != 1 ||
        !opts.gpuSweep.empty())
        gps_fatal("--whatif applies to a single run: one --app, one "
                  "--paradigm, no --sweep-gpus");
    if (opts.check || !opts.snapshotOut.empty() ||
        !opts.restorePath.empty())
        gps_fatal("--whatif cannot be combined with --check or "
                  "snapshots");

    RunConfig config = makeConfig(opts);
    config.paradigm = opts.paradigms.front();
    const std::string& app = opts.apps.front();
    const WhatIfValidation v = validateWhatIf(app, config, spec);

    if (!opts.causalOut.empty())
        writeTextFile(opts.causalOut, causalToJson(v.traced));

    if (opts.json) {
        JsonWriter w;
        w.beginObject();
        w.field("workload", app);
        w.field("paradigm", to_string(config.paradigm));
        w.field("whatif", to_string(spec));
        w.field("base_time_ms", ticksToMs(v.prediction.baseTime));
        w.field("predicted_time_ms",
                ticksToMs(v.prediction.predictedTime));
        w.field("actual_time_ms", ticksToMs(v.actualTime));
        w.field("predicted_speedup", v.prediction.speedup);
        w.field("actual_speedup", v.actualSpeedup);
        w.field("error_pct", v.errorPct);
        w.endObject();
        std::printf("%s\n", w.str().c_str());
    } else {
        std::printf("%-10s %s what-if %s\n", app.c_str(),
                    to_string(config.paradigm).c_str(),
                    to_string(spec).c_str());
        std::printf("    base:      %10.3f ms\n",
                    ticksToMs(v.prediction.baseTime));
        std::printf("    predicted: %10.3f ms  (%.2fx)\n",
                    ticksToMs(v.prediction.predictedTime),
                    v.prediction.speedup);
        std::printf("    actual:    %10.3f ms  (%.2fx)\n",
                    ticksToMs(v.actualTime), v.actualSpeedup);
        std::printf("    error:     %9.2f%%\n", v.errorPct);
    }
    if (opts.whatifTolerance > 0.0 && v.errorPct > opts.whatifTolerance) {
        std::fprintf(stderr,
                     "what-if prediction error %.2f%% exceeds "
                     "tolerance %.2f%%\n",
                     v.errorPct, opts.whatifTolerance);
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gps;
    setVerbose(false);
    try {
        const Options opts = parseArgs(argc, argv);
        if (opts.serve) {
            SweepService service(opts.serveConfig);
            ServeFrontEnd front(service);
            ServeFrontEnd::installSignalHandlers();
            return opts.socketPath.empty()
                       ? front.runStdio()
                       : front.runSocket(opts.socketPath);
        }
        const std::vector<std::size_t> gpu_counts =
            opts.gpuSweep.empty()
                ? std::vector<std::size_t>{opts.gpus}
                : opts.gpuSweep;
        // A system no run could build fails here, before any run.
        for (const std::size_t gpus : gpu_counts) {
            SystemConfig system = makeConfig(opts).system;
            system.numGpus = gpus;
            if (const std::string error = systemConfigError(system);
                !error.empty())
                gps_fatal(error);
        }
        if (opts.dumpConfig) {
            MultiGpuSystem system(makeConfig(opts).system);
            std::printf("%s", system.configDump().render().c_str());
            return 0;
        }

        requireWritable("--metrics-out", opts.metricsOut);
        requireWritable("--timeline-out", opts.timelineOut);
        requireWritable("--profile-out", opts.profileOut);
        requireWritable("--causal-out", opts.causalOut);

        if (!opts.whatifSpec.empty())
            return runWhatIf(opts);
        if (opts.whatifTolerance != 0.0)
            gps_fatal("--whatif-tolerance requires --whatif");

        const bool snapshotting =
            !opts.snapshotOut.empty() || !opts.restorePath.empty();
        if (opts.snapshotAt.active() && opts.snapshotOut.empty())
            gps_fatal("--snapshot-at requires --snapshot-out");
        if (snapshotting) {
            // A checkpoint names one exact run; a grid would silently
            // capture or restore only one of its cells.
            if (opts.apps.size() != 1 || opts.paradigms.size() != 1 ||
                !opts.gpuSweep.empty())
                gps_fatal("--snapshot-out/--restore apply to a single "
                          "run: one --app, one --paradigm, no "
                          "--sweep-gpus");
            if (opts.check)
                gps_fatal("--snapshot-out/--restore cannot be combined "
                          "with --check");
            if (!opts.profileOut.empty())
                gps_fatal("--snapshot-out/--restore cannot be combined "
                          "with --profile-out");
            requireWritable("--snapshot-out", opts.snapshotOut);
        }

        if (!opts.json) {
            std::printf("%-10s %-12s %5s %10s %12s %9s %8s %8s\n",
                        "app", "paradigm", "gpus", "time(ms)",
                        "traffic(MB)", "speedup", "l2_hit", "wq_hit");
        }
        // Build the full job list in print order — one single-GPU
        // reference per app followed by that app's config grid — then
        // fan it across --jobs worker threads. Results come back in
        // input order, so the serial print loop below emits output
        // byte-identical to --jobs 1.
        std::vector<SweepJob> jobs;
        for (const std::string& app : opts.apps) {
            RunConfig base_config = makeConfig(opts);
            base_config.system.numGpus = 1;
            base_config.system.numNodes = 1;
            base_config.paradigm = ParadigmKind::Memcpy;
            base_config.faultPlan = FaultPlan{}; // fault-free reference
            base_config.obs = ObsConfig{}; // observe only the cells
            jobs.push_back({app, base_config, "baseline"});
            for (const std::size_t gpus : gpu_counts) {
                for (const ParadigmKind paradigm : opts.paradigms) {
                    RunConfig config = makeConfig(opts);
                    config.system.numGpus = gpus;
                    config.paradigm = paradigm;
                    if (snapshotting) {
                        config.snapshotAt = opts.snapshotAt;
                        config.snapshotOut = opts.snapshotOut;
                        config.restoreFrom = opts.restorePath;
                    }
                    jobs.push_back({app, config, "cell"});
                }
            }
        }
        const std::vector<SweepOutcome> outcomes =
            runSweep(jobs, opts.jobs);

        std::shared_ptr<const ObsReport> last_obs;
        std::size_t obs_cells = 0;
        std::size_t idx = 0;
        bool check_diverged = false;
        bool run_failed = false;
        // A failed grid point becomes a structured error row — the
        // remaining cells still print (exit code stays non-zero).
        const auto print_error_row = [&](const std::string& app,
                                         ParadigmKind paradigm,
                                         std::size_t gpus,
                                         const SweepOutcome& outcome) {
            run_failed = true;
            if (opts.json) {
                JsonWriter w;
                w.beginObject();
                w.field("workload", app);
                w.field("paradigm", to_string(paradigm));
                w.field("num_gpus", static_cast<std::uint64_t>(gpus));
                w.key("error").beginObject();
                w.field("type", outcome.errorType);
                w.field("message", outcome.errorMessage);
                w.endObject();
                w.endObject();
                std::printf("%s\n", w.str().c_str());
            } else {
                std::printf("%-10s %-12s %5zu ERROR %s: %s\n",
                            app.c_str(), to_string(paradigm).c_str(),
                            gpus, outcome.errorType.c_str(),
                            outcome.errorMessage.c_str());
            }
        };
        for (const std::string& app : opts.apps) {
            const SweepOutcome& base_outcome = outcomes.at(idx++);
            if (!base_outcome.ok())
                std::rethrow_exception(base_outcome.error);
            const RunResult& baseline = base_outcome.result;
            if (baseline.check != nullptr && !baseline.check->ok()) {
                std::printf("%-10s baseline\n", app.c_str());
                check_diverged |= printCheckSummary(baseline);
            }

            for (const std::size_t gpus : gpu_counts) {
                for (const ParadigmKind paradigm : opts.paradigms) {
                    const SweepOutcome& outcome = outcomes.at(idx++);
                    if (!outcome.ok()) {
                        print_error_row(app, paradigm, gpus, outcome);
                        continue;
                    }
                    const RunResult& result = outcome.result;
                    if (result.obs != nullptr) {
                        last_obs = result.obs;
                        ++obs_cells;
                    }
                    if (opts.json) {
                        std::printf(
                            "%s\n",
                            resultToJson(result, opts.dumpStats)
                                .c_str());
                        check_diverged |= result.check != nullptr &&
                                          !result.check->ok();
                        continue;
                    }
                    std::printf(
                        "%-10s %-12s %5zu %10.3f %12.1f %8.2fx %7.1f%%"
                        " %7.1f%%\n",
                        app.c_str(), to_string(paradigm).c_str(), gpus,
                        result.timeMs(),
                        static_cast<double>(result.interconnectBytes) /
                            1e6,
                        speedupOver(baseline, result),
                        result.l2HitRate * 100.0,
                        result.wqHitRate * 100.0);
                    if (result.hasFaultReport) {
                        const FaultReport& fr = result.faultReport;
                        std::printf(
                            "    faults: injected=%llu reroutes=%llu "
                            "pcie_fallbacks=%llu pages_retired=%llu "
                            "resubscribes=%llu wq_stall_drains=%llu "
                            "stall_ms=%.3f\n",
                            static_cast<unsigned long long>(
                                fr.faultsInjected),
                            static_cast<unsigned long long>(fr.reroutes),
                            static_cast<unsigned long long>(
                                fr.pcieFallbacks),
                            static_cast<unsigned long long>(
                                fr.pagesRetired),
                            static_cast<unsigned long long>(
                                fr.resubscribes),
                            static_cast<unsigned long long>(
                                fr.wqSaturatedDrains),
                            ticksToMs(fr.stallTicks));
                    }
                    check_diverged |= printCheckSummary(result);
                    if (result.obs != nullptr && result.obs->hasMetrics)
                        printObsBreakdown(*result.obs, gpus);
                    if (result.obs != nullptr && result.obs->hasProfile)
                        printProfileSummary(*result.obs);
                    if (opts.dumpStats) {
                        std::printf(
                            "%s", result.stats.dump("    ").c_str());
                    }
                }
            }
        }
        if (last_obs != nullptr) {
            if (obs_cells > 1)
                gps_warn("observability files reflect only the last of ",
                         obs_cells, " runs");
            if (!opts.metricsOut.empty())
                writeTextFile(opts.metricsOut, metricsToJson(*last_obs));
            if (!opts.timelineOut.empty())
                writeTextFile(opts.timelineOut,
                              timelineToJson(*last_obs));
            if (!opts.profileOut.empty())
                writeTextFile(opts.profileOut, profileToJson(*last_obs));
            if (!opts.causalOut.empty() && last_obs->hasCausal)
                writeTextFile(opts.causalOut,
                              causalToJson(last_obs->causal));
            if (last_obs->timelineDropped > 0)
                gps_warn("timeline truncated: ",
                         last_obs->timelineDropped,
                         " event(s) dropped past the cap; raise "
                         "--timeline-max-events");
        }
        return (check_diverged || run_failed) ? 1 : 0;
    } catch (const FatalError& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}

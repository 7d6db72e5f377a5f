/**
 * @file
 * gps-trace — capture, inspect and replay binary access traces.
 *
 * The NVBit-shaped interchange point of this reproduction: workload
 * generators are captured to trace files (one per iteration/phase/GPU)
 * plus a manifest, any trace file can be summarized, and a captured set
 * replays through the simulator under any paradigm — the paper's
 * capture-once / replay-many methodology. Externally captured traces
 * converted to this format replay the same way.
 *
 *   gps-trace capture Jacobi /tmp/jacobi --gpus 4 --scale 0.25
 *   gps-trace info /tmp/jacobi.iter0.phase0.gpu2.trc
 *   gps-trace replay /tmp/jacobi --paradigm GPS
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include <fstream>

#include "api/runner.hh"
#include "api/system.hh"
#include "apps/trace_workload.hh"
#include "apps/workload.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace gps;

int
capture(const std::string& app, const std::string& prefix,
        std::size_t gpus, double scale)
{
    if (!validScale(scale))
        gps_fatal("--scale must be in (0, 2^32]");
    SystemConfig config;
    config.numGpus = gpus;
    if (const std::string error = systemConfigError(config); !error.empty())
        gps_fatal(error);
    MultiGpuSystem system(config);
    auto paradigm = makeParadigm(ParadigmKind::Memcpy, system);
    WorkloadContext ctx(system, *paradigm);
    auto workload = makeWorkload(app);
    workload->setScale(scale);
    workload->setup(ctx);

    std::ofstream manifest(prefix + ".manifest");
    if (!manifest)
        gps_fatal("cannot write '", prefix, ".manifest'");
    manifest << "gps-trace-manifest 1\n";
    manifest << "page_bytes " << system.geometry().bytes() << "\n";
    manifest << "gpus " << gpus << "\n";
    manifest << "iterations 2\n";
    for (const auto& [base, region] :
         system.addressSpace().regions()) {
        manifest << "region " << region.base << " " << region.size
                 << " "
                 << (region.kind == MemKind::Pinned ? "private"
                                                    : "shared")
                 << " " << region.home << " " << region.label << "\n";
    }

    std::uint64_t total = 0;
    std::size_t phase_count = 0;
    std::string kernel_lines;
    // Capture the profiling iteration and one steady-state iteration.
    for (std::size_t iter = 0; iter < 2; ++iter) {
        std::vector<Phase> phases = workload->iteration(iter, ctx);
        if (iter == 0)
            phase_count = phases.size();
        for (std::size_t p = 0; p < phases.size(); ++p) {
            for (KernelLaunch& kernel : phases[p].kernels) {
                const std::string path =
                    prefix + ".iter" + std::to_string(iter) + ".phase" +
                    std::to_string(p) + ".gpu" +
                    std::to_string(kernel.gpu) + ".trc";
                TraceWriter writer(path);
                const std::uint64_t written =
                    writer.appendAll(*kernel.stream);
                total += written;
                kernel_lines += "kernel " + std::to_string(iter) + " " +
                                std::to_string(p) + " " +
                                std::to_string(kernel.gpu) + " " +
                                std::to_string(written) + " " +
                                std::to_string(kernel.computeInstrs) +
                                " " +
                                std::to_string(
                                    kernel.prechargedDramBytes) +
                                "\n";
                std::printf("%s: %llu records\n", path.c_str(),
                            static_cast<unsigned long long>(written));
            }
        }
    }
    manifest << "phases " << phase_count << "\n" << kernel_lines;
    std::printf("captured %llu records total (+ manifest)\n",
                static_cast<unsigned long long>(total));
    return 0;
}

int
replay(const std::string& prefix, const std::string& paradigm_name)
{
    apps::TraceReplayWorkload probe(prefix);
    RunConfig config;
    config.system.numGpus = probe.capturedGpus();
    config.system.pageBytes = probe.pageBytes();
    for (const ParadigmKind kind : allParadigms()) {
        if (paradigm_name == to_string(kind) ||
            (paradigm_name == "Infinite" &&
             kind == ParadigmKind::InfiniteBw)) {
            config.paradigm = kind;
        }
    }
    apps::TraceReplayWorkload workload(prefix);
    Runner runner(config);
    const RunResult result = runner.run(workload);
    std::printf("replayed '%s' under %s on %zu GPUs:\n",
                prefix.c_str(), result.paradigm.c_str(),
                result.numGpus);
    std::printf("  time          %.3f ms (extrapolated to %zu iters)\n",
                result.timeMs(), workload.effectiveIterations());
    std::printf("  traffic       %.2f MB\n",
                static_cast<double>(result.interconnectBytes) / 1e6);
    std::printf("  accesses      %llu (simulated)\n",
                static_cast<unsigned long long>(result.totals.accesses));
    std::printf("  wq hit rate   %.1f%%\n", result.wqHitRate * 100.0);
    return 0;
}

int
info(const std::string& path)
{
    TraceFileStream stream(path);
    std::map<AccessType, std::uint64_t> by_type;
    std::uint64_t sys_scoped = 0;
    std::uint64_t bytes = 0;
    Addr lo = ~Addr(0), hi = 0;
    MemAccess access;
    while (stream.next(access)) {
        ++by_type[access.type];
        bytes += access.size;
        if (access.scope == Scope::Sys)
            ++sys_scoped;
        lo = std::min(lo, access.vaddr);
        hi = std::max(hi, access.vaddr + access.size);
    }
    std::printf("%s\n", path.c_str());
    std::printf("  records      %llu\n",
                static_cast<unsigned long long>(stream.records()));
    std::printf("  loads        %llu\n",
                static_cast<unsigned long long>(
                    by_type[AccessType::Load]));
    std::printf("  stores       %llu\n",
                static_cast<unsigned long long>(
                    by_type[AccessType::Store]));
    std::printf("  atomics      %llu\n",
                static_cast<unsigned long long>(
                    by_type[AccessType::Atomic]));
    std::printf("  sys-scoped   %llu\n",
                static_cast<unsigned long long>(sys_scoped));
    std::printf("  payload      %.2f MB\n",
                static_cast<double>(bytes) / 1e6);
    if (hi > 0) {
        std::printf("  VA footprint [%llx, %llx) = %.2f MB\n",
                    static_cast<unsigned long long>(lo),
                    static_cast<unsigned long long>(hi),
                    static_cast<double>(hi - lo) / 1e6);
    }
    return 0;
}

[[noreturn]] void
usage(int exit_code)
{
    std::printf("usage:\n"
                "  gps-trace capture <app> <prefix> [--gpus N] "
                "[--scale F]\n"
                "  gps-trace info <file.trc>\n"
                "  gps-trace replay <prefix> [--paradigm NAME]\n");
    std::exit(exit_code);
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace gps;
    setVerbose(false);
    try {
        if (argc < 2)
            usage(1);
        const std::string command = argv[1];
        if (command == "info" && argc == 3)
            return info(argv[2]);
        if (command == "replay" && argc >= 3) {
            std::string paradigm = "GPS";
            for (int i = 3; i + 1 < argc; i += 2) {
                if (std::strcmp(argv[i], "--paradigm") == 0)
                    paradigm = argv[i + 1];
                else
                    usage(1);
            }
            return replay(argv[2], paradigm);
        }
        if (command == "capture" && argc >= 4) {
            std::size_t gpus = 4;
            double scale = 0.25;
            for (int i = 4; i + 1 < argc; i += 2) {
                if (std::strcmp(argv[i], "--gpus") == 0)
                    gpus = parseUnsigned("--gpus", argv[i + 1]);
                else if (std::strcmp(argv[i], "--scale") == 0)
                    scale = parseFloat("--scale", argv[i + 1]);
                else
                    usage(1);
            }
            return capture(argv[2], argv[3], gpus, scale);
        }
        usage(1);
    } catch (const FatalError& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}

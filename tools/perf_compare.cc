/**
 * @file
 * Perf-regression gate: diff two BENCH_perf.json files.
 *
 * Compares the baseline's per-config rows (matched by the "config"
 * label) and the aggregate against the current file:
 *
 *   - replay throughput (macc_per_s) and warm fork speedup: lower by
 *     more than the tolerance is a regression (host-machine dependent —
 *     use --soft in CI);
 *   - simulated time (sim_ms) and interconnect bytes: any difference,
 *     in either direction, is a regression. These are deterministic
 *     outputs, so drift is a real behavior change, never noise; the
 *     tolerance does not apply and --soft does not suppress it.
 *
 * Exit codes: 0 clean, 1 regression detected (throughput regressions
 * are suppressed by --soft), 2 unreadable/malformed/schema-mismatched
 * input. --soft keeps deterministic drift, schema and parse errors
 * fatal, so CI always notices a changed simulation or a broken
 * producer.
 *
 * Usage:
 *   perf_compare [--tolerance P% | F] [--soft] baseline.json current.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace
{

using gps::JsonValue;

struct Options
{
    double tolerance = 0.05; // fractional, e.g. 0.05 = 5%
    bool soft = false;
    std::string baselinePath;
    std::string currentPath;
};

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--tolerance P%% | F] [--soft] <baseline.json> "
        "<current.json>\n"
        "  --tolerance   allowed relative throughput drift (default\n"
        "                5%%); accepts '10%%' or a fraction like 0.1\n"
        "  --soft        report throughput regressions but exit 0\n"
        "                (sim_ms/interconnect_bytes drift still exits 1,\n"
        "                schema and parse errors still exit 2)\n",
        argv0);
    std::exit(2);
}

double
parseTolerance(const std::string& text, const char* argv0)
{
    std::string t = text;
    bool percent = false;
    if (!t.empty() && t.back() == '%') {
        percent = true;
        t.pop_back();
    }
    char* end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == nullptr || *end != '\0' || t.empty() || v < 0.0) {
        std::fprintf(stderr, "error: invalid tolerance '%s'\n",
                     text.c_str());
        usage(argv0);
    }
    return percent ? v / 100.0 : v;
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance") {
            if (i + 1 >= argc)
                usage(argv[0]);
            opt.tolerance = parseTolerance(argv[++i], argv[0]);
        } else if (arg.rfind("--tolerance=", 0) == 0) {
            opt.tolerance = parseTolerance(arg.substr(12), argv[0]);
        } else if (arg == "--soft") {
            opt.soft = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         arg.c_str());
            usage(argv[0]);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2)
        usage(argv[0]);
    opt.baselinePath = positional[0];
    opt.currentPath = positional[1];
    return opt;
}

/** Load + parse + schema-check one perf log; exits 2 on any failure. */
std::unique_ptr<JsonValue>
loadPerfLog(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    std::unique_ptr<JsonValue> doc = gps::parseJson(text.str(), error);
    if (doc == nullptr) {
        std::fprintf(stderr, "error: %s: parse error: %s\n",
                     path.c_str(), error.c_str());
        std::exit(2);
    }
    if (!doc->isObject()) {
        std::fprintf(stderr, "error: %s: document is not an object\n",
                     path.c_str());
        std::exit(2);
    }
    const JsonValue* runs = doc->find("runs");
    if (runs == nullptr || !runs->isArray()) {
        std::fprintf(stderr,
                     "error: %s: schema mismatch: missing 'runs' array\n",
                     path.c_str());
        std::exit(2);
    }
    for (const JsonValue& run : runs->items()) {
        if (!run.isObject() || run.find("config") == nullptr ||
            !run.find("config")->isString()) {
            std::fprintf(stderr,
                         "error: %s: schema mismatch: run without a "
                         "'config' label\n",
                         path.c_str());
            std::exit(2);
        }
    }
    return doc;
}

struct Comparison
{
    int regressions = 0;

    /** Regressions in deterministic outputs (never soft). */
    int drifts = 0;
    int notes = 0;

    void
    regression(const std::string& what, double base, double cur,
               double drift)
    {
        ++regressions;
        std::printf("REGRESSION  %-40s %14.6g -> %14.6g  (%+.1f%%)\n",
                    what.c_str(), base, cur, drift * 100.0);
    }

    void
    drift(const std::string& what, double base, double cur)
    {
        ++regressions;
        ++drifts;
        std::printf("REGRESSION  %-40s %.17g -> %.17g  (deterministic "
                    "output changed)\n",
                    what.c_str(), base, cur);
    }

    void
    note(const std::string& what, const std::string& detail)
    {
        ++notes;
        std::printf("note        %-40s %s\n", what.c_str(),
                    detail.c_str());
    }
};

/**
 * Compare one host-speed metric (higher is better): falling by more
 * than the tolerance is a regression; improvements are never flagged.
 */
void
compareMetric(Comparison& cmp, const std::string& what, double base,
              double cur, double tolerance)
{
    if (base <= 0.0)
        return; // no meaningful reference
    const double drift = (cur - base) / base;
    if (drift < -tolerance)
        cmp.regression(what, base, cur, drift);
}

/** Compare a deterministic output: any difference is a drift. */
void
compareExact(Comparison& cmp, const std::string& what, double base,
             double cur)
{
    if (cur != base)
        cmp.drift(what, base, cur);
}

/**
 * The @p nth (0-based) run labelled @p label. A log may repeat a label
 * (one base run per swept page size, say); repeats match in order.
 */
const JsonValue*
findRun(const JsonValue& doc, const std::string& label,
        std::size_t nth = 0)
{
    for (const JsonValue& run : doc.find("runs")->items())
        if (run.string("config") == label && nth-- == 0)
            return &run;
    return nullptr;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::unique_ptr<JsonValue> base = loadPerfLog(opt.baselinePath);
    const std::unique_ptr<JsonValue> cur = loadPerfLog(opt.currentPath);

    Comparison cmp;

    // Aggregate throughput.
    compareMetric(cmp, "total.macc_per_s", base->number("macc_per_s"),
                  cur->number("macc_per_s"), opt.tolerance);

    // Warm-start fork efficiency: mean leader wall over mean follower
    // wall. Falling below the baseline means warm forking stopped
    // saving wall time. Compared only when both logs carry a nonzero
    // ratio — older baselines predate the field, and warm-disabled or
    // followerless runs report 0.
    const JsonValue* base_warm = base->find("warm");
    const JsonValue* cur_warm = cur->find("warm");
    if (base_warm != nullptr && cur_warm != nullptr &&
        cur_warm->number("fork_speedup") > 0.0)
        compareMetric(cmp, "warm.fork_speedup",
                      base_warm->number("fork_speedup"),
                      cur_warm->number("fork_speedup"), opt.tolerance);
    else if (base_warm != nullptr && cur_warm != nullptr &&
             base_warm->number("fork_speedup") > 0.0)
        cmp.note("warm.fork_speedup",
                 "baseline forked warm starts, current run did not");

    // Per-config rows, matched by label. Rows only in one file are
    // informational: grids legitimately grow and shrink.
    std::map<std::string, std::size_t> seen;
    for (const JsonValue& run : base->find("runs")->items()) {
        const std::string label = run.string("config");
        const JsonValue* match = findRun(*cur, label, seen[label]++);
        if (match == nullptr) {
            cmp.note(label, "missing from current file");
            continue;
        }
        compareMetric(cmp, label + ".macc_per_s",
                      run.number("macc_per_s"),
                      match->number("macc_per_s"), opt.tolerance);
        compareExact(cmp, label + ".sim_ms", run.number("sim_ms"),
                     match->number("sim_ms"));
        compareExact(cmp, label + ".interconnect_bytes",
                     run.number("interconnect_bytes"),
                     match->number("interconnect_bytes"));
    }
    for (const JsonValue& run : cur->find("runs")->items()) {
        const std::string label = run.string("config");
        if (findRun(*base, label) == nullptr)
            cmp.note(label, "new config (not in baseline)");
    }

    const std::size_t base_runs = base->find("runs")->items().size();
    std::printf("%d regression(s) (%d deterministic), %d note(s) over "
                "%zu baseline row(s) (tolerance %.1f%%)\n",
                cmp.regressions, cmp.drifts, cmp.notes, base_runs,
                opt.tolerance * 100.0);
    if (cmp.drifts > 0)
        return 1;
    if (cmp.regressions > 0)
        return opt.soft ? 0 : 1;
    return 0;
}

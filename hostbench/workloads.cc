#include "workloads.hh"

#include <fstream>
#include <string>
#include <sstream>
#include <stdexcept>

#include "common/rng.hh"
#include "common/units.hh"

namespace hostbench
{

using namespace gps;

namespace
{

/** Paradigm name as a label component ("Infinite BW" -> "InfiniteBW"). */
std::string
tag(ParadigmKind paradigm)
{
    std::string name = to_string(paradigm);
    std::erase(name, ' ');
    return name;
}

/** Table 1 system: 4 GPUs on PCIe 3.0, 64 KB pages, scale 1. */
RunConfig
paperConfig(ParadigmKind paradigm)
{
    RunConfig config;
    config.system.numGpus = 4;
    config.system.interconnect = InterconnectKind::Pcie3;
    config.paradigm = paradigm;
    config.scale = 1.0;
    return config;
}

/** 8-GPU NVLink 3.0 nodes joined by InfiniBand NDR uplinks. */
RunConfig
nodeConfig(std::size_t gpus, ParadigmKind paradigm, double scale)
{
    RunConfig config;
    config.system.numGpus = gpus;
    config.system.interconnect = InterconnectKind::NvLink3;
    config.system.numNodes = gpus / 8;
    config.system.interNode = InterconnectKind::IbNdr;
    config.system.gps.hierarchicalSubscription = true;
    config.paradigm = paradigm;
    config.scale = scale;
    return config;
}

/** Fig. 8 grid, Fig. 11 all-to-all variants and the 1-GPU baselines. */
std::vector<Row>
paper4Rows()
{
    std::vector<Row> rows;
    for (const std::string& app : gps::workloadNames()) {
        RunConfig base = paperConfig(ParadigmKind::Memcpy);
        base.system.numGpus = 1;
        rows.push_back({"base/" + app, app, base});
        for (const ParadigmKind paradigm : allParadigms())
            rows.push_back({"fig8/" + app + "/" + tag(paradigm), app,
                            paperConfig(paradigm)});
        RunConfig all_to_all = paperConfig(ParadigmKind::Gps);
        all_to_all.system.gps.autoUnsubscribe = false;
        rows.push_back({"fig11/" + app + "/all_to_all", app, all_to_all});
    }
    return rows;
}

std::vector<Row>
scaleoutRows()
{
    return {
        {"g128/Jacobi/Memcpy", "Jacobi",
         nodeConfig(128, ParadigmKind::Memcpy, 0.125)},
        {"g256/ALS/GPS", "ALS", nodeConfig(256, ParadigmKind::Gps, 0.125)},
        {"g256/Jacobi/GPS", "Jacobi",
         nodeConfig(256, ParadigmKind::Gps, 0.125)},
    };
}

std::vector<Row>
observedRows()
{
    const std::vector<std::pair<std::string, ParadigmKind>> cells = {
        {"ALS", ParadigmKind::Gps},      {"Jacobi", ParadigmKind::Gps},
        {"CT", ParadigmKind::Memcpy},    {"Pagerank", ParadigmKind::Um},
        {"HIT", ParadigmKind::UmHints},  {"SSSP", ParadigmKind::Rdl},
    };
    std::vector<Row> rows;
    for (const auto& [app, paradigm] : cells) {
        RunConfig config = nodeConfig(32, paradigm, 1.0);
        config.obs.metrics = true;
        config.obs.sampleEvery = usToTicks(1.0);
        config.obs.timeline = true;
        config.obs.profile = true;
        config.obs.causal = true;
        rows.push_back({"g32/" + app + "/" + tag(paradigm), app,
                        config});
    }
    return rows;
}

} // namespace

std::vector<Row>
workloadRows(const std::string& workload)
{
    if (workload == "paper4")
        return paper4Rows();
    if (workload == "scaleout")
        return scaleoutRows();
    if (workload == "observed")
        return observedRows();
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

std::vector<Row>
seededOrder(const std::string& workload, std::vector<Row> rows,
            std::uint64_t seed)
{
    // Fisher-Yates over blocks: one block per app for paper4, one per
    // row otherwise.
    std::vector<std::vector<Row>> blocks;
    for (Row& row : rows) {
        if (workload == "paper4" && !blocks.empty() &&
            blocks.back().front().app == row.app)
            blocks.back().push_back(std::move(row));
        else
            blocks.push_back({std::move(row)});
    }
    Rng rng(seed);
    for (std::size_t i = blocks.size(); i > 1; --i)
        std::swap(blocks[i - 1], blocks[rng.below(i)]);
    std::vector<Row> out;
    for (std::vector<Row>& block : blocks)
        for (Row& row : block)
            out.push_back(std::move(row));
    return out;
}

Pinned
pinnedOf(const RunResult& result)
{
    return {result.totalTime, result.interconnectBytes,
            result.totals.accesses};
}

PinnedTable
readPinned(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read pinned outputs " + path);
    PinnedTable table;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, label, extra;
        Pinned p;
        if (!(fields >> workload >> label >> p.totalTime >>
              p.interconnectBytes >> p.accesses) ||
            (fields >> extra))
            throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                     ": malformed pinned line");
        table[workload + "/" + label] = p;
    }
    return table;
}

std::string
pinnedLine(const std::string& workload, const std::string& label,
           const Pinned& pinned)
{
    std::ostringstream os;
    os << workload << ' ' << label << ' ' << pinned.totalTime << ' '
       << pinned.interconnectBytes << ' ' << pinned.accesses;
    return os.str();
}

bool
matchesPinned(const PinnedTable& table, const std::string& workload,
              const std::string& label, const RunResult& result)
{
    const auto it = table.find(workload + "/" + label);
    return it != table.end() && it->second == pinnedOf(result);
}

} // namespace hostbench

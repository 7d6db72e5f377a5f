#include "snapshot/snapshot.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "api/system.hh"
#include "check/invariants.hh"
#include "common/crc32.hh"
#include "core/gps_paradigm.hh"
#include "fault/fault_engine.hh"
#include "paradigm/paradigm.hh"

namespace gps::snapshot
{

namespace
{

constexpr char magic[8] = {'G', 'P', 'S', 'S', 'N', 'A', 'P', '\0'};
constexpr std::size_t headerBytes = sizeof(magic) + 4 + 4 + 8;

/** Parse a strict decimal suffix for "iter:N" / "phase:N". */
bool
parseDecimal(const std::string& text, std::uint64_t& out)
{
    if (text.empty() || text.size() > 19)
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

void
saveCounters(Serializer& out, const KernelCounters& c)
{
    out.u64(c.computeInstrs);
    out.u64(c.accesses);
    out.u64(c.loads);
    out.u64(c.stores);
    out.u64(c.atomics);
    out.u64(c.l2Hits);
    out.u64(c.l2Misses);
    out.u64(c.dramBytes);
    out.u64(c.remoteLoads);
    out.u64(c.remoteLoadBytes);
    out.u64(c.remoteAtomics);
    out.u64(c.pushedStoreBytes);
    out.u64(c.tlbMisses);
    out.u64(c.pageFaults);
    out.u64(c.pageMigrations);
    out.u64(c.migrationBytes);
    out.u64(c.tlbShootdowns);
    out.u64(c.wqInserts);
    out.u64(c.wqCoalesced);
    out.u64(c.wqDrains);
    out.u64(c.wqAtomicBypass);
    out.u64(c.smCoalesced);
    out.u64(c.gpsTlbHits);
    out.u64(c.gpsTlbMisses);
    out.u64(c.sysCollapses);
    out.u64(c.wqStallDrains);
    out.u64(c.wqStallTicks);
}

void
restoreCounters(Deserializer& in, KernelCounters& c)
{
    c.computeInstrs = in.u64();
    c.accesses = in.u64();
    c.loads = in.u64();
    c.stores = in.u64();
    c.atomics = in.u64();
    c.l2Hits = in.u64();
    c.l2Misses = in.u64();
    c.dramBytes = in.u64();
    c.remoteLoads = in.u64();
    c.remoteLoadBytes = in.u64();
    c.remoteAtomics = in.u64();
    c.pushedStoreBytes = in.u64();
    c.tlbMisses = in.u64();
    c.pageFaults = in.u64();
    c.pageMigrations = in.u64();
    c.migrationBytes = in.u64();
    c.tlbShootdowns = in.u64();
    c.wqInserts = in.u64();
    c.wqCoalesced = in.u64();
    c.wqDrains = in.u64();
    c.wqAtomicBypass = in.u64();
    c.smCoalesced = in.u64();
    c.gpsTlbHits = in.u64();
    c.gpsTlbMisses = in.u64();
    c.sysCollapses = in.u64();
    c.wqStallDrains = in.u64();
    c.wqStallTicks = in.u64();
}

void
saveMeta(Serializer& out, const SnapshotMeta& meta)
{
    out.section("meta");
    out.str(meta.workload);
    out.u8(meta.paradigm);
    out.u32(meta.numGpus);
    out.u64(meta.pageBytes);
    out.f64(meta.scale);
    out.str(meta.stateKey);
}

void
restoreMeta(Deserializer& in, SnapshotMeta& meta)
{
    in.section("meta");
    meta.workload = in.str();
    meta.paradigm = in.u8();
    meta.numGpus = in.u32();
    meta.pageBytes = in.u64();
    meta.scale = in.f64();
    meta.stateKey = in.str();
}

void
saveProgress(Serializer& out, const RunnerProgress& p)
{
    out.section("progress");
    out.u64(p.resumeIter);
    out.u64(p.resumePhase);
    out.u64(p.globalPhases);
    out.u64(p.tBefore);
    out.u64(p.bBefore);
    saveCounters(out, p.totals);
    out.u64(p.iterTime.size());
    for (const Tick t : p.iterTime)
        out.u64(t);
    out.u64(p.iterBytes.size());
    for (const std::uint64_t b : p.iterBytes)
        out.u64(b);
    out.b(p.hasSubscriberHist);
    out.u64(p.histBuckets.size());
    for (const std::uint64_t b : p.histBuckets)
        out.u64(b);
    out.b(p.hasObs);
    out.str(p.obsState);
}

void
restoreProgress(Deserializer& in, RunnerProgress& p)
{
    in.section("progress");
    p.resumeIter = in.u64();
    p.resumePhase = in.u64();
    p.globalPhases = in.u64();
    p.tBefore = in.u64();
    p.bBefore = in.u64();
    restoreCounters(in, p.totals);
    p.iterTime.assign(in.count(1ULL << 32), 0);
    for (Tick& t : p.iterTime)
        t = in.u64();
    p.iterBytes.assign(in.count(1ULL << 32), 0);
    for (std::uint64_t& b : p.iterBytes)
        b = in.u64();
    p.hasSubscriberHist = in.b();
    p.histBuckets.assign(in.count(1ULL << 16), 0);
    for (std::uint64_t& b : p.histBuckets)
        b = in.u64();
    p.hasObs = in.b();
    p.obsState = in.str();
}

/** The GPS paradigm behind @p paradigm, or nullptr for others. */
const GpsParadigm*
asGps(const Paradigm& paradigm)
{
    return paradigm.kind() == ParadigmKind::Gps
               ? static_cast<const GpsParadigm*>(&paradigm)
               : nullptr;
}

bool
fsyncFile(std::FILE* f)
{
    return ::fsync(::fileno(f)) == 0;
}

} // namespace

bool
parseSnapshotPoint(const std::string& text, SnapshotPoint& out)
{
    if (text == "profile") {
        out.kind = AtKind::Profile;
        out.n = 0;
        return true;
    }
    std::uint64_t n = 0;
    if (text.rfind("iter:", 0) == 0 && parseDecimal(text.substr(5), n) &&
        n >= 1) {
        out.kind = AtKind::Iter;
        out.n = n;
        return true;
    }
    if (text.rfind("phase:", 0) == 0 &&
        parseDecimal(text.substr(6), n) && n >= 1) {
        out.kind = AtKind::Phase;
        out.n = n;
        return true;
    }
    return false;
}

std::string
to_string(const SnapshotPoint& point)
{
    switch (point.kind) {
      case AtKind::None: return "none";
      case AtKind::Iter: return "iter:" + std::to_string(point.n);
      case AtKind::Phase: return "phase:" + std::to_string(point.n);
      case AtKind::Profile: return "profile";
    }
    return "none";
}

std::string
buildSummary(MultiGpuSystem& system, const Paradigm& paradigm)
{
    std::ostringstream os;
    system.driver().pageStates().forEach(
        [&os](PageNum vpn, const PageState& st) {
            os << "page " << vpn << " kind="
               << static_cast<unsigned>(st.kind)
               << " loc=" << st.location << " mapped=" << st.mapped
               << " backed=" << st.backed << " subs=" << st.subscribers
               << " collapsed=" << (st.collapsed ? 1 : 0)
               << " lastWriter=" << st.lastWriter << '\n';
        });
    for (std::size_t g = 0; g < system.numGpus(); ++g) {
        const PhysicalMemory& mem =
            system.gpu(static_cast<GpuId>(g)).memory();
        os << "gpu " << g << " inuse=" << mem.framesInUse()
           << " retired=" << mem.framesRetired()
           << " free=" << mem.framesFree() << '\n';
    }
    if (const GpsParadigm* gps = asGps(paradigm)) {
        for (std::size_t g = 0; g < system.numGpus(); ++g) {
            const RemoteWriteQueue& wq =
                const_cast<GpsParadigm*>(gps)->writeQueue(
                    static_cast<GpuId>(g));
            os << "wq " << g << " occ=" << wq.occupancy()
               << " resident=" << wq.residentEntries()
               << " weight=" << wq.weightSum() << '\n';
        }
        os << "gpstable live="
           << const_cast<GpsParadigm*>(gps)->gpsPageTable().size()
           << '\n';
    }
    return os.str();
}

std::string
encodeSnapshot(MultiGpuSystem& system, const Paradigm& paradigm,
               const FaultEngine* faults, const SnapshotMeta& meta,
               const RunnerProgress& progress)
{
    // Header first with its CRC and body length zeroed, patched once
    // the body behind it is complete.
    Serializer out;
    for (const char c : magic)
        out.u8(static_cast<std::uint8_t>(c));
    out.u32(snapshotVersion);
    const std::size_t crc_at = out.bytes().size();
    out.u32(0);
    const std::size_t length_at = out.bytes().size();
    out.u64(0);

    saveMeta(out, meta);
    saveProgress(out, progress);
    out.section("clock");
    out.u64(system.now());
    system.topology().saveState(out);
    for (std::size_t g = 0; g < system.numGpus(); ++g)
        system.gpu(static_cast<GpuId>(g)).saveState(out);
    system.driver().saveState(out);
    out.b(faults != nullptr);
    if (faults != nullptr)
        faults->saveState(out);
    paradigm.saveState(out);
    out.section("summary");
    out.str(buildSummary(system, paradigm));

    const std::string_view body =
        std::string_view(out.bytes()).substr(headerBytes);
    out.patchU32(crc_at, crc32Of(body));
    out.patchU64(length_at, body.size());
    return out.take();
}

Snapshot
decodeSnapshot(std::shared_ptr<const std::string> file)
{
    const std::string& bytes = *file;
    if (bytes.size() < headerBytes)
        throw SnapshotError("truncated snapshot: " +
                            std::to_string(bytes.size()) +
                            " bytes is smaller than the header");
    if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        throw SnapshotError("not a GPS snapshot (bad magic)");
    Deserializer header(bytes);
    for (std::size_t i = 0; i < sizeof(magic); ++i)
        header.u8();
    const std::uint32_t version = header.u32();
    if (version != snapshotVersion)
        throw SnapshotError(
            "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(snapshotVersion) + ")");
    const std::uint32_t crc_stored = header.u32();
    const std::uint64_t body_len = header.u64();
    if (bytes.size() - headerBytes != body_len)
        throw SnapshotError(
            "truncated snapshot: header promises " +
            std::to_string(body_len) + " body bytes, file has " +
            std::to_string(bytes.size() - headerBytes));

    Snapshot snap;
    snap.file = std::move(file);
    snap.bodyOffset = headerBytes;
    if (crc32Of(snap.body()) != crc_stored)
        throw SnapshotError("corrupt snapshot: body CRC mismatch");

    Deserializer body(snap.body());
    restoreMeta(body, snap.meta);
    restoreProgress(body, snap.progress);
    return snap;
}

Snapshot
readSnapshotFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SnapshotError("cannot open snapshot '" + path +
                            "': " + std::strerror(errno));
    std::string bytes;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        throw SnapshotError("cannot read snapshot '" + path + "'");
    try {
        return decodeSnapshot(
            std::make_shared<const std::string>(std::move(bytes)));
    } catch (const SnapshotError& e) {
        throw SnapshotError("snapshot '" + path + "': " + e.what());
    }
}

void
writeSnapshotFile(const std::string& path, const std::string& bytes)
{
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + '.' +
                            std::to_string(++seq);
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        throw SnapshotError("cannot create snapshot temp '" + tmp +
                            "': " + std::strerror(errno));
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    // User-space flush, then device flush, then rename: the snapshot
    // only becomes visible under its final name once its bytes are
    // durable (same ordering as RunStore::publish).
    ok = ok && std::fflush(f) == 0 && fsyncFile(f);
    if (std::fclose(f) != 0)
        ok = false;
    if (!ok) {
        const std::string reason = std::strerror(errno);
        ::unlink(tmp.c_str());
        throw SnapshotError("cannot write snapshot '" + path +
                            "': " + reason);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string reason = std::strerror(errno);
        ::unlink(tmp.c_str());
        throw SnapshotError("cannot publish snapshot '" + path +
                            "': " + reason);
    }
}

void
applyState(const Snapshot& snap, MultiGpuSystem& system,
           Paradigm& paradigm, FaultEngine* faults, bool mutateForTest)
{
    Deserializer in(snap.body());
    SnapshotMeta meta;
    RunnerProgress progress;
    restoreMeta(in, meta);
    restoreProgress(in, progress);

    in.section("clock");
    system.advanceTo(in.u64());
    system.topology().restoreState(in);
    for (std::size_t g = 0; g < system.numGpus(); ++g)
        system.gpu(static_cast<GpuId>(g)).restoreState(in);
    system.driver().restoreState(in);
    const bool had_faults = in.b();
    if (had_faults != (faults != nullptr))
        throw SnapshotError(
            had_faults
                ? "snapshot has fault-injection state but this run has "
                  "no fault plan"
                : "this run has a fault plan but the snapshot has no "
                  "fault-injection state");
    if (faults != nullptr)
        faults->restoreState(in);
    paradigm.restoreState(in);

    in.section("summary");
    const std::string stored = in.str();
    if (!in.atEnd())
        throw SnapshotError("corrupt snapshot: trailing bytes after "
                            "the summary section");

    if (mutateForTest) {
        // Seeded divergence for the verification tests: flip one bit of
        // a page's subscriber set so the summary comparison must trip.
        PageNum victim = 0;
        bool found = false;
        system.driver().pageStates().forEach(
            [&victim, &found](PageNum vpn, const PageState&) {
                if (!found) {
                    victim = vpn;
                    found = true;
                }
            });
        if (found)
            system.driver().state(victim).subscribers ^= gpuBit(0);
    }

    const std::string live = buildSummary(system, paradigm);
    if (live != stored) {
        // Name the first differing line so the error localizes the
        // divergence instead of just declaring it.
        std::istringstream a(stored), b(live);
        std::string la, lb;
        while (std::getline(a, la) && std::getline(b, lb))
            if (la != lb)
                break;
        throw SnapshotError(
            "restore verification failed: live state diverges from the "
            "snapshot summary (snapshot: '" + la + "', live: '" + lb +
            "')");
    }

    CheckReport report;
    InvariantChecker checker(
        system, const_cast<GpsParadigm*>(asGps(paradigm)));
    checker.runAll("restore", report);
    if (!report.ok())
        throw SnapshotError(
            "restore verification failed: invariant violation: " +
            describe(report.findings.empty() ? CheckFinding{}
                                             : report.findings.front()));
}

} // namespace gps::snapshot

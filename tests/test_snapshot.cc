/**
 * @file
 * Checkpoint/restore tests: byte-identical resume for every bundled
 * workload, corrupt/truncated snapshot rejection (never half-restored),
 * restore-verification catching injected state divergence, warm-started
 * sweeps matching cold sweeps byte-for-byte, and the validated numeric
 * parsers the snapshot CLI and cache knobs share.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "api/sweep.hh"
#include "common/crc32.hh"
#include "common/env.hh"
#include "core/access_tracker.hh"
#include "core/gps_page_table.hh"
#include "core/remote_write_queue.hh"
#include "gpu/store_coalescer.hh"
#include "mem/page_table.hh"
#include "snapshot/snapshot.hh"

namespace gps
{
namespace
{

constexpr double smokeScale = 0.0625;

RunConfig
smokeConfig(ParadigmKind paradigm = ParadigmKind::Gps,
            std::size_t gpus = 4)
{
    RunConfig config;
    config.system.numGpus = gpus;
    config.scale = smokeScale;
    config.paradigm = paradigm;
    return config;
}

std::string
runJson(const std::string& app, const RunConfig& config)
{
    return resultToJson(runWorkload(app, config), /*include_stats=*/true);
}

/** Capture a snapshot in memory at @p at and return (bytes, cold JSON). */
std::pair<std::shared_ptr<std::string>, std::string>
captureAt(const std::string& app, const RunConfig& base,
          snapshot::SnapshotPoint at)
{
    RunConfig config = base;
    config.snapshotAt = at;
    config.snapshotSink = std::make_shared<std::string>();
    const std::string json = runJson(app, config);
    return {config.snapshotSink, json};
}

std::string
restoreJson(const std::string& app, const RunConfig& base,
            std::shared_ptr<const std::string> blob)
{
    RunConfig config = base;
    config.restoreBlob = std::move(blob);
    return runJson(app, config);
}

/** Scratch snapshot file path, removed on destruction. */
class TempFile
{
  public:
    TempFile()
    {
        char tmpl[] = "/tmp/gps_snapshot_test_XXXXXX";
        const int fd = ::mkstemp(tmpl);
        if (fd >= 0)
            ::close(fd);
        path_ = tmpl;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

// ---------------------------------------------------------------------
// Point-spec parsing.
// ---------------------------------------------------------------------

TEST(SnapshotPoint, ParsesEverySpelling)
{
    snapshot::SnapshotPoint p;
    EXPECT_TRUE(snapshot::parseSnapshotPoint("profile", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Profile);

    EXPECT_TRUE(snapshot::parseSnapshotPoint("iter:3", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Iter);
    EXPECT_EQ(p.n, 3u);

    EXPECT_TRUE(snapshot::parseSnapshotPoint("phase:12", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Phase);
    EXPECT_EQ(p.n, 12u);

    EXPECT_EQ(snapshot::to_string(p), "phase:12");
}

TEST(SnapshotPoint, RejectsMalformedSpecs)
{
    snapshot::SnapshotPoint p;
    for (const char* bad :
         {"", "iter", "iter:", "iter:0", "iter:-1", "iter:1x",
          "phase:0", "phase:abc", "profiles", "PHASE:1",
          "iter:99999999999999999999"})
        EXPECT_FALSE(snapshot::parseSnapshotPoint(bad, p)) << bad;
    // A failed parse leaves the output untouched.
    p = {snapshot::AtKind::Iter, 7};
    EXPECT_FALSE(snapshot::parseSnapshotPoint("garbage", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Iter);
    EXPECT_EQ(p.n, 7u);
}

// ---------------------------------------------------------------------
// Round-trip byte-identity.
// ---------------------------------------------------------------------

class SnapshotRoundTrip : public ::testing::TestWithParam<std::string>
{};

TEST_P(SnapshotRoundTrip, ProfileRestoreIsByteIdentical)
{
    const std::string app = GetParam();
    const RunConfig base = smokeConfig();
    const std::string cold = runJson(app, base);

    const auto [blob, capture_json] =
        captureAt(app, base, {snapshot::AtKind::Profile, 0});
    // Capturing must not perturb the capturing run either.
    EXPECT_EQ(capture_json, cold) << app;
    ASSERT_FALSE(blob->empty()) << app;

    EXPECT_EQ(restoreJson(app, base, blob), cold) << app;
}

TEST_P(SnapshotRoundTrip, PhaseRestoreIsByteIdentical)
{
    const std::string app = GetParam();
    const RunConfig base = smokeConfig();
    const std::string cold = runJson(app, base);

    const auto [blob, capture_json] =
        captureAt(app, base, {snapshot::AtKind::Phase, 1});
    EXPECT_EQ(capture_json, cold) << app;
    ASSERT_FALSE(blob->empty()) << app;

    EXPECT_EQ(restoreJson(app, base, blob), cold) << app;
}

INSTANTIATE_TEST_SUITE_P(AllApps, SnapshotRoundTrip,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto& info) { return info.param; });

TEST(Snapshot, IterRestoreIsByteIdenticalUnderUm)
{
    // Non-GPS paradigms snapshot too; iter points resume at an
    // iteration boundary.
    const RunConfig base = smokeConfig(ParadigmKind::Um, 2);
    const std::string cold = runJson("Jacobi", base);
    const auto [blob, capture_json] =
        captureAt("Jacobi", base, {snapshot::AtKind::Iter, 2});
    EXPECT_EQ(capture_json, cold);
    ASSERT_FALSE(blob->empty());
    EXPECT_EQ(restoreJson("Jacobi", base, blob), cold);
}

TEST(Snapshot, FileRoundTripMatchesInMemory)
{
    const RunConfig base = smokeConfig(ParadigmKind::Gps, 2);
    const std::string cold = runJson("Jacobi", base);

    TempFile file;
    RunConfig capture = base;
    capture.snapshotAt = {snapshot::AtKind::Profile, 0};
    capture.snapshotOut = file.path();
    EXPECT_EQ(runJson("Jacobi", capture), cold);

    const std::string bytes = readFile(file.path());
    ASSERT_FALSE(bytes.empty());
    // The file decodes standalone and identifies its run.
    const snapshot::Snapshot snap = snapshot::readSnapshotFile(file.path());
    EXPECT_EQ(snap.meta.workload, "Jacobi");
    EXPECT_EQ(snap.meta.numGpus, 2u);

    RunConfig restore = base;
    restore.restoreFrom = file.path();
    EXPECT_EQ(runJson("Jacobi", restore), cold);
}

TEST(Snapshot, UnreachedPointWarnsAndWritesNothing)
{
    RunConfig config = smokeConfig(ParadigmKind::Gps, 2);
    config.snapshotAt = {snapshot::AtKind::Iter, 1000};
    config.snapshotSink = std::make_shared<std::string>();
    (void)runJson("Jacobi", config);
    EXPECT_TRUE(config.snapshotSink->empty());
}

// ---------------------------------------------------------------------
// Corruption rejection: a bad snapshot must never half-restore.
// ---------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = smokeConfig(ParadigmKind::Gps, 2);
        auto [blob, json] =
            captureAt("Jacobi", base_, {snapshot::AtKind::Profile, 0});
        bytes_ = *blob;
        ASSERT_FALSE(bytes_.empty());
    }

    void
    expectRejected(const std::string& bytes)
    {
        TempFile file;
        writeFile(file.path(), bytes);
        RunConfig config = base_;
        config.restoreFrom = file.path();
        EXPECT_THROW((void)runWorkload("Jacobi", config),
                     snapshot::SnapshotError);
    }

    RunConfig base_;
    std::string bytes_;
};

TEST_F(SnapshotCorruption, TruncatedFileIsRejected)
{
    // A writer killed mid-write: every prefix must be rejected, from an
    // empty file to one missing a single byte.
    expectRejected("");
    expectRejected(bytes_.substr(0, 4));
    expectRejected(bytes_.substr(0, bytes_.size() / 2));
    expectRejected(bytes_.substr(0, bytes_.size() - 1));
}

TEST_F(SnapshotCorruption, TrailingJunkIsRejected)
{
    expectRejected(bytes_ + "x");
}

TEST_F(SnapshotCorruption, BitFlipIsRejected)
{
    // Flip one body byte: the CRC must catch it.
    std::string bytes = bytes_;
    bytes[bytes.size() - 10] ^= 0x01;
    expectRejected(bytes);
}

TEST_F(SnapshotCorruption, BadMagicAndVersionAreRejected)
{
    std::string bad_magic = bytes_;
    bad_magic[0] = 'X';
    expectRejected(bad_magic);

    std::string bad_version = bytes_;
    bad_version[8] ^= 0x40; // version field follows the 8-byte magic
    expectRejected(bad_version);
}

TEST_F(SnapshotCorruption, VersionTwoFileIsRejected)
{
    // Format 2 carried an "events" section (clock plus the event
    // queue's sequence and executed counters) where format 3 has a
    // "clock" section. Rebuild this capture in the version-2 layout
    // with a valid length and CRC: the version check must refuse it.
    ASSERT_EQ(static_cast<unsigned char>(bytes_[8]),
              snapshot::snapshotVersion);
    constexpr std::size_t header_bytes = 24;
    std::string body = bytes_.substr(header_bytes);
    snapshot::Serializer clock_tag;
    clock_tag.section("clock");
    const std::string& tag = clock_tag.bytes();
    const std::size_t at = body.find(tag);
    ASSERT_NE(at, std::string::npos);
    snapshot::Serializer events;
    events.section("events");
    std::string v2_section =
        events.bytes() + body.substr(at + tag.size(), 8);
    v2_section.append(16, '\0'); // sequence and executed counters
    body.replace(at, tag.size() + 8, v2_section);

    snapshot::Serializer header;
    for (const char c : std::string("GPSSNAP", 8))
        header.u8(static_cast<std::uint8_t>(c));
    header.u32(2);
    header.u32(crc32Of(body));
    header.u64(body.size());
    const std::string v2 = header.bytes() + body;
    try {
        (void)snapshot::decodeSnapshot(
            std::make_shared<const std::string>(v2));
        ADD_FAILURE() << "version-2 snapshot was accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find("version 2"),
                  std::string::npos)
            << e.what();
    }
    expectRejected(v2);
}

TEST_F(SnapshotCorruption, WrongRunIdentityIsRejected)
{
    // A valid snapshot of a different configuration must be refused by
    // the meta check, not silently applied.
    TempFile file;
    writeFile(file.path(), bytes_);

    RunConfig wrong_gpus = smokeConfig(ParadigmKind::Gps, 4);
    wrong_gpus.restoreFrom = file.path();
    EXPECT_THROW((void)runWorkload("Jacobi", wrong_gpus),
                 snapshot::SnapshotError);

    RunConfig wrong_app = base_;
    wrong_app.restoreFrom = file.path();
    EXPECT_THROW((void)runWorkload("Nbody", wrong_app),
                 snapshot::SnapshotError);

    RunConfig wrong_paradigm = smokeConfig(ParadigmKind::Um, 2);
    wrong_paradigm.restoreFrom = file.path();
    EXPECT_THROW((void)runWorkload("Jacobi", wrong_paradigm),
                 snapshot::SnapshotError);
}

TEST_F(SnapshotCorruption, RestoreVerificationCatchesStateDivergence)
{
    // Seeded divergence: the test hook perturbs one page's driver state
    // after applying the snapshot, so the functional-summary comparison
    // (backed by the RefModel-style invariant suite) must fire.
    TempFile file;
    writeFile(file.path(), bytes_);
    RunConfig config = base_;
    config.restoreFrom = file.path();
    config.restoreMutateForTest = true;
    EXPECT_THROW((void)runWorkload("Jacobi", config),
                 snapshot::SnapshotError);
}

TEST_F(SnapshotCorruption, CaptureRefusesCheckAndProfileRuns)
{
    RunConfig checked = base_;
    checked.snapshotAt = {snapshot::AtKind::Profile, 0};
    checked.snapshotSink = std::make_shared<std::string>();
    checked.check.enabled = true;
    EXPECT_THROW((void)runWorkload("Jacobi", checked),
                 snapshot::SnapshotError);

    TempFile file;
    writeFile(file.path(), bytes_);
    RunConfig profiled = base_;
    profiled.restoreFrom = file.path();
    profiled.obs.profile = true;
    EXPECT_THROW((void)runWorkload("Jacobi", profiled),
                 snapshot::SnapshotError);
}

TEST(SnapshotCorruptionComponent, CoalescerCursorOutOfRangeIsRejected)
{
    // The coalescer walks its ring from head_ with wrap-around compares,
    // so a cursor past the ring must be refused, not indexed.
    const auto encode = [](std::uint32_t head, std::uint32_t valid) {
        snapshot::Serializer out;
        out.section("coalescer");
        out.u64(8);
        for (std::uint64_t line = 0; line < 8; ++line)
            out.u64(line);
        out.u32(head);
        out.u32(valid);
        out.u64(0);
        out.u64(0);
        return out.bytes();
    };
    StoreCoalescer coalescer("c", 8, 128);
    const std::string fits = encode(7, 8);
    snapshot::Deserializer fits_in(fits);
    EXPECT_NO_THROW(coalescer.restoreState(fits_in));
    for (const auto& [head, valid] :
         {std::pair<std::uint32_t, std::uint32_t>{8, 8}, {0, 9}}) {
        const std::string bad = encode(head, valid);
        snapshot::Deserializer in(bad);
        EXPECT_THROW(coalescer.restoreState(in), snapshot::SnapshotError)
            << "head " << head << " valid " << valid;
    }
}

TEST(SnapshotCorruptionComponent, PageTableVpnListedTwiceIsRejected)
{
    // A flat table would let the second copy overwrite the first.
    const auto encode = [](const std::vector<PageNum>& vpns) {
        snapshot::Serializer out;
        out.section("pagetable");
        out.u64(vpns.size());
        for (const PageNum vpn : vpns) {
            out.u64(vpn);
            out.u64(7); // ppn
            out.u32(1); // location
            out.b(false);
        }
        out.u64(vpns.size()); // map ops
        out.u64(0);           // unmap ops
        return out.bytes();
    };
    PageTable table("pt");
    const std::string fits = encode({5, 6, 21});
    snapshot::Deserializer fits_in(fits);
    EXPECT_NO_THROW(table.restoreState(fits_in));
    EXPECT_EQ(table.size(), 3u);
    const std::string twice = encode({5, 6, 5});
    snapshot::Deserializer in(twice);
    EXPECT_THROW(table.restoreState(in), snapshot::SnapshotError);
}

/** A GPS page table section with one PTE per replica list. */
std::string
encodeGpsTable(const std::vector<std::vector<std::uint32_t>>& lists,
               std::uint64_t live)
{
    snapshot::Serializer out;
    out.section("gpstable");
    out.u64(100); // base
    out.u64(lists.size());
    for (const auto& gpus : lists) {
        out.u64(gpus.size());
        for (const std::uint32_t gpu : gpus) {
            out.u32(gpu);
            out.u64(1000 + gpu); // ppn
        }
    }
    out.u64(live);
    return out.bytes();
}

TEST(SnapshotCorruptionComponent, GpsReplicaGpuBeyondTheMaskIsRejected)
{
    // Ids are stored as u32; one past the mask width must not be
    // narrowed into the 16-bit GpuId.
    GpsPageTable table;
    const std::string fits = encodeGpsTable({{0, 255}, {}}, 1);
    snapshot::Deserializer fits_in(fits);
    EXPECT_NO_THROW(table.restoreState(fits_in));
    ASSERT_NE(table.lookup(100), nullptr);
    EXPECT_TRUE(table.lookup(100)->hasSubscriber(255));
    for (const std::uint32_t gpu : {256u, 65536u + 3u}) {
        const std::string bad = encodeGpsTable({{0, gpu}, {}}, 1);
        snapshot::Deserializer in(bad);
        EXPECT_THROW(table.restoreState(in), snapshot::SnapshotError)
            << "gpu " << gpu;
    }
}

TEST(SnapshotCorruptionComponent, GpsReplicaGpuListedTwiceIsRejected)
{
    GpsPageTable table;
    const std::string bad = encodeGpsTable({{3}, {1, 4, 1}}, 2);
    snapshot::Deserializer in(bad);
    EXPECT_THROW(table.restoreState(in), snapshot::SnapshotError);
}

TEST(SnapshotCorruptionComponent, GpsTableLiveCountMismatchIsRejected)
{
    GpsPageTable table;
    const std::string fits = encodeGpsTable({{3}, {}, {1, 4}}, 2);
    snapshot::Deserializer fits_in(fits);
    EXPECT_NO_THROW(table.restoreState(fits_in));
    EXPECT_EQ(table.size(), 2u);
    for (const std::uint64_t live : {1u, 3u}) {
        const std::string bad = encodeGpsTable({{3}, {}, {1, 4}}, live);
        snapshot::Deserializer in(bad);
        EXPECT_THROW(table.restoreState(in), snapshot::SnapshotError)
            << "live " << live;
    }
}

TEST(SnapshotCorruptionComponent, WriteQueueVpnOffItsLineIsRejected)
{
    // Entries derive their page from the line; the stored VPN must be
    // that page.
    const PageGeometry geometry(64 * KiB);
    const Addr line = 5 * 64 * KiB + 3 * 128;
    const auto encode = [&](PageNum vpn) {
        snapshot::Serializer out;
        out.section("rwq");
        out.u64(1);
        out.u64(line);
        out.u64(vpn);
        out.u32(128); // bytes written
        out.u32(1);   // merged stores
        out.u32(1);   // weight
        out.u64(0);   // seq
        out.u32(1);   // occupancy
        for (int counter = 0; counter < 7; ++counter)
            out.u64(counter == 0 ? 1 : 0); // inserts, then the rest
        out.b(false);
        return out.bytes();
    };
    GpsConfig config;
    RemoteWriteQueue queue("wq", config, 128, geometry);
    const std::string fits = encode(5);
    snapshot::Deserializer fits_in(fits);
    EXPECT_NO_THROW(queue.restoreState(fits_in));
    EXPECT_TRUE(queue.contains(line));
    const std::string bad = encode(6);
    snapshot::Deserializer in(bad);
    EXPECT_THROW(queue.restoreState(in), snapshot::SnapshotError);
}

TEST(SnapshotCorruptionComponent, TrackerMarkOutsideGpsMemoryIsRejected)
{
    // The tracker keeps one mask per page across the marked VPN range,
    // so a page outside GPS memory (2^50 beside page 5) would stretch
    // that range over petabytes of address space.
    const auto encode = [](PageNum second) {
        snapshot::Serializer out;
        out.section("tracker");
        out.u64(2); // GPUs
        out.u64(1);
        out.u64(5);
        out.u64(1);
        out.u64(second);
        out.b(false); // active
        out.u64(2);   // marks
        return out.bytes();
    };
    const auto is_gps_page = [](PageNum vpn) { return vpn < 100; };
    AccessTracker tracker(2);
    const std::string fits = encode(6);
    snapshot::Deserializer fits_in(fits);
    EXPECT_NO_THROW(tracker.restoreState(fits_in, is_gps_page));
    EXPECT_EQ(tracker.touchedMask(6), gpuBit(1));
    const std::string bad = encode(PageNum(1) << 50);
    snapshot::Deserializer in(bad);
    EXPECT_THROW(tracker.restoreState(in, is_gps_page),
                 snapshot::SnapshotError);
}

TEST(SnapshotSerial, CountIsBoundedByTheBytesLeft)
{
    // Every element of every count-prefixed list encodes to at least
    // one byte, so a count beyond the remaining input is corrupt: a
    // ~100-byte crafted file must not ask for gigabytes.
    const auto encode = [](std::uint64_t n) {
        snapshot::Serializer out;
        out.u64(n);
        for (int i = 0; i < 10; ++i)
            out.u8(0);
        return out.bytes();
    };
    const std::string too_many = encode(1000);
    snapshot::Deserializer bad(too_many);
    EXPECT_THROW((void)bad.count(1ULL << 32), snapshot::SnapshotError);
    const std::string fits = encode(10);
    snapshot::Deserializer good(fits);
    EXPECT_EQ(good.count(1ULL << 32), 10u);
}

TEST(SnapshotObs, MisalignedMetricSeriesAreRejected)
{
    // A hand-built obs section with one metric column: the column must
    // hold one value per sample tick and the ticks must increase, or
    // the restored metrics JSON would pair series with the wrong ticks.
    const auto encode = [](const std::vector<Tick>& ticks,
                           std::size_t values) {
        snapshot::Serializer out;
        out.section("obs");
        out.b(true); // sampler
        out.u64(ticks.size());
        for (const Tick t : ticks)
            out.u64(t);
        out.u64(1); // one column
        out.u64(values);
        for (std::size_t i = 0; i < values; ++i)
            out.f64(1.0);
        out.b(false); // no timeline
        out.b(false); // no causal graph
        return out.bytes();
    };
    const auto restore = [](const std::string& bytes) {
        ObsConfig config;
        config.metrics = true;
        Observability obs(config);
        obs.registry().counter("x", "events", [] { return 1.0; });
        snapshot::Deserializer in(bytes);
        obs.restoreState(in);
    };
    EXPECT_NO_THROW(restore(encode({0, 5}, 2)));
    EXPECT_THROW(restore(encode({0, 5}, 1)), snapshot::SnapshotError);
    EXPECT_THROW(restore(encode({0, 5}, 3)), snapshot::SnapshotError);
    EXPECT_THROW(restore(encode({5, 5}, 2)), snapshot::SnapshotError);
    EXPECT_THROW(restore(encode({5, 0}, 2)), snapshot::SnapshotError);
}

// Serializable collectors (metrics, timeline, causal) round-trip with
// the machine state: a restored observability run reproduces the
// uninterrupted run's outputs byte for byte.
TEST(SnapshotObs, RestoredObsRunIsByteIdentical)
{
    RunConfig base = smokeConfig();
    base.obs.metrics = true;
    base.obs.timeline = true;
    base.obs.causal = true;
    base.obs.sampleEvery = 1000;

    RunConfig capture = base;
    capture.snapshotAt = {snapshot::AtKind::Iter, 2};
    capture.snapshotSink = std::make_shared<std::string>();
    const RunResult cold = runWorkload("Jacobi", capture);
    ASSERT_NE(cold.obs, nullptr);

    RunConfig resume = base;
    resume.restoreBlob = capture.snapshotSink;
    const RunResult warm = runWorkload("Jacobi", resume);
    ASSERT_NE(warm.obs, nullptr);

    EXPECT_EQ(warm.totalTime, cold.totalTime);
    EXPECT_EQ(metricsToJson(*warm.obs), metricsToJson(*cold.obs));
    EXPECT_EQ(timelineToJson(*warm.obs), timelineToJson(*cold.obs));
    EXPECT_EQ(causalToJson(warm.obs->causal),
              causalToJson(cold.obs->causal));
}

// A run resumed from a snapshot taken with collectors off takes its
// baseline metric sample at the resume tick, from the restored counters,
// not at tick 0 from the freshly built system.
TEST(SnapshotObs, ResumeWithoutCollectorStateSamplesFromTheResumeTick)
{
    const RunConfig base = smokeConfig();
    const std::shared_ptr<std::string> blob =
        captureAt("Jacobi", base, {snapshot::AtKind::Iter, 2}).first;
    ASSERT_FALSE(blob->empty());
    const Tick resume_tick = snapshot::decodeSnapshot(blob).progress.tBefore;
    ASSERT_GT(resume_tick, 0u);

    RunConfig resume = base;
    resume.obs.metrics = true;
    resume.obs.sampleEvery = 1000000;
    resume.restoreBlob = blob;

    // Resuming into a run that ends at the capture point replays
    // nothing, so its final values are the restored counters.
    RunConfig restored_only = resume;
    restored_only.steadyIterations = 1;
    const RunResult at_resume = runWorkload("Jacobi", restored_only);
    ASSERT_NE(at_resume.obs, nullptr);
    EXPECT_EQ(at_resume.obs->sampleTicks, std::vector<Tick>{resume_tick});

    const RunResult warm = runWorkload("Jacobi", resume);
    ASSERT_NE(warm.obs, nullptr);
    ASSERT_GT(warm.obs->sampleTicks.size(), 1u);
    EXPECT_EQ(warm.obs->sampleTicks.front(), resume_tick);
    ASSERT_EQ(warm.obs->seriesColumns.size(), at_resume.obs->finals.size());
    bool some_nonzero = false;
    for (std::size_t m = 0; m < at_resume.obs->finals.size(); ++m) {
        EXPECT_EQ(warm.obs->seriesColumns[m].front(),
                  at_resume.obs->finals[m].value)
            << at_resume.obs->finals[m].name;
        some_nonzero |= at_resume.obs->finals[m].value != 0.0;
    }
    EXPECT_TRUE(some_nonzero);
}

// ---------------------------------------------------------------------
// Atomic snapshot writes.
// ---------------------------------------------------------------------

TEST(SnapshotFile, WriteIsAtomicAndReadable)
{
    TempFile file;
    // Seed the final name with garbage: the temp+rename publish must
    // replace it wholesale, never append or mix.
    writeFile(file.path(), "stale garbage");
    const std::string payload(1 << 16, 'z');

    // Hand-build a minimal valid container through the public API by
    // capturing a real run, then verify publish-over-existing works.
    const RunConfig base = smokeConfig(ParadigmKind::Memcpy, 2);
    RunConfig capture = base;
    capture.snapshotAt = {snapshot::AtKind::Iter, 1};
    capture.snapshotOut = file.path();
    (void)runWorkload("Jacobi", capture);

    const snapshot::Snapshot snap =
        snapshot::readSnapshotFile(file.path());
    EXPECT_EQ(snap.meta.workload, "Jacobi");
    // No temp file left behind.
    EXPECT_EQ(::access((file.path() + ".tmp.0").c_str(), F_OK), -1);
}

// ---------------------------------------------------------------------
// Warm-started sweeps.
// ---------------------------------------------------------------------

TEST(WarmSweep, WarmOutcomesAreByteIdenticalToCold)
{
    // A fig11-style grid: one warm group (same profile-relevant config,
    // different steady-state knobs) plus an ineligible odd one out.
    std::vector<SweepJob> jobs;
    for (const std::size_t steady : {1u, 2u, 3u}) {
        RunConfig config = smokeConfig(ParadigmKind::Gps, 2);
        config.steadyIterations = steady;
        jobs.push_back({"Jacobi", config, "steady"});
    }
    RunConfig other = smokeConfig(ParadigmKind::Um, 2);
    jobs.push_back({"Jacobi", other, "um"});

    const std::vector<SweepOutcome> cold = runSweep(jobs, 2);
    WarmSweepStats stats;
    const std::vector<SweepOutcome> warm = runSweepWarm(jobs, 2, &stats);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_TRUE(cold[i].ok()) << i;
        ASSERT_TRUE(warm[i].ok()) << i;
        EXPECT_EQ(resultToJson(cold[i].result, true),
                  resultToJson(warm[i].result, true))
            << i;
    }

    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.followers, 2u);
    EXPECT_EQ(stats.coldFallbacks, 0u);
    EXPECT_GT(stats.leaderWallSeconds, 0.0);
    EXPECT_GT(stats.followerWallSeconds, 0.0);
}

TEST(WarmSweep, QueueHoldsAtMostOneSnapshotPerWorker)
{
    // Five warm groups of two to four members, interleaved with cold
    // singletons; members differ only in post-profile knobs.
    struct Member
    {
        const char* app;
        ParadigmKind paradigm;
        std::size_t gpus;
        std::size_t steady;
    };
    using P = ParadigmKind;
    const Member grid[] = {
        {"Jacobi", P::Gps, 2, 1},    {"Jacobi", P::Um, 2, 1},
        {"Nbody", P::Gps, 2, 1},     {"Jacobi", P::Memcpy, 2, 1},
        {"Jacobi", P::Gps, 2, 2},    {"Nbody", P::Memcpy, 2, 1},
        {"ALS", P::Gps, 2, 1},       {"Nbody", P::Gps, 2, 2},
        {"Jacobi", P::Gps, 4, 1},    {"Jacobi", P::Memcpy, 2, 2},
        {"ALS", P::Um, 2, 1},        {"ALS", P::Gps, 2, 3},
        {"Jacobi", P::Gps, 4, 3},    {"Nbody", P::Gps, 2, 3},
        {"Jacobi", P::Memcpy, 2, 3}, {"Jacobi", P::Gps, 4, 2},
        {"Jacobi", P::Memcpy, 2, 4},
    };
    std::vector<SweepJob> jobs;
    for (const Member& m : grid) {
        RunConfig config = smokeConfig(m.paradigm, m.gpus);
        config.steadyIterations = m.steady;
        jobs.push_back({m.app, config, std::to_string(jobs.size())});
    }

    const std::vector<SweepOutcome> cold = runSweep(jobs, 2);
    for (const std::size_t workers : {1u, 2u, 4u}) {
        WarmSweepStats stats;
        const std::vector<SweepOutcome> warm =
            runSweepWarm(jobs, workers, &stats);
        ASSERT_EQ(warm.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            ASSERT_TRUE(cold[i].ok()) << i;
            ASSERT_TRUE(warm[i].ok()) << workers << " workers, job " << i;
            EXPECT_EQ(warm[i].label, jobs[i].label);
            EXPECT_EQ(resultToJson(cold[i].result, true),
                      resultToJson(warm[i].result, true))
                << workers << " workers, job " << i;
        }
        EXPECT_EQ(stats.groups, 5u);
        EXPECT_EQ(stats.leaders, 5u);
        EXPECT_EQ(stats.followers, 9u);
        EXPECT_EQ(stats.coldFallbacks, 0u);
        EXPECT_GE(stats.peakSnapshots, 1u);
        EXPECT_LE(stats.peakSnapshots, workers);
        if (workers == 1) {
            EXPECT_EQ(stats.peakSnapshots, 1u);
        }
    }
}

TEST(WarmSweep, CancelledLeaderFailsAloneAndFollowersRunCold)
{
    std::vector<SweepJob> jobs;
    for (const std::size_t steady : {1u, 2u, 3u}) {
        RunConfig config = smokeConfig(ParadigmKind::Gps, 2);
        config.steadyIterations = steady;
        jobs.push_back({"Jacobi", config, "steady"});
    }
    const std::vector<SweepOutcome> cold = runSweep(jobs, 1);
    jobs[0].config.cancel = std::make_shared<CancelToken>();
    jobs[0].config.cancel->cancel();

    WarmSweepStats stats;
    const std::vector<SweepOutcome> out = runSweepWarm(jobs, 2, &stats);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_FALSE(out[0].ok());
    EXPECT_EQ(out[0].errorType, "Cancelled");
    for (std::size_t i = 1; i < 3; ++i) {
        ASSERT_TRUE(out[i].ok()) << out[i].errorText();
        EXPECT_EQ(resultToJson(cold[i].result, true),
                  resultToJson(out[i].result, true))
            << i;
    }
    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.followers, 0u);
    EXPECT_EQ(stats.coldFallbacks, 2u);
    EXPECT_EQ(stats.peakSnapshots, 0u);
}

TEST(WarmSweep, SingletonGroupsRunCold)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"Jacobi", smokeConfig(ParadigmKind::Gps, 2), "a"});
    jobs.push_back({"Nbody", smokeConfig(ParadigmKind::Gps, 2), "b"});
    WarmSweepStats stats;
    const std::vector<SweepOutcome> out = runSweepWarm(jobs, 2, &stats);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[1].ok());
    EXPECT_EQ(stats.groups, 0u);
    EXPECT_EQ(stats.followers, 0u);
}

TEST(WarmSweep, WarmKeyGroupsOnlyProfileRelevantConfig)
{
    const RunConfig base = smokeConfig(ParadigmKind::Gps, 2);
    RunConfig steady = base;
    steady.steadyIterations = 9;
    // Steady-state knobs do not affect the profile-boundary state.
    EXPECT_EQ(warmKey("Jacobi", base), warmKey("Jacobi", steady));
    // GPU count does.
    RunConfig gpus = base;
    gpus.system.numGpus = 4;
    EXPECT_NE(warmKey("Jacobi", base), warmKey("Jacobi", gpus));
    // So does the workload.
    EXPECT_NE(warmKey("Jacobi", base), warmKey("Nbody", base));
}

// ---------------------------------------------------------------------
// Validated numeric parsing (shared by cache caps, --jobs, snapshots).
// ---------------------------------------------------------------------

TEST(EnvParse, ParseSizeTAcceptsOnlyStrictDecimals)
{
    std::size_t out = 99;
    EXPECT_TRUE(parseSizeT("0", out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseSizeT("123", out));
    EXPECT_EQ(out, 123u);

    out = 99;
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                            "99999999999999999999999999"})
        EXPECT_FALSE(parseSizeT(bad, out)) << bad;
    EXPECT_EQ(out, 99u); // failures leave the output untouched
}

TEST(EnvParse, ParseSizeTOrFallsBackOnBadOrOversizedInput)
{
    EXPECT_EQ(parseSizeTOr("7", "knob", 3), 7u);
    EXPECT_EQ(parseSizeTOr("-1", "knob", 3), 3u);
    EXPECT_EQ(parseSizeTOr("garbage", "knob", 3), 3u);
    // strtoul would wrap "-1" to SIZE_MAX; the validated parser must
    // not let an over-max value through either.
    EXPECT_EQ(parseSizeTOr("5000", "knob", 3, 1024), 3u);
    EXPECT_EQ(parseSizeTOr("1024", "knob", 3, 1024), 1024u);
}

TEST(EnvParse, EnvSizeTReadsValidatesAndDefaults)
{
    ::unsetenv("GPS_TEST_ENV_KNOB");
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 5u);
    ::setenv("GPS_TEST_ENV_KNOB", "42", 1);
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 42u);
    ::setenv("GPS_TEST_ENV_KNOB", "-3", 1);
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 5u);
    ::setenv("GPS_TEST_ENV_KNOB", "0", 1);
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 0u);
    ::unsetenv("GPS_TEST_ENV_KNOB");
}

} // namespace
} // namespace gps

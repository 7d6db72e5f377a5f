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
#include "common/env.hh"
#include "gpu/store_coalescer.hh"
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

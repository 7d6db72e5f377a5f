/**
 * @file
 * Versioned, CRC-guarded whole-simulator snapshots.
 *
 * A snapshot freezes one run at a quiescent point (a phase boundary:
 * the clock at the barrier, all write queues flushed by the preceding
 * kernel ends) so it can resume later — in another process, after a
 * crash, or forked into sibling configurations by the warm-started
 * sweep runner — and produce a RunResult byte-identical to the
 * uninterrupted run.
 *
 * File layout:
 *   "GPSSNAP\0"  8-byte magic
 *   u32          format version (snapshotVersion)
 *   u32          CRC-32 of the body
 *   u64          body length in bytes
 *   body         Serializer-encoded sections (meta, progress, clock,
 *                machine state, functional summary)
 *
 * Every restore is verified before the run resumes: the functional
 * summary (per-page driver state, frame accounting, GPS queue and table
 * occupancy) captured at save time is rebuilt from the restored live
 * structures and byte-compared, then the structural invariant suite
 * from src/check/ runs. A snapshot that fails either check is rejected
 * with SnapshotError — never half-restored.
 */

#ifndef GPS_SNAPSHOT_SNAPSHOT_HH
#define GPS_SNAPSHOT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"
#include "gpu/kernel_counters.hh"
#include "snapshot/serial.hh"

namespace gps
{
class MultiGpuSystem;
class Paradigm;
class FaultEngine;
} // namespace gps

namespace gps::snapshot
{

inline constexpr std::uint32_t snapshotVersion = 3;

/** Where in a run a snapshot is (or was) taken. */
enum class AtKind : std::uint8_t {
    None,    ///< no capture requested
    Iter,    ///< top of iteration N (end of iteration N-1)
    Phase,   ///< after the N-th executed phase, counted globally
    Profile, ///< end of iteration 0's phases, before cuGPSTrackingStop
};

/** Parsed --snapshot-at specification. */
struct SnapshotPoint
{
    AtKind kind = AtKind::None;
    std::uint64_t n = 0;

    bool active() const { return kind != AtKind::None; }
};

/**
 * Parse "iter:N", "phase:N" (N >= 1) or "profile".
 * @return false on malformed input, leaving @p out untouched
 */
bool parseSnapshotPoint(const std::string& text, SnapshotPoint& out);

/** Render a point back to its --snapshot-at spelling. */
std::string to_string(const SnapshotPoint& point);

/** Identity echo: what run this snapshot belongs to. */
struct SnapshotMeta
{
    std::string workload;
    std::uint8_t paradigm = 0; ///< ParadigmKind as integer
    std::uint32_t numGpus = 0;
    std::uint64_t pageBytes = 0;
    double scale = 1.0;

    /**
     * Warm-sweep state key (see warmKey in api/sweep.hh): every config
     * field that influenced the captured state. Informational for
     * file snapshots; the sweep forker uses it as a sanity check.
     */
    std::string stateKey;
};

/** Runner-loop position and accumulators at the capture point. */
struct RunnerProgress
{
    std::uint64_t resumeIter = 0;  ///< iteration to resume in
    std::uint64_t resumePhase = 0; ///< phase index to resume at
    std::uint64_t globalPhases = 0;

    /** Current iteration's start tick / wire bytes (mid-iteration). */
    Tick tBefore = 0;
    std::uint64_t bBefore = 0;

    KernelCounters totals;
    std::vector<Tick> iterTime;
    std::vector<std::uint64_t> iterBytes;

    bool hasSubscriberHist = false;
    std::vector<std::uint64_t> histBuckets;

    /**
     * Serialized Observability collector state (sampler series,
     * timeline, causal graph) when the captured run had observability
     * on; empty otherwise.
     */
    bool hasObs = false;
    std::string obsState;
};

/** Decoded, CRC-verified snapshot, not yet applied to a system. */
struct Snapshot
{
    SnapshotMeta meta;
    RunnerProgress progress;

    /** The snapshot file bytes (header + body), shared, not copied. */
    std::shared_ptr<const std::string> file;

    /** Where the body starts in *file. */
    std::size_t bodyOffset = 0;

    /** The body; applyState() re-walks it section by section. */
    std::string_view
    body() const
    {
        return std::string_view(*file).substr(bodyOffset);
    }
};

/**
 * Encode the current quiescent state of @p system / @p paradigm /
 * @p faults (nullptr when no fault engine is active) into complete
 * snapshot file bytes (header + body), built in one buffer.
 */
std::string encodeSnapshot(MultiGpuSystem& system,
                           const Paradigm& paradigm,
                           const FaultEngine* faults,
                           const SnapshotMeta& meta,
                           const RunnerProgress& progress);

/**
 * Validate the header (magic, version, length, CRC) and decode the
 * meta and progress sections; the result keeps @p file for its body.
 * @throws SnapshotError on any truncation, corruption or version skew
 */
Snapshot decodeSnapshot(std::shared_ptr<const std::string> file);

/** Read and decode a snapshot file. @throws SnapshotError */
Snapshot readSnapshotFile(const std::string& path);

/**
 * Atomically publish @p bytes at @p path: unique temp file, fwrite,
 * fflush, fsync, rename. A crash mid-write leaves at most a temp file,
 * never a torn snapshot under the final name.
 * @throws SnapshotError when any step fails
 */
void writeSnapshotFile(const std::string& path, const std::string& bytes);

/**
 * Deterministic text rendering of the functionally relevant live state:
 * every driver page record, per-GPU frame accounting, and (under GPS)
 * write-queue occupancy and page-table residency. Captured into the
 * snapshot and rebuilt at restore for byte comparison.
 */
std::string buildSummary(MultiGpuSystem& system, const Paradigm& paradigm);

/**
 * Overwrite a freshly constructed and set-up system with the machine
 * state in @p snap, then verify: the stored functional summary must
 * byte-match the restored live state, and the structural invariant
 * suite must pass.
 * @param faults the run's fault engine, or nullptr; presence must
 *               match the snapshot
 * @param mutateForTest perturb one page's driver state after the
 *        restore so verification must fail (divergence-detection tests)
 * @throws SnapshotError on any mismatch, leaving the run unstarted
 */
void applyState(const Snapshot& snap, MultiGpuSystem& system,
                Paradigm& paradigm, FaultEngine* faults,
                bool mutateForTest = false);

} // namespace gps::snapshot

#endif // GPS_SNAPSHOT_SNAPSHOT_HH

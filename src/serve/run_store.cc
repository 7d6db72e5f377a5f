#include "serve/run_store.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/logging.hh"

namespace gps
{

namespace
{

/**
 * Bumped whenever a stored payload would differ from a fresh run's;
 * older entries are then quarantined and recomputed. 2: the stat dump
 * lists every registered metric.
 */
constexpr std::uint32_t storeVersion = 2;
constexpr const char* tempInfix = ".tmp.";
constexpr const char* quarantineSuffix = ".quarantined";

/** FNV-1a 64-bit over the key bytes; the entry's file name. */
std::uint64_t
fnv1a64(const std::string& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Entry checksum: key + '\n' + payload. */
std::uint32_t
entryCrc(const std::string& key, const std::string& payload)
{
    std::uint32_t crc = crc32Update(0, key.data(), key.size());
    crc = crc32Update(crc, "\n", 1);
    return crc32Update(crc, payload.data(), payload.size());
}

bool
fsyncFd(int fd)
{
    return ::fsync(fd) == 0;
}

} // namespace

RunStore::RunStore(std::string dir)
    : dir_(std::move(dir))
{
    gps_assert(!dir_.empty(), "run store directory must be non-empty");
    if (::mkdir(dir_.c_str(), 0777) != 0 && errno != EEXIST)
        gps_fatal("cannot create run store directory '", dir_, "': ",
                  std::strerror(errno));

    // Probe writability up front so a read-only mount fails at startup,
    // not on the first publish hours later.
    const std::string probe = dir_ + "/.probe";
    if (std::FILE* f = std::fopen(probe.c_str(), "w")) {
        std::fclose(f);
        ::unlink(probe.c_str());
    } else {
        gps_fatal("run store directory '", dir_, "' is not writable: ",
                  std::strerror(errno));
    }

    // Sweep temp files orphaned by writers that died mid-publish. They
    // were never renamed into place, so deleting them cannot lose a
    // published entry.
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr)
        gps_fatal("cannot open run store directory '", dir_, "': ",
                  std::strerror(errno));
    std::uint64_t swept = 0;
    while (const dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name.find(tempInfix) == std::string::npos)
            continue;
        const std::string path = dir_ + '/' + name;
        if (::unlink(path.c_str()) == 0)
            ++swept;
    }
    ::closedir(d);
    if (swept > 0)
        gps_warn("run store '", dir_, "': swept ", swept,
                 " temp file(s) from interrupted writes");
    const std::lock_guard<std::mutex> lock(mu_);
    stats_.tempsSwept = swept;
}

std::string
RunStore::entryName(const std::string& key)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 ".gpsrun",
                  fnv1a64(key));
    return buf;
}

std::string
RunStore::entryPath(const std::string& key) const
{
    return dir_ + '/' + entryName(key);
}

std::optional<std::string>
RunStore::lookup(const std::string& key)
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.lookups;
    }
    const std::string path = entryPath(key);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return std::nullopt; // plain miss

    // Header line: magic, version, crc, key length, payload length.
    char magic[16] = {};
    unsigned version = 0;
    unsigned long crc_stored = 0;
    unsigned long long key_len = 0, payload_len = 0;
    const int got = std::fscanf(f, "%15s %u %lx %llu %llu", magic,
                                &version, &crc_stored, &key_len,
                                &payload_len);
    if (got != 5 || std::strcmp(magic, "GPSSTORE") != 0 ||
        version != storeVersion || std::fgetc(f) != '\n' ||
        key_len > (64u << 20) || payload_len > (256u << 20)) {
        std::fclose(f);
        quarantine(path);
        return std::nullopt;
    }

    std::string stored_key(key_len, '\0');
    std::string payload(payload_len, '\0');
    const bool body_ok =
        (key_len == 0 ||
         std::fread(stored_key.data(), 1, key_len, f) == key_len) &&
        std::fgetc(f) == '\n' &&
        (payload_len == 0 ||
         std::fread(payload.data(), 1, payload_len, f) == payload_len) &&
        std::fgetc(f) == EOF; // trailing junk is corruption too
    std::fclose(f);

    if (!body_ok || entryCrc(stored_key, payload) != crc_stored) {
        quarantine(path);
        return std::nullopt;
    }
    if (stored_key != key) {
        // Hash collision: a different key owns this file name. Treat
        // as a miss; the recompute will overwrite (last writer wins).
        gps_warn("run store '", dir_, "': key hash collision on ",
                 entryName(key));
        return std::nullopt;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    return payload;
}

void
RunStore::publish(const std::string& key, const std::string& payload)
{
    const std::string path = entryPath(key);
    std::uint64_t seq = 0;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        seq = ++tempSeq_;
    }
    // Unique temp name per process and publish, so concurrent writers
    // of the same key never scribble on each other's temp file.
    const std::string tmp = path + tempInfix +
                            std::to_string(::getpid()) + '.' +
                            std::to_string(seq);

    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        gps_warn("run store: cannot create '", tmp,
                 "': ", std::strerror(errno));
        return;
    }
    char header[96];
    const int header_len = std::snprintf(
        header, sizeof(header), "GPSSTORE %u %08x %zu %zu\n",
        storeVersion, entryCrc(key, payload), key.size(),
        payload.size());
    bool ok = header_len > 0 &&
              std::fwrite(header, 1, static_cast<std::size_t>(header_len),
                          f) == static_cast<std::size_t>(header_len) &&
              std::fwrite(key.data(), 1, key.size(), f) == key.size() &&
              std::fputc('\n', f) == '\n' &&
              std::fwrite(payload.data(), 1, payload.size(), f) ==
                  payload.size();
    // Flush user-space buffers, then push the bytes to the device
    // before the rename makes the entry visible: rename-before-data
    // could publish a torn entry after a power cut.
    ok = ok && std::fflush(f) == 0 && fsyncFd(::fileno(f));
    if (std::fclose(f) != 0)
        ok = false;
    if (!ok) {
        gps_warn("run store: write to '", tmp, "' failed: ",
                 std::strerror(errno));
        ::unlink(tmp.c_str());
        return;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        gps_warn("run store: cannot publish '", path,
                 "': ", std::strerror(errno));
        ::unlink(tmp.c_str());
        return;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.publishes;
}

void
RunStore::flush()
{
    const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    fsyncFd(fd);
    ::close(fd);
}

void
RunStore::quarantine(const std::string& path)
{
    {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.quarantined;
    }
    // Claim the first free aside slot with a no-replace link().
    // rename() silently replaces its target, so a recycled pid (or a
    // restarted process re-using the same sequence numbers) could
    // overwrite the forensic copy of an earlier corruption. link()
    // fails with EEXIST instead, and the loop probes the next slot, so
    // every quarantined generation of an entry is preserved.
    constexpr unsigned maxAsides = 10000;
    for (unsigned n = 0; n < maxAsides; ++n) {
        const std::string aside =
            path + quarantineSuffix + '.' + std::to_string(n);
        if (::link(path.c_str(), aside.c_str()) == 0) {
            if (::unlink(path.c_str()) != 0 && errno != ENOENT)
                gps_warn("run store: cannot remove quarantined '", path,
                         "': ", std::strerror(errno));
            gps_warn("run store: quarantined corrupt entry '", path,
                     "' -> '", aside, "'");
            return;
        }
        if (errno == EEXIST)
            continue; // slot taken by an earlier quarantine
        if (errno != ENOENT) // a concurrent reader may have moved it
            gps_warn("run store: cannot quarantine '", path,
                     "': ", std::strerror(errno));
        return;
    }
    gps_warn("run store: ", maxAsides, " quarantined copies of '", path,
             "' already exist; leaving it in place");
}

RunStoreStats
RunStore::stats() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace gps

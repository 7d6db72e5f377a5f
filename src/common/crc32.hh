/**
 * @file
 * IEEE CRC32 (the zlib polynomial), slice-by-8, shared by every
 * subsystem that checksums on-disk bytes: the binary trace format
 * (src/trace), GPSSNAP snapshots (src/snapshot) and the
 * content-addressed run store (src/serve).
 */

#ifndef GPS_COMMON_CRC32_HH
#define GPS_COMMON_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gps
{

/**
 * Fold @p len bytes at @p data into a running CRC32.
 * Start from 0; feed chunks in order to checksum a byte stream.
 */
std::uint32_t crc32Update(std::uint32_t crc, const void* data,
                          std::size_t len);

/** One-shot CRC32 of a byte string. */
inline std::uint32_t
crc32Of(std::string_view bytes)
{
    return crc32Update(0, bytes.data(), bytes.size());
}

} // namespace gps

#endif // GPS_COMMON_CRC32_HH

#include "common/crc32.hh"

#include <array>

namespace gps
{

namespace
{

/**
 * Slice-by-8 tables: row 0 is the byte-at-a-time table of the reflected
 * polynomial; row k advances a byte's contribution through k more zero
 * bytes, so eight table reads fold eight input bytes at once.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables&
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k) {
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
        }
        return t;
    }();
    return tables;
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void* data, std::size_t len)
{
    const auto* bytes = static_cast<const unsigned char*>(data);
    const CrcTables& t = crcTables();
    crc ^= 0xffffffffu;
    for (; len >= 8; len -= 8, bytes += 8) {
        crc ^= static_cast<std::uint32_t>(bytes[0]) |
               static_cast<std::uint32_t>(bytes[1]) << 8 |
               static_cast<std::uint32_t>(bytes[2]) << 16 |
               static_cast<std::uint32_t>(bytes[3]) << 24;
        crc = t[7][crc & 0xffu] ^ t[6][(crc >> 8) & 0xffu] ^
              t[5][(crc >> 16) & 0xffu] ^ t[4][crc >> 24] ^
              t[3][bytes[4]] ^ t[2][bytes[5]] ^ t[1][bytes[6]] ^
              t[0][bytes[7]];
    }
    for (; len > 0; --len, ++bytes)
        crc = t[0][(crc ^ *bytes) & 0xffu] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

} // namespace gps

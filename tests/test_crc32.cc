/**
 * @file
 * CRC-32 (zlib polynomial): the standard check value, and the
 * slice-by-8 implementation against a byte-at-a-time reference over
 * random lengths, alignments and chunked updates.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/rng.hh"

namespace gps
{
namespace
{

/** Byte-at-a-time reference that steps each byte's eight bits directly
 *  instead of through a table. */
std::uint32_t
referenceCrc(std::uint32_t crc, const unsigned char* data, std::size_t len)
{
    crc ^= 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswer)
{
    EXPECT_EQ(crc32Of("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32Of(""), 0u);
}

TEST(Crc32, MatchesByteAtATimeReference)
{
    Rng rng(2021);
    std::vector<unsigned char> buf(4096 + 16);
    for (unsigned char& b : buf)
        b = static_cast<unsigned char>(rng.next());
    for (int trial = 0; trial < 2000; ++trial) {
        // Odd offsets and lengths exercise every head/tail split.
        const std::size_t offset = rng.below(16);
        const std::size_t len = rng.below(trial < 200 ? 40 : 4096);
        const unsigned char* data = buf.data() + offset;
        const std::uint32_t want = referenceCrc(0, data, len);
        ASSERT_EQ(crc32Update(0, data, len), want)
            << "offset " << offset << " len " << len;

        // Feeding the same bytes in random chunks gives the same CRC.
        std::uint32_t crc = 0;
        std::size_t done = 0;
        while (done < len) {
            const std::size_t chunk = 1 + rng.below(len - done);
            crc = crc32Update(crc, data + done, chunk);
            done += chunk;
        }
        ASSERT_EQ(crc, want) << "offset " << offset << " len " << len;
    }
}

} // namespace
} // namespace gps

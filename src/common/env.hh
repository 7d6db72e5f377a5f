/**
 * @file
 * Validated parsing of numeric knobs from the environment and CLI.
 *
 * Several tuning knobs (cache capacities, sweep worker counts) and the
 * command-line tools' numeric flags arrive as untrusted text. Routing
 * them through strtoul directly lets garbage silently become 0 and
 * negatives wrap to huge values; every caller shares these helpers
 * instead, so a bad knob warns once and keeps the documented default
 * and a bad flag is fatal.
 */

#ifndef GPS_COMMON_ENV_HH
#define GPS_COMMON_ENV_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace gps
{

/**
 * Strict full-string parse of a non-negative decimal integer.
 * Rejects empty strings, signs, leading/trailing junk, and values
 * that do not fit in std::size_t.
 * @return true and set @p out on success.
 */
bool parseSizeT(const std::string& text, std::size_t& out);

/**
 * Parse @p text as a non-negative integer no greater than @p max.
 * On any parse failure or out-of-range value, warn (naming @p what)
 * and return @p fallback unchanged.
 */
std::size_t parseSizeTOr(const std::string& text, const char* what,
                         std::size_t fallback,
                         std::size_t max = static_cast<std::size_t>(-1));

/**
 * Read the environment variable @p name as a non-negative integer in
 * [0, max]. Unset returns @p fallback silently; set-but-invalid warns
 * and returns @p fallback.
 */
std::size_t envSizeT(const char* name, std::size_t fallback,
                     std::size_t max = static_cast<std::size_t>(-1));

/**
 * Parse the value of command-line @p flag as a non-negative integer no
 * greater than @p max (parseSizeT's grammar). Fatal, naming the flag,
 * on anything else, so a sign, junk or an overflow never becomes a
 * wrapped or truncated count.
 */
std::uint64_t
parseUnsigned(const char* flag, const std::string& text,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse the value of command-line @p flag as a double spanning the
 * whole text; fatal, naming the flag, otherwise. Range checks (NaN,
 * infinities) are the caller's.
 */
double parseFloat(const char* flag, const std::string& text);

} // namespace gps

#endif // GPS_COMMON_ENV_HH

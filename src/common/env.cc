#include "common/env.hh"

#include <cctype>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "common/logging.hh"

namespace gps
{

bool
parseSizeT(const std::string& text, std::size_t& out)
{
    if (text.empty())
        return false;
    std::size_t value = 0;
    constexpr std::size_t cap = std::numeric_limits<std::size_t>::max();
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::size_t digit = static_cast<std::size_t>(c - '0');
        if (value > cap / 10 || value * 10 > cap - digit)
            return false; // overflow
        value = value * 10 + digit;
    }
    out = value;
    return true;
}

std::size_t
parseSizeTOr(const std::string& text, const char* what,
             std::size_t fallback, std::size_t max)
{
    std::size_t value = 0;
    if (!parseSizeT(text, value)) {
        gps_warn("invalid ", what, " '", text,
                 "' (want a non-negative integer); keeping ", fallback);
        return fallback;
    }
    if (value > max) {
        gps_warn(what, " ", value, " exceeds the maximum ", max,
                 "; keeping ", fallback);
        return fallback;
    }
    return value;
}

std::size_t
envSizeT(const char* name, std::size_t fallback, std::size_t max)
{
    const char* env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    return parseSizeTOr(env, name, fallback, max);
}

std::uint64_t
parseUnsigned(const char* flag, const std::string& text, std::uint64_t max)
{
    std::size_t value = 0;
    if (!parseSizeT(text, value))
        gps_fatal("invalid numeric value '", text, "' for ", flag);
    if (value > max)
        gps_fatal(flag, " ", value, " exceeds the maximum ", max);
    return value;
}

double
parseFloat(const char* flag, const std::string& text)
{
    std::size_t consumed = 0;
    double value = 0.0;
    try {
        value = std::stod(text, &consumed);
    } catch (const std::exception&) {
        consumed = 0;
    }
    if (consumed == 0 || consumed != text.size())
        gps_fatal("invalid numeric value '", text, "' for ", flag);
    return value;
}

} // namespace gps

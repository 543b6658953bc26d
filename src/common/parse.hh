/**
 * @file
 * Strict numeric parsing for command-line values and environment
 * variables, shared by the bench drivers and the examples. Unlike
 * std::atoi/std::atof, each parser rejects malformed input instead of
 * reading it as 0.
 */

#ifndef SPP_COMMON_PARSE_HH
#define SPP_COMMON_PARSE_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/logging.hh"

namespace spp {

/**
 * Strictly parse @p text as a base-10 unsigned integer in
 * [@p lo, @p hi]; fatal (naming @p flag) on empty input, any
 * non-digit — including a sign, so "-1" is rejected instead of
 * wrapping to a huge unsigned — overflow, or an out-of-range value.
 */
inline std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t lo,
              std::uint64_t hi)
{
    bool digits = text != nullptr && *text != '\0';
    for (const char *p = text; digits && *p != '\0'; ++p)
        digits = *p >= '0' && *p <= '9';
    if (!digits)
        SPP_FATAL("{} expects an unsigned integer, got '{}'", flag,
                  text ? text : "");
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || value < lo || value > hi)
        SPP_FATAL("{} must be in [{}, {}], got '{}'", flag, lo, hi,
                  text);
    return value;
}

/**
 * Strictly parse @p text as a finite number; fatal (naming @p flag)
 * on empty input, trailing characters, nan, inf or overflow. Range
 * checks are left to the caller.
 */
inline double
parseDouble(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double value = text != nullptr ? std::strtod(text, &end) : 0.0;
    if (end == text || *end != '\0' || errno != 0 ||
        !std::isfinite(value))
        SPP_FATAL("{} expects a finite number, got '{}'", flag,
                  text ? text : "");
    return value;
}

/**
 * Strictly parse @p text as a finite number > 0; fatal (naming
 * @p flag) on empty input, trailing characters, nan, inf, overflow
 * or a value <= 0.
 */
inline double
parsePositiveDouble(const char *flag, const char *text)
{
    const double value = parseDouble(flag, text);
    if (!(value > 0.0))
        SPP_FATAL("{} expects a finite number > 0, got '{}'", flag,
                  text);
    return value;
}

} // namespace spp

#endif // SPP_COMMON_PARSE_HH

#include "common/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>

namespace bingo
{

namespace
{

/** The knob's value, or nullptr when unset or empty. */
const char *
envValue(const char *name)
{
    const char *value = std::getenv(name);
    return value == nullptr || *value == '\0' ? nullptr : value;
}

[[noreturn]] void
malformed(const char *name, const char *value, const char *expected)
{
    throw std::invalid_argument(std::string(name) + "=\"" + value +
                                "\" is not " + expected);
}

/**
 * Knob `name` as a finite number in [lo, hi]: `fallback` when unset or
 * empty; throws naming `expected` otherwise.
 */
double
envDouble(const char *name, double fallback, double lo, double hi,
          const char *expected)
{
    const char *value = envValue(name);
    if (value == nullptr)
        return fallback;
    const std::string_view text(value);
    double parsed = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (ec != std::errc{} || ptr != text.data() + text.size() ||
        !std::isfinite(parsed) || parsed < lo || parsed > hi)
        malformed(name, value, expected);
    return parsed;
}

} // namespace

bool
parseU64(std::string_view text, std::uint64_t &out)
{
    std::uint64_t parsed = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    if (text.empty() || ec != std::errc{} || ptr != end)
        return false;
    out = parsed;
    return true;
}

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = envValue(name);
    if (value == nullptr)
        return fallback;
    std::uint64_t parsed = 0;
    if (!parseU64(value, parsed))
        malformed(name, value, "an unsigned decimal integer");
    return parsed;
}

double
envSeconds(const char *name, double fallback)
{
    return envDouble(name, fallback, 0.0, HUGE_VAL,
                     "a non-negative number of seconds");
}

double
envFraction(const char *name, double fallback)
{
    return envDouble(name, fallback, 0.0, 1.0,
                     "a fraction in [0, 1]");
}

} // namespace bingo

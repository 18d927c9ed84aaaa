/**
 * @file
 * Strict parsing of the numeric BINGO_* environment knobs. A knob is
 * either unset or empty — the caller's default applies — or a whole
 * number. Anything else (`5e4` for an integer, `abc`, `-3`, trailing
 * junk, overflow) throws std::invalid_argument naming the knob and its
 * value, so a typo stops the run instead of silently running a
 * different experiment.
 */

#ifndef BINGO_COMMON_ENV_HPP
#define BINGO_COMMON_ENV_HPP

#include <cstdint>
#include <string_view>

namespace bingo
{

/**
 * Parse all of `text` as an unsigned decimal integer. False — `out`
 * untouched — for an empty string, a sign, an exponent, trailing
 * characters, or a value beyond 2^64-1.
 */
bool parseU64(std::string_view text, std::uint64_t &out);

/**
 * Unsigned integer knob `name`: `fallback` when unset or empty,
 * otherwise parseU64 of the whole value. Throws std::invalid_argument
 * when the value is malformed.
 */
std::uint64_t envU64(const char *name, std::uint64_t fallback);

/**
 * Duration knob `name` in seconds (fractions allowed, e.g. `0.5`):
 * `fallback` when unset or empty. Throws std::invalid_argument when
 * the value is not a whole finite number or is negative.
 */
double envSeconds(const char *name, double fallback);

/**
 * Fraction knob `name` (e.g. `0.15`): `fallback` when unset or empty.
 * Throws std::invalid_argument when the value is not a whole number
 * within [0, 1].
 */
double envFraction(const char *name, double fallback);

} // namespace bingo

#endif // BINGO_COMMON_ENV_HPP

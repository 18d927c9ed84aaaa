/**
 * @file
 * Runtime-dispatched SIMD kernels for the simulator's hot structures.
 *
 * Every kernel here is a bit-exact drop-in for its scalar reference
 * loop: the scalar implementation is the oracle, and the vector paths
 * must produce identical results for every input (the determinism
 * tests enforce this across whole simulations). Dispatch picks the
 * widest supported level once at startup; `BINGO_NO_SIMD=1` forces the
 * scalar oracle and setLevel() lets tests/benches pin a level
 * explicitly.
 *
 * The kernels are the 64-bit equality scans behind cache way tags,
 * set-associative table tags and MSHR block keys: findEqual64 /
 * equalMask64. The footprint vote (FootprintVote) is a plain loop
 * over at most 64 block counters and needs no kernel.
 *
 * Dispatch is deliberately inline: call sites scan 8-16 way sets, so
 * an outlined dispatcher would cost as much as the scan itself. Each
 * public function reads one relaxed atomic flag and either runs the
 * scalar loop in place (fully inlinable, identical to the pre-SIMD
 * code) or tail-calls the outlined AVX2 kernel.
 */

#ifndef BINGO_COMMON_SIMD_HPP
#define BINGO_COMMON_SIMD_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define BINGO_SIMD_X86 1
#endif

namespace bingo::simd
{

/** Dispatch level, ordered by width. */
enum class Level
{
    Scalar = 0,
    Avx2 = 1,
};

/** Returned by findEqual64 when no element matches. */
inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/** Widest level this CPU supports (ignores overrides). */
Level detectedLevel();

/**
 * Level in use: detectedLevel() unless BINGO_NO_SIMD forced scalar or
 * setLevel() pinned one.
 */
Level activeLevel();

/**
 * Pin the dispatch level (tests/benches). Requests above
 * detectedLevel() are clamped to it.
 */
void setLevel(Level level);

/** Human-readable level name ("scalar", "avx2"). */
const char *levelName(Level level);

namespace detail
{

/**
 * The dispatch bit every inline wrapper checks. Written only by
 * startup detection and setLevel() (tests/benches, single-threaded);
 * sweep worker threads just read it, so relaxed ordering suffices.
 */
extern std::atomic<bool> g_avx2;

#ifdef BINGO_SIMD_X86
std::size_t findEqual64Avx2(const std::uint64_t *values,
                            std::size_t count, std::uint64_t key);
std::uint64_t equalMask64Avx2(const std::uint64_t *values,
                              std::size_t count, std::uint64_t key);
#endif

inline bool
useAvx2()
{
#ifdef BINGO_SIMD_X86
    return g_avx2.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

} // namespace detail

/**
 * Index of the first element of `values[0, count)` equal to `key`, or
 * kNpos. Matches the scalar forward scan exactly (first match wins).
 */
inline std::size_t
findEqual64(const std::uint64_t *values, std::size_t count,
            std::uint64_t key)
{
#ifdef BINGO_SIMD_X86
    if (detail::useAvx2())
        return detail::findEqual64Avx2(values, count, key);
#endif
    for (std::size_t i = 0; i < count; ++i) {
        if (values[i] == key)
            return i;
    }
    return kNpos;
}

/**
 * Bitmask of elements equal to `key`, bit i = values[i]. `count` must
 * be <= 64.
 */
inline std::uint64_t
equalMask64(const std::uint64_t *values, std::size_t count,
            std::uint64_t key)
{
#ifdef BINGO_SIMD_X86
    if (detail::useAvx2())
        return detail::equalMask64Avx2(values, count, key);
#endif
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < count; ++i) {
        if (values[i] == key)
            mask |= 1ULL << i;
    }
    return mask;
}

} // namespace bingo::simd

#endif // BINGO_COMMON_SIMD_HPP

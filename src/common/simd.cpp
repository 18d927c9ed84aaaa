#include "common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>

#ifdef BINGO_SIMD_X86
#include <immintrin.h>
#endif

namespace bingo::simd
{

namespace
{

Level
detectLevel()
{
#ifdef BINGO_SIMD_X86
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

/** Whether BINGO_NO_SIMD forces the scalar oracle ("" and "0" = no). */
bool
simdDisabledByEnv()
{
    const char *value = std::getenv("BINGO_NO_SIMD");
    return value != nullptr && *value != '\0' &&
           !(value[0] == '0' && value[1] == '\0');
}

Level
startupLevel()
{
    return simdDisabledByEnv() ? Level::Scalar : detectLevel();
}

std::atomic<Level> g_level{startupLevel()};

} // namespace

namespace detail
{

std::atomic<bool> g_avx2{startupLevel() == Level::Avx2};

#ifdef BINGO_SIMD_X86

/*
 * AVX2 kernels, compiled with a per-function target attribute so no
 * special build flags are needed and the rest of the TU stays at the
 * baseline ISA. Only reached after __builtin_cpu_supports("avx2").
 * Each must agree bit-for-bit with the inline scalar loop in
 * simd.hpp — those loops are the oracle the determinism tests compare
 * against.
 */

__attribute__((target("avx2"))) std::uint64_t
equalMask64Avx2(const std::uint64_t *values, std::size_t count,
                std::uint64_t key)
{
    const __m256i vkey =
        _mm256_set1_epi64x(static_cast<long long>(key));
    std::uint64_t mask = 0;
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(values + i));
        const __m256i eq = _mm256_cmpeq_epi64(v, vkey);
        const unsigned m = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        mask |= static_cast<std::uint64_t>(m) << i;
    }
    for (; i < count; ++i) {
        if (values[i] == key)
            mask |= 1ULL << i;
    }
    return mask;
}

__attribute__((target("avx2"))) std::size_t
findEqual64Avx2(const std::uint64_t *values, std::size_t count,
                std::uint64_t key)
{
    const __m256i vkey =
        _mm256_set1_epi64x(static_cast<long long>(key));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(values + i));
        const __m256i eq = _mm256_cmpeq_epi64(v, vkey);
        const unsigned m = static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        if (m != 0)
            return i + static_cast<std::size_t>(std::countr_zero(m));
    }
    for (; i < count; ++i) {
        if (values[i] == key)
            return i;
    }
    return kNpos;
}

#endif // BINGO_SIMD_X86

} // namespace detail

Level
detectedLevel()
{
    static const Level level = detectLevel();
    return level;
}

Level
activeLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLevel(Level level)
{
    if (level > detectedLevel())
        level = detectedLevel();
    g_level.store(level, std::memory_order_relaxed);
    detail::g_avx2.store(level == Level::Avx2,
                         std::memory_order_relaxed);
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Scalar: return "scalar";
      case Level::Avx2: return "avx2";
    }
    return "unknown";
}

} // namespace bingo::simd

/**
 * @file
 * SIMD kernel equivalence tests: every vector kernel must be a
 * bit-exact drop-in for its scalar oracle on arbitrary inputs —
 * including the awkward ones (empty ranges, single elements, counts
 * that don't fill a vector register). The
 * whole-simulation identity checks live in test_determinism.cpp;
 * these pin down the kernels in isolation so a mismatch there points
 * at the guilty primitive.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/footprint.hpp"
#include "common/simd.hpp"

namespace bingo
{
namespace
{

/** Pin a dispatch level for the current scope, restoring on exit. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(simd::Level level)
        : saved_(simd::activeLevel())
    {
        simd::setLevel(level);
    }
    ~ScopedLevel() { simd::setLevel(saved_); }

  private:
    simd::Level saved_;
};

TEST(Simd, LevelControls)
{
    const simd::Level detected = simd::detectedLevel();
    {
        ScopedLevel scalar(simd::Level::Scalar);
        EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    }
    {
        // Requests are clamped to what the CPU supports.
        ScopedLevel widest(simd::Level::Avx2);
        EXPECT_LE(static_cast<int>(simd::activeLevel()),
                  static_cast<int>(detected));
    }
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

/** Scalar reference for findEqual64: forward scan, first match. */
std::size_t
refFind(const std::vector<std::uint64_t> &values, std::uint64_t key)
{
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (values[i] == key)
            return i;
    }
    return simd::kNpos;
}

TEST(Simd, FindEqual64MatchesScalarOnRandomInputs)
{
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "no vector unit detected";
    std::mt19937_64 rng(12345);
    for (int trial = 0; trial < 2000; ++trial) {
        // Small alphabet so matches (including duplicates) are common;
        // sizes sweep through every vector-tail shape.
        const std::size_t n = trial % 70;
        std::vector<std::uint64_t> values(n);
        for (auto &v : values)
            v = rng() % 8;
        const std::uint64_t key = rng() % 10;
        ScopedLevel vec(simd::detectedLevel());
        const std::size_t got =
            simd::findEqual64(values.data(), n, key);
        EXPECT_EQ(got, refFind(values, key)) << "n=" << n;
    }
}

TEST(Simd, EqualMask64MatchesScalarOnRandomInputs)
{
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "no vector unit detected";
    std::mt19937_64 rng(777);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t n = trial % 65;  // Full [0, 64] range.
        std::vector<std::uint64_t> values(n);
        std::uint64_t want = 0;
        const std::uint64_t key = rng() % 6;
        for (std::size_t i = 0; i < n; ++i) {
            values[i] = rng() % 6;
            if (values[i] == key)
                want |= std::uint64_t{1} << i;
        }
        ScopedLevel vec(simd::detectedLevel());
        EXPECT_EQ(simd::equalMask64(values.data(), n, key), want)
            << "n=" << n;
    }
}

/** FootprintVote's scalar tally and threshold cut are exact. */
TEST(Simd, FootprintVoteThresholdExact)
{
    FootprintVote vote(8);
    // Three voters; blocks 0 and 3 get 3 votes, block 5 gets 1.
    vote.add(Footprint::fromRaw(0b00101001, 8));
    vote.add(Footprint::fromRaw(0b00001001, 8));
    vote.add(Footprint::fromRaw(0b00001001, 8));
    // Threshold 2/3 → min_votes = 2: blocks 0 and 3 survive.
    const Footprint cut = vote.resolve(0.66);
    EXPECT_EQ(cut.raw(), 0b00001001u);
}

} // namespace
} // namespace bingo

/**
 * @file
 * Golden-model oracle for the cache: a slow, obviously correct
 * set-associative cache (a std::list recency order per set for LRU, a
 * plain per-way RRPV vector for SRRIP) runs in lockstep with Cache on
 * seeded random load/store/prefetch streams. After every batch the two
 * must agree on each access's hit or miss, the blocks evicted, the
 * writebacks, and the useful/useless prefetch counts.
 *
 * A batch issues a few operations in one cycle and then drains every
 * fill, so requests to a block already in flight merge into its MSHR
 * (demand after prefetch is a late useful prefetch; a prefetch of an
 * in-flight block is dropped), and fills land in issue order.
 */

#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using test::FakeLower;

/** One resident block of the reference model. */
struct RefLine
{
    Addr block = 0;
    bool dirty = false;
    bool prefetched = false;  ///< Filled by prefetch, not demanded yet.
    unsigned rrpv = 2;        ///< SRRIP only.
};

/** A miss the reference model has issued and not yet filled. */
struct RefMiss
{
    Addr block = 0;
    bool prefetch_origin = false;
    bool demand_merged = false;
    bool store_merged = false;
};

/** The reference cache: LRU or SRRIP, no MSHR limit, no timing. */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), sets_(config.numSets()),
          lru_(config.numSets()),
          rrip_(config.numSets(),
                std::vector<std::optional<RefLine>>(config.ways))
    {
    }

    /** Demand access; true on a hit. */
    bool
    access(Addr block, bool store)
    {
        if (RefLine *line = find(block)) {
            if (lru())
                touchLru(block);  // splice() keeps `line` valid.
            else
                line->rrpv = 0;
            if (line->prefetched) {
                line->prefetched = false;
                ++useful;
            }
            line->dirty = line->dirty || store;
            return true;
        }
        if (RefMiss *miss = inFlight(block)) {
            if (miss->prefetch_origin && !miss->demand_merged)
                ++useful;  // Late, but useful.
            miss->demand_merged = true;
            miss->store_merged = miss->store_merged || store;
            return false;
        }
        in_flight_.push_back(RefMiss{block, false, true, store});
        return false;
    }

    void
    prefetch(Addr block)
    {
        if (find(block) == nullptr && inFlight(block) == nullptr)
            in_flight_.push_back(RefMiss{block, true, false, false});
    }

    /** Land every outstanding miss, in issue order. */
    void
    fillAll()
    {
        for (const RefMiss &miss : in_flight_)
            install(miss);
        in_flight_.clear();
    }

    std::vector<Addr> evicted;
    std::vector<Addr> writebacks;
    std::uint64_t useful = 0;
    std::uint64_t useless = 0;

  private:
    bool lru() const { return config_.replacement == ReplacementKind::Lru; }
    std::size_t setOf(Addr block) const
    {
        return blockNumber(block) % sets_;
    }

    RefLine *
    find(Addr block)
    {
        if (lru()) {
            for (RefLine &line : lru_[setOf(block)])
                if (line.block == block)
                    return &line;
            return nullptr;
        }
        for (std::optional<RefLine> &way : rrip_[setOf(block)])
            if (way && way->block == block)
                return &*way;
        return nullptr;
    }

    RefMiss *
    inFlight(Addr block)
    {
        for (RefMiss &miss : in_flight_)
            if (miss.block == block)
                return &miss;
        return nullptr;
    }

    /** Move `block` to the front (most recent end) of its set. */
    void
    touchLru(Addr block)
    {
        std::list<RefLine> &set = lru_[setOf(block)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == block) {
                set.splice(set.begin(), set, it);
                return;
            }
        }
    }

    void
    evict(const RefLine &line)
    {
        evicted.push_back(line.block);
        if (line.prefetched)
            ++useless;
        if (line.dirty)
            writebacks.push_back(line.block);
    }

    void
    install(const RefMiss &miss)
    {
        RefLine line;
        line.block = miss.block;
        line.dirty = miss.store_merged;
        line.prefetched = miss.prefetch_origin && !miss.demand_merged;
        if (lru()) {
            std::list<RefLine> &set = lru_[setOf(miss.block)];
            if (set.size() == config_.ways) {
                evict(set.back());
                set.pop_back();
            }
            set.push_front(line);
            return;
        }
        std::vector<std::optional<RefLine>> &set =
            rrip_[setOf(miss.block)];
        for (std::optional<RefLine> &way : set) {
            if (!way) {
                way = line;
                return;
            }
        }
        for (;;) {
            for (std::optional<RefLine> &way : set) {
                if (way->rrpv == 3) {
                    evict(*way);
                    way = line;
                    return;
                }
            }
            for (std::optional<RefLine> &way : set)
                ++way->rrpv;
        }
    }

    CacheConfig config_;
    std::size_t sets_;
    std::vector<std::list<RefLine>> lru_;  ///< Front is most recent.
    std::vector<std::vector<std::optional<RefLine>>> rrip_;
    std::vector<RefMiss> in_flight_;
};

struct Geometry
{
    unsigned sets;
    unsigned ways;
    ReplacementKind policy;
};

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    const Geometry &g = info.param;
    return std::string(g.policy == ReplacementKind::Lru ? "Lru" : "Srrip") +
           "_" + std::to_string(g.sets) + "sets_" +
           std::to_string(g.ways) + "ways";
}

class CacheOracleTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheOracleTest, MatchesReferenceModelInLockstep)
{
    const Geometry g = GetParam();
    CacheConfig config;
    config.ways = g.ways;
    config.size_bytes = std::uint64_t{g.sets} * g.ways * kBlockSize;
    config.hit_latency = 4;
    config.mshr_entries = 16;  // Four ops a batch never fill it.
    config.replacement = g.policy;
    constexpr Cycle kLatency = 20;
    constexpr int kBatches = 3000;

    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EventQueue events;
        FakeLower lower(events, kLatency);
        Cache cache("oracle", config, events, lower);
        ReferenceCache ref(config);

        std::vector<bool> hits;
        std::vector<Addr> evicted;
        cache.setAccessHook([&](const MemAccess &, bool hit, Cycle) {
            hits.push_back(hit);
        });
        cache.addEvictionListener(
            [&](Addr block) { evicted.push_back(block); });

        // Half again as many blocks as the cache holds, with a hot
        // subset so hits, merges and evictions all occur.
        Rng rng(seed);
        const std::uint64_t pool = config.numBlocks() * 3 / 2 + 2;
        const std::uint64_t hot = config.numBlocks() / 2 + 1;
        Cycle now = 0;
        for (int batch = 0; batch < kBatches; ++batch) {
            std::vector<bool> ref_hits;
            const unsigned ops = static_cast<unsigned>(rng.range(1, 4));
            Addr block = 0;
            for (unsigned op = 0; op < ops; ++op) {
                // A quarter of later ops repeat the batch's previous
                // block, so they merge into its in-flight miss.
                if (op == 0 || !rng.chance(0.25))
                    block = (rng.chance(0.5) ? rng.below(hot)
                                             : rng.below(pool)) *
                            kBlockSize;
                const std::uint64_t kind = rng.below(8);
                if (kind < 2) {
                    cache.prefetch(block, 0x400, 0, now);
                    ref.prefetch(block);
                    continue;
                }
                MemAccess access;
                access.block = block;
                access.pc = 0x400;
                access.type =
                    kind < 5 ? AccessType::Load : AccessType::Store;
                cache.access(access, now, [](Cycle) {});
                ref_hits.push_back(
                    ref.access(block, access.type == AccessType::Store));
            }
            now += kLatency + config.hit_latency;
            events.runDue(now);
            ref.fillAll();
            ++now;

            ASSERT_EQ(hits, ref_hits) << "batch " << batch;
            ASSERT_EQ(evicted, ref.evicted) << "batch " << batch;
            ASSERT_EQ(lower.writebacks, ref.writebacks)
                << "batch " << batch;
            ASSERT_EQ(cache.stats().useful_prefetches, ref.useful)
                << "batch " << batch;
            ASSERT_EQ(cache.stats().useless_prefetches, ref.useless)
                << "batch " << batch;
            hits.clear();
            if (batch % 64 == 0) {
                ASSERT_NO_THROW(cache.checkInvariants(now));
            }
        }
        // The stream must have exercised what it compares.
        EXPECT_GT(cache.stats().evictions, 0u);
        EXPECT_GT(cache.stats().writebacks, 0u);
        EXPECT_GT(cache.stats().useful_prefetches, 0u);
        EXPECT_GT(cache.stats().useless_prefetches, 0u);
        EXPECT_GT(cache.stats().late_useful_prefetches, 0u);
        EXPECT_GT(cache.stats().demand_hits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Values(Geometry{8, 1, ReplacementKind::Lru},
                      Geometry{8, 2, ReplacementKind::Lru},
                      Geometry{4, 3, ReplacementKind::Lru},
                      Geometry{4, 12, ReplacementKind::Lru},
                      Geometry{4, 16, ReplacementKind::Lru},
                      Geometry{2, 255, ReplacementKind::Lru},
                      Geometry{8, 1, ReplacementKind::Srrip},
                      Geometry{8, 2, ReplacementKind::Srrip},
                      Geometry{4, 3, ReplacementKind::Srrip},
                      Geometry{4, 12, ReplacementKind::Srrip},
                      Geometry{4, 16, ReplacementKind::Srrip},
                      Geometry{2, 255, ReplacementKind::Srrip}),
    geometryName);

} // namespace
} // namespace bingo

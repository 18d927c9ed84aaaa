/**
 * @file
 * Op-stream tests: pulling a stream as TraceOps in uneven pieces must
 * expand to exactly the records of one bulk pull and of the record
 * API, through every layer that moves ops — generators, both
 * interleaving modes, translation, chaos corruption, and the
 * streaming and shared trace-cache sources across their window and
 * chunk boundaries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/rng.hpp"
#include "sim/translation.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/patterns.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{
namespace
{

/** Piece lengths cycled through by the uneven pulls. */
const std::vector<std::size_t> kUnevenPieces = {1,  2,    63, 4097,
                                                5,  1000, 64, 3};

/**
 * Pull `total` instructions as ops, cycling through `pieces`, and
 * expand them to records. Every pull must cover exactly its piece
 * with nonempty ops.
 */
std::vector<TraceRecord>
pullRecords(TraceSource &source, std::size_t total,
            const std::vector<std::size_t> &pieces)
{
    std::vector<TraceRecord> records;
    records.reserve(total);
    std::vector<TraceOp> ops(
        *std::max_element(pieces.begin(), pieces.end()));
    for (std::size_t i = 0; records.size() < total; ++i) {
        const std::size_t want =
            std::min(pieces[i % pieces.size()], total - records.size());
        const std::size_t count = source.nextOps(ops.data(), want);
        for (std::size_t k = 0; k < count; ++k)
            EXPECT_GE(ops[k].instructions(), 1u) << "empty op";
        const std::size_t before = records.size();
        test::appendRecords(ops.data(), count, records);
        EXPECT_EQ(records.size() - before, want) << "pull " << i;
    }
    return records;
}

/** Pull `total` instructions as ops in one bulk request. */
std::vector<TraceRecord>
pullBulk(TraceSource &source, std::size_t total)
{
    return pullRecords(source, total, {total});
}

/** Pull `total` records through the record API in one batch. */
std::vector<TraceRecord>
pullBatch(TraceSource &source, std::size_t total)
{
    std::vector<TraceRecord> records(total);
    source.nextBatch(records.data(), total);
    return records;
}

/**
 * Pull `total` records one next() call at a time: for an interleaver
 * a per-record pass-through that shares no code with its op pull.
 */
std::vector<TraceRecord>
pullEach(TraceSource &source, std::size_t total)
{
    std::vector<TraceRecord> records(total);
    for (TraceRecord &rec : records)
        rec = source.next();
    return records;
}

/**
 * Same instruction stream: type and dependence everywhere, pc and
 * address of explicit instructions (a non-memory instruction's fields
 * are not part of the stream).
 */
void
expectSameStream(const std::vector<TraceRecord> &a,
                 const std::vector<TraceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].type, b[i].type) << "instruction " << i;
        ASSERT_EQ(a[i].dependent, b[i].dependent) << "instruction " << i;
        if (a[i].type != InstrType::Alu) {
            ASSERT_EQ(a[i].pc, b[i].pc) << "instruction " << i;
            ASSERT_EQ(a[i].addr, b[i].addr) << "instruction " << i;
        }
    }
}

/**
 * Generator exercising the burst queue's edge cases: empty and very
 * long runs (longer than any pull), bursts that end in a run, and
 * back-to-back explicit instructions.
 */
class EdgeBurst : public BurstSource
{
  public:
    EdgeBurst(std::uint64_t seed, Addr tag) : BurstSource(seed), tag_(tag)
    {
    }

  protected:
    void
    refill() override
    {
        const Addr addr = tag_ + rng_.below(1 << 20) * kBlockSize;
        switch (rng_.below(6)) {
          case 0:
            emitAlu(0);
            emitLoad(tag_ + 1, addr);
            break;
          case 1:
            emitAlu(static_cast<unsigned>(rng_.range(4000, 9000)));
            break;
          case 2:
            emitStore(tag_ + 2, addr);
            emitDependentLoad(tag_ + 3, addr + kBlockSize);
            break;
          default:
            emitAlu(static_cast<unsigned>(rng_.range(1, 40)));
            emitLoad(tag_ + 4, addr);
            emitAlu(static_cast<unsigned>(rng_.range(0, 3)));
            break;
        }
    }

  private:
    Addr tag_;
};

std::vector<std::unique_ptr<TraceSource>>
edgeBursts(std::uint64_t seed)
{
    std::vector<std::unique_ptr<TraceSource>> subs;
    for (Addr s = 1; s <= 3; ++s)
        subs.push_back(std::make_unique<EdgeBurst>(seed + s, s << 32));
    return subs;
}

/** Fresh instances of one stream under test. */
using Factory = std::unique_ptr<TraceSource> (*)();

/**
 * The uneven pull, the bulk pull and both record APIs of four fresh
 * instances agree.
 */
void
checkPieces(Factory make, std::size_t total)
{
    const auto uneven = pullRecords(*make(), total, kUnevenPieces);
    expectSameStream(uneven, pullBulk(*make(), total));
    expectSameStream(uneven, pullBatch(*make(), total));
    expectSameStream(uneven, pullEach(*make(), total));
}

TEST(TraceOps, BurstSourcePiecesMatchBulk)
{
    checkPieces([]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<EdgeBurst>(5, 1ULL << 40);
    }, 200000);
    checkPieces([]() -> std::unique_ptr<TraceSource> {
        RecordStoreParams params;
        params.base = 1ULL << 42;
        return std::make_unique<RecordStoreApp>(params, 7);
    }, 100000);
}

TEST(TraceOps, StrictInterleaverPiecesMatchBulk)
{
    checkPieces([]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<InterleavedSource>(edgeBursts(11), 1, 70,
                                                   3, /*strict=*/true);
    }, 200000);
}

TEST(TraceOps, RandomInterleaverPiecesMatchBulk)
{
    checkPieces([]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<InterleavedSource>(edgeBursts(12), 2, 9,
                                                   4);
    }, 200000);
}

TEST(TraceOps, EveryStreamPullsItsRecordStream)
{
    // The batch record API of every registered stream is pinned by
    // the golden digests in test_workloads.cpp; the op pull the
    // simulation reads, and record-at-a-time next(), must expand to
    // the same stream.
    std::vector<std::string> names = workloadNames();
    names.insert(names.end(), temporalWorkloadNames().begin(),
                 temporalWorkloadNames().end());
    for (const std::string &name : names) {
        for (CoreId core = 0; core < 4; ++core) {
            SCOPED_TRACE(name + " core " + std::to_string(core));
            constexpr std::size_t kTotal = std::size_t{1} << 16;
            const auto uneven = pullRecords(*makeWorkload(name, core, 7),
                                            kTotal, kUnevenPieces);
            expectSameStream(uneven,
                             pullBatch(*makeWorkload(name, core, 7), kTotal));
            expectSameStream(uneven,
                             pullEach(*makeWorkload(name, core, 7), kTotal));
        }
    }
}

TEST(TraceOps, InterleaverJoinsRunsAcrossSwitches)
{
    // Sub-sources of pure runs: however the switches cut them, the
    // whole pull is one bare run.
    struct Runs : BurstSource
    {
        Runs() : BurstSource(1) {}
        void refill() override { emitAlu(5); }
    };
    std::vector<std::unique_ptr<TraceSource>> subs;
    subs.push_back(std::make_unique<Runs>());
    subs.push_back(std::make_unique<Runs>());
    InterleavedSource inter(std::move(subs), 1, 3, 9);
    std::array<TraceOp, 1000> ops;
    ASSERT_EQ(inter.nextOps(ops.data(), ops.size()), 1u);
    EXPECT_EQ(ops[0].alu, 1000u);
    EXPECT_EQ(ops[0].type, InstrType::Alu);
}

TEST(TraceOps, TranslatingSourceTranslatesExplicitMemoryOps)
{
    constexpr std::size_t kTotal = 200000;
    const AddressTranslator translator(7);
    std::vector<TraceRecord> expected =
        pullBatch(*makeWorkload("em3d", 0, 7), kTotal);
    for (TraceRecord &rec : expected) {
        if (rec.type == InstrType::Load || rec.type == InstrType::Store)
            rec.addr = translator.translate(rec.addr);
    }
    const auto make = [&translator] {
        return std::make_unique<TranslatingSource>(
            makeWorkload("em3d", 0, 7), translator);
    };
    expectSameStream(pullRecords(*make(), kTotal, kUnevenPieces),
                     expected);
    expectSameStream(pullBulk(*make(), kTotal), expected);
    expectSameStream(pullBatch(*make(), kTotal), expected);
}

TEST(TraceOps, ChaosSourceDrawsPerInstruction)
{
    // Reference schedule, one record at a time: every instruction is
    // one opportunity, and a hit flips one bit of pc or address.
    constexpr std::size_t kTotal = 200000;
    static constexpr double kRate = 0.01;
    static constexpr std::uint64_t kSeed = 99;
    std::vector<TraceRecord> expected =
        pullBatch(*makeWorkload("em3d", 1, 7), kTotal);
    std::uint64_t expected_count = 0;
    Rng rng(kSeed);
    for (TraceRecord &rec : expected) {
        if (!rng.chance(kRate))
            continue;
        const std::uint64_t pick = rng.next();
        const unsigned bit = static_cast<unsigned>(rng.below(64));
        (pick & 1 ? rec.addr : rec.pc) ^= 1ULL << bit;
        ++expected_count;
    }
    ASSERT_GT(expected_count, 1000u);

    std::array<std::uint64_t, 3> counts{};
    const auto make = [](std::uint64_t *counter) {
        return std::make_unique<chaos::ChaosTraceSource>(
            makeWorkload("em3d", 1, 7), kRate, kSeed, counter);
    };
    expectSameStream(
        pullRecords(*make(&counts[0]), kTotal, kUnevenPieces), expected);
    expectSameStream(pullBulk(*make(&counts[1]), kTotal), expected);
    expectSameStream(pullBatch(*make(&counts[2]), kTotal), expected);
    for (const std::uint64_t count : counts)
        EXPECT_EQ(count, expected_count);
}

/** Restores the process-wide trace cache around each test. */
class TraceOpsCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_budget_ = TraceCache::instance().budgetBytes();
        TraceCache::instance().clear();
    }

    void
    TearDown() override
    {
        TraceCache::instance().setBudgetBytes(saved_budget_);
        TraceCache::instance().clear();
    }

    std::uint64_t saved_budget_ = 0;
};

TEST_F(TraceOpsCacheTest, StreamingSourcePiecesMatchBulk)
{
    // Budget 0: every acquire streams through its own window, and
    // the uneven pieces end at every offset of it.
    TraceCache::instance().setBudgetBytes(0);
    constexpr std::size_t kTotal = 20 * TraceBuffer::kCommitInstructions;
    auto streamed = TraceCache::instance().acquire("SAT Solver", 0, 42);
    const auto uneven = pullRecords(*streamed, kTotal, kUnevenPieces);
    const auto direct = pullBatch(*makeWorkload("SAT Solver", 0, 42),
                                  kTotal);
    expectSameStream(uneven, direct);
    EXPECT_EQ(TraceCache::instance().stats().bypasses, 1u);
}

TEST_F(TraceOpsCacheTest, SharedSourcePiecesMatchAcrossChunks)
{
    // em3d needs about 0.1 ops per instruction: 800 K instructions
    // fill more than one 64 Ki-op chunk. Two readers of one buffer,
    // one pulling unevenly and one in bulk, both against the
    // generator.
    TraceCache::instance().setBudgetBytes(512ull << 20);
    constexpr std::size_t kTotal = 800000;
    auto first = TraceCache::instance().acquire("em3d", 2, 42);
    auto second = TraceCache::instance().acquire("em3d", 2, 42);
    const auto uneven = pullRecords(*first, kTotal, kUnevenPieces);
    const auto bulk = pullBulk(*second, kTotal);
    const auto direct = pullBatch(*makeWorkload("em3d", 2, 42), kTotal);
    expectSameStream(uneven, direct);
    expectSameStream(bulk, direct);
    const TraceCacheStats stats = TraceCache::instance().stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_GE(stats.bytes, 2 * TraceBuffer::kChunkOps * sizeof(TraceOp))
        << "the pulls never crossed a chunk boundary";
    EXPECT_GE(stats.records_generated, kTotal);
}

} // namespace
} // namespace bingo

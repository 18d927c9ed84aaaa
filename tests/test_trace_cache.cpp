/**
 * @file
 * Trace cache tests: replay must be bit-identical to direct
 * generation (including across chunk boundaries), acquire must hit
 * and miss when it should, the byte budget must evict only
 * unreferenced buffers, a sweep's read plan must share exactly the
 * streams it rereads and stream the rest, and a whole simulation or
 * sweep must not care whether the cache is on or off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{
namespace
{

/**
 * Every test runs in its own ctest process, but each still restores
 * the process-wide cache so in-binary filter runs compose too.
 */
class TraceCacheTest : public ::testing::Test
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

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 std::size_t i)
{
    ASSERT_EQ(a.pc, b.pc) << "record " << i;
    ASSERT_EQ(a.addr, b.addr) << "record " << i;
    ASSERT_EQ(a.type, b.type) << "record " << i;
    ASSERT_EQ(a.dependent, b.dependent) << "record " << i;
}

/** Bytes of one TraceBuffer chunk. */
constexpr std::uint64_t kChunkBytes =
    TraceBuffer::kChunkOps * sizeof(TraceOp);

TEST_F(TraceCacheTest, ReplayIsBitIdenticalAcrossChunkBoundaries)
{
    // Read until the buffer has started its second chunk (64 Ki ops),
    // then some more, so replay crosses a chunk boundary.
    auto direct = makeWorkload("em3d", 0, 42);
    auto cached = TraceCache::instance().acquire("em3d", 0, 42);
    std::size_t i = 0;
    while (TraceCache::instance().stats().bytes < 2 * kChunkBytes) {
        for (std::size_t end = i + 4096; i < end; ++i)
            expectSameRecord(cached->next(), direct->next(), i);
    }
    for (std::size_t end = i + 5000; i < end; ++i)
        expectSameRecord(cached->next(), direct->next(), i);
}

TEST_F(TraceCacheTest, BatchReadSpanningChunksMatchesSingleSteps)
{
    auto stepper = TraceCache::instance().acquire("em3d", 1, 9);
    auto batcher = TraceCache::instance().acquire("em3d", 1, 9);
    // One op pull deliberately straddling the first chunk boundary:
    // em3d needs about 0.1 ops per instruction, so a million
    // instructions take well over one 64 Ki-op chunk.
    const std::size_t n = std::size_t{1} << 20;
    std::vector<TraceOp> ops(n);
    ops.resize(batcher->nextOps(ops.data(), n));
    ASSERT_GT(ops.size(), TraceBuffer::kChunkOps);
    std::vector<TraceRecord> batch;
    test::appendRecords(ops.data(), ops.size(), batch);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        expectSameRecord(batch[i], stepper->next(), i);
}

TEST_F(TraceCacheTest, SecondAcquireOfSameKeyHits)
{
    const TraceCacheStats before = TraceCache::instance().stats();
    auto first = TraceCache::instance().acquire("Streaming", 0, 3);
    auto again = TraceCache::instance().acquire("Streaming", 0, 3);
    auto other_core = TraceCache::instance().acquire("Streaming", 1, 3);
    auto other_seed = TraceCache::instance().acquire("Streaming", 0, 4);
    const TraceCacheStats after = TraceCache::instance().stats();
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses - before.misses, 3u);
    EXPECT_EQ(after.buffers, 3u);
}

TEST_F(TraceCacheTest, BudgetZeroBypassesCaching)
{
    TraceCache::instance().setBudgetBytes(0);
    EXPECT_FALSE(TraceCache::instance().enabled());
    const TraceCacheStats before = TraceCache::instance().stats();
    auto a = TraceCache::instance().acquire("Zeus", 0, 5);
    auto b = TraceCache::instance().acquire("Zeus", 0, 5);
    const TraceCacheStats after = TraceCache::instance().stats();
    EXPECT_EQ(after.bypasses - before.bypasses, 2u);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.buffers, 0u);
    // Bypass sources are still the real generators.
    auto direct = makeWorkload("Zeus", 0, 5);
    for (std::size_t i = 0; i < 1000; ++i)
        expectSameRecord(a->next(), direct->next(), i);
}

TEST_F(TraceCacheTest, EvictionRespectsBudgetAndPinning)
{
    // Budget fits one committed chunk but not two.
    TraceCache::instance().setBudgetBytes(kChunkBytes + kChunkBytes / 2);

    auto a = TraceCache::instance().acquire("Data Serving", 0, 1);
    auto b = TraceCache::instance().acquire("em3d", 0, 1);
    a->next();
    b->next();  // Both buffers now hold one ~1.5 MB chunk each.

    // Over budget, but both buffers are pinned by live sources:
    // nothing may be evicted.
    TraceCacheStats stats = TraceCache::instance().stats();
    EXPECT_GT(stats.bytes, TraceCache::instance().budgetBytes());
    EXPECT_EQ(stats.buffers, 2u);
    const std::uint64_t evictions_pinned = stats.evictions;

    // Release the pins; the next acquire reconciles the budget by
    // dropping LRU unreferenced buffers.
    a.reset();
    b.reset();
    auto c = TraceCache::instance().acquire("SAT Solver", 0, 1);
    stats = TraceCache::instance().stats();
    EXPECT_GT(stats.evictions, evictions_pinned);
    EXPECT_LE(stats.bytes, TraceCache::instance().budgetBytes());
}

/** One short simulation with a given cache budget. */
RunResult
runServing(std::uint64_t budget)
{
    TraceCache::instance().clear();
    TraceCache::instance().setBudgetBytes(budget);
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    system.run(10000, 20000);
    return collectResult(system, "Data Serving");
}

/** Every simulation-visible counter of two runs must agree. */
void
expectIdenticalRuns(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.core_ipc, b.core_ipc);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llc.demand_accesses, b.llc.demand_accesses);
    EXPECT_EQ(a.llc.demand_misses, b.llc.demand_misses);
    EXPECT_EQ(a.llc.useful_prefetches, b.llc.useful_prefetches);
    EXPECT_EQ(a.llc.useless_prefetches, b.llc.useless_prefetches);
    EXPECT_EQ(a.llc.prefetch_fills, b.llc.prefetch_fills);
    EXPECT_EQ(a.llc.demand_miss_latency, b.llc.demand_miss_latency);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.row_hits, b.dram.row_hits);
    EXPECT_EQ(a.dram.queue_delay_cycles, b.dram.queue_delay_cycles);
}

TEST_F(TraceCacheTest, CacheOnOffRunsAreBitIdentical)
{
    const RunResult off = runServing(0);
    const RunResult on = runServing(512ull << 20);
    // A second cached run replays the shared buffer (a cache hit) and
    // must still agree.
    const TraceCacheStats mid = TraceCache::instance().stats();
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    system.run(10000, 20000);
    const RunResult replay = collectResult(system, "Data Serving");
    const TraceCacheStats after = TraceCache::instance().stats();

    expectIdenticalRuns(off, on);
    expectIdenticalRuns(on, replay);
    EXPECT_GT(after.hits, mid.hits);
}

/**
 * Chaos fault schedules are drawn above the replay layer, so sharing
 * one buffer across runs must not change a chaos run at all.
 */
TEST_F(TraceCacheTest, ChaosScheduleUnchangedByCaching)
{
    const auto runChaos = [](std::uint64_t budget) {
        TraceCache::instance().clear();
        TraceCache::instance().setBudgetBytes(budget);
        SystemConfig config = SystemConfig::singleCore();
        config.prefetcher.kind = PrefetcherKind::Bingo;
        config.seed = 7;
        config.chaos.enabled = true;
        config.chaos.seed = 99;
        config.chaos.rate = 0.002;
        config.chaos.site_mask = 0x1F;
        System system(config, "Data Serving");
        system.run(10000, 20000);
        return collectResult(system, "Data Serving");
    };
    expectIdenticalRuns(runChaos(0), runChaos(512ull << 20));
}

TEST_F(TraceCacheTest, PlannedSingleReaderIsStreamed)
{
    TraceCache &cache = TraceCache::instance();
    TraceReadPlan plan;
    plan.addReader("Data Serving", 0, 42, /*translated=*/false);
    auto source = cache.acquire("Data Serving", 0, 42);

    // Pull in pieces that end at every offset of the streaming
    // window, some straddling it, and expand each piece back into
    // records against the generator's own.
    const std::size_t window = TraceBuffer::kCommitInstructions;
    const std::size_t n = 3 * window + 1234;
    std::vector<TraceRecord> expected(n);
    makeWorkload("Data Serving", 0, 42)
        ->nextBatch(expected.data(), expected.size());

    std::vector<TraceOp> ops(1000);
    std::vector<TraceRecord> pulled;
    while (pulled.size() < n) {
        const std::size_t want = std::min<std::size_t>(
            n - pulled.size(), 1 + (pulled.size() * 7919) % ops.size());
        const std::size_t before = pulled.size();
        test::appendRecords(ops.data(), source->nextOps(ops.data(), want),
                            pulled);
        ASSERT_EQ(pulled.size() - before, want) << "pull at " << before;
    }
    for (std::size_t i = 0; i < n; ++i)
        expectSameRecord(pulled[i], expected[i], i);

    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 1u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.buffers, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_GE(stats.records_generated, n);
}

TEST_F(TraceCacheTest, PlannedReadersShareUntilTheLast)
{
    TraceCache &cache = TraceCache::instance();
    constexpr unsigned kReaders = 4;
    TraceReadPlan plan;
    for (unsigned r = 0; r < kReaders; ++r)
        plan.addReader("SAT Solver", 1, 9, /*translated=*/false);

    std::vector<std::unique_ptr<TraceSource>> sources;
    for (unsigned r = 0; r < kReaders; ++r) {
        sources.push_back(cache.acquire("SAT Solver", 1, 9));
        sources.back()->next();
        // Registered until the last planned acquire takes it out.
        EXPECT_EQ(cache.stats().buffers, r + 1 < kReaders ? 1u : 0u)
            << "after acquire " << r;
    }
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, kReaders - 1);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.bypasses, 0u);
    EXPECT_GT(stats.bytes, 0u);

    // The last reader still replays the shared stream.
    auto direct = makeWorkload("SAT Solver", 1, 9);
    direct->next();
    for (std::size_t i = 1; i < 10000; ++i)
        expectSameRecord(sources.back()->next(), direct->next(), i);

    // The buffer goes with its last source, not under the budget.
    sources.clear();
    stats = cache.stats();
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST_F(TraceCacheTest, CancelledPlanLeaksNothing)
{
    TraceCache &cache = TraceCache::instance();
    {
        TraceReadPlan plan;
        for (int r = 0; r < 3; ++r)
            plan.addReader("Zeus", 0, 5, /*translated=*/false);
        plan.addReader("em3d", 0, 5, /*translated=*/false);
        auto zeus = cache.acquire("Zeus", 0, 5);
        zeus->next();
    }

    // No stale plan survives the guard: later acquires of streams the
    // plan announced are ordinary shared ones. Two more Zeus readers
    // would otherwise end the plan and unregister its buffer, and the
    // em3d reader would stream.
    for (int r = 0; r < 2; ++r)
        cache.acquire("Zeus", 0, 5)->next();
    auto em3d = cache.acquire("em3d", 0, 5);
    em3d->next();
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 0u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.buffers, 2u);

    em3d.reset();
    cache.clear();
    stats = cache.stats();
    EXPECT_EQ(stats.buffers, 0u);
    EXPECT_EQ(stats.bytes, 0u);
}

TEST_F(TraceCacheTest, UnplannedRebuildKeepsOtherReadersPlanned)
{
    // Three jobs planned on one stream; the first job's failed attempt
    // is rebuilt, which must not use up a reader counted for the
    // other two.
    TraceCache &cache = TraceCache::instance();
    TraceReadPlan plan;
    for (int r = 0; r < 3; ++r)
        plan.addReader("Streaming", 0, 3, /*translated=*/false);
    cache.acquire("Streaming", 0, 3)->next();
    {
        const UnplannedTraceReads retry;
        cache.acquire("Streaming", 0, 3)->next();
    }
    cache.acquire("Streaming", 0, 3)->next();
    EXPECT_EQ(cache.stats().buffers, 1u) << "second job was not last";
    cache.acquire("Streaming", 0, 3)->next();
    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.buffers, 0u) << "third job is the last reader";
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.bypasses, 0u);
}

/**
 * Three jobs on one trace stream plus one on a stream of its own, so
 * a planned sweep both shares and streams.
 */
std::vector<SweepJob>
sharedAndPrivateJobs()
{
    std::vector<SweepJob> jobs;
    const auto add = [&jobs](const char *workload, PrefetcherKind kind,
                             std::uint64_t seed) {
        SweepJob job;
        job.workload = workload;
        job.config = SystemConfig::singleCore();
        job.config.prefetcher.kind = kind;
        job.options.warmup_instructions = 5000;
        job.options.measure_instructions = 20000;
        job.options.seed = seed;
        jobs.push_back(job);
    };
    add("Data Serving", PrefetcherKind::None, 42);
    add("Data Serving", PrefetcherKind::Bop, 42);
    add("Data Serving", PrefetcherKind::Bingo, 42);
    add("SAT Solver", PrefetcherKind::Bingo, 43);
    return jobs;
}

/** Filename -> contents of every journal record under `dir`. */
std::map<std::string, std::string>
journalSnapshot(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        files.emplace(entry.path().filename().string(),
                      std::string(std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()));
    }
    return files;
}

/** The jobs as one journaled two-thread sweep under `budget`. */
std::map<std::string, std::string>
journaledSweep(std::uint64_t budget, const std::string &tag)
{
    TraceCache::instance().clear();
    TraceCache::instance().setBudgetBytes(budget);
    const test::TempDir dir("trace_plan_" + tag);
    const test::EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    for (const JobOutcome &outcome :
         runSweepOutcomes(sharedAndPrivateJobs(), 2))
        EXPECT_TRUE(outcome.ok()) << outcome.error;
    return journalSnapshot(dir.path());
}

TEST_F(TraceCacheTest, PlannedSweepJournalsMatchSharingOff)
{
    const auto planned = journaledSweep(512ull << 20, "planned");
    const TraceCacheStats stats = TraceCache::instance().stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.bypasses, 1u);
    EXPECT_EQ(stats.buffers, 0u);

    const auto off = journaledSweep(0, "off");
    // One record per job, plus the sweep manifest.
    EXPECT_EQ(planned.size(), sharedAndPrivateJobs().size() + 1);
    EXPECT_EQ(planned, off);
}

TEST_F(TraceCacheTest, SweepPlansItsBaselineReaders)
{
    // Job and baseline share core 0's stream; the four-core default
    // baseline machine alone reads cores 1-3.
    TraceCache::instance().setBudgetBytes(512ull << 20);
    std::vector<SweepJob> jobs = sharedAndPrivateJobs();
    jobs[1].compare_baseline = true;
    for (const JobOutcome &outcome : runSweepOutcomes(jobs, 2))
        EXPECT_TRUE(outcome.ok()) << outcome.error;
    const TraceCacheStats stats = TraceCache::instance().stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.bypasses, 1u + 3u);
    EXPECT_EQ(stats.buffers, 0u);
}

TEST(TraceCacheBudget, ParsesWholeMebibytes)
{
    EXPECT_EQ(parseTraceCacheBudget(nullptr), 512ull << 20);
    EXPECT_EQ(parseTraceCacheBudget(""), 512ull << 20);
    EXPECT_EQ(parseTraceCacheBudget("0"), 0u);
    EXPECT_EQ(parseTraceCacheBudget("64"), 64ull << 20);
    EXPECT_EQ(parseTraceCacheBudget("0064"), 64ull << 20);
    // The largest budget whose byte count fits 64 bits.
    EXPECT_EQ(parseTraceCacheBudget("17592186044415"),
              17592186044415ull << 20);
}

TEST(TraceCacheBudget, RejectsMalformedValuesByName)
{
    for (const char *bad : {"-1", "abc", "64MB", " 64", "64 ", "+5",
                            "1e3", "17592186044416",
                            "99999999999999999999999"}) {
        try {
            parseTraceCacheBudget(bad);
            ADD_FAILURE() << "accepted '" << bad << "'";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("BINGO_TRACE_CACHE_MB"), std::string::npos)
                << what;
            EXPECT_NE(what.find(std::string("'") + bad + "'"),
                      std::string::npos)
                << what;
        }
    }
}

} // namespace
} // namespace bingo

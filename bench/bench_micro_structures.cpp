/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot structures:
 * Bingo history lookup/insert, footprint voting, cache access, DRAM
 * service, and trace generation. These guard the simulation throughput
 * that makes the figure sweeps cheap.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/event_queue.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "mem/dram.hpp"
#include "prefetch/bingo.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"

namespace
{

using namespace bingo;

void
BM_BingoHistoryInsert(benchmark::State &state)
{
    PrefetcherConfig config;
    config.kind = PrefetcherKind::Bingo;
    BingoPrefetcher prefetcher(config);
    Rng rng(7);
    Footprint fp = Footprint::fromRaw(0x00ff00ff00ff00ffULL &
                                      ((1ULL << kBlocksPerRegion) - 1));
    for (auto _ : state) {
        const Addr pc = 0x400000 + rng.below(64) * 4;
        const Addr block = blockAlign(rng.next() & 0xffffffffffULL);
        prefetcher.insertHistory(pc, block, fp);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BingoHistoryInsert);

void
BM_BingoHistoryLookup(benchmark::State &state)
{
    PrefetcherConfig config;
    config.kind = PrefetcherKind::Bingo;
    BingoPrefetcher prefetcher(config);
    Rng rng(7);
    Footprint fp = Footprint::fromRaw(0xaaaaaaaaULL &
                                      ((1ULL << kBlocksPerRegion) - 1));
    for (unsigned i = 0; i < 16 * 1024; ++i) {
        prefetcher.insertHistory(0x400000 + rng.below(64) * 4,
                                 blockAlign(rng.next() & 0xffffffffULL),
                                 fp);
    }
    for (auto _ : state) {
        const Addr pc = 0x400000 + rng.below(64) * 4;
        const Addr block = blockAlign(rng.next() & 0xffffffffULL);
        benchmark::DoNotOptimize(prefetcher.lookup(pc, block));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BingoHistoryLookup);

void
BM_FootprintVote(benchmark::State &state)
{
    Rng rng(11);
    std::vector<Footprint> footprints;
    for (int i = 0; i < 12; ++i) {
        footprints.push_back(Footprint::fromRaw(
            rng.next() & ((1ULL << kBlocksPerRegion) - 1)));
    }
    for (auto _ : state) {
        FootprintVote vote;
        for (const Footprint &fp : footprints)
            vote.add(fp);
        benchmark::DoNotOptimize(vote.resolve(0.2));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FootprintVote);

void
BM_TableShortEventScan(benchmark::State &state)
{
    // The Bingo phase-2 pattern: scan a PHT set with a partial-tag
    // predicate and fold every match, via the template scan that
    // replaced the std::function + std::vector findIf.
    SetAssocTable<std::uint64_t> table(1024, 16);
    Rng rng(23);
    for (unsigned i = 0; i < 16 * 1024; ++i) {
        const std::uint64_t short_key = rng.below(1024 * 64);
        table.insert(table.setIndex(short_key), rng.next(), short_key);
    }
    std::uint64_t folded = 0;
    for (auto _ : state) {
        const std::uint64_t short_key = rng.below(1024 * 64);
        const std::size_t set = table.setIndex(short_key);
        table.forEachIf(
            set,
            [short_key](const auto &e) { return e.data == short_key; },
            [&folded](const auto &e) { folded += e.tag; });
        benchmark::DoNotOptimize(folded);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableShortEventScan);

void
BM_TableRecencySelect(benchmark::State &state)
{
    // The region-tracker victim pattern: occupancy + LRU pick in one
    // pass (previously a per-insert vector build and sort).
    SetAssocTable<std::uint64_t> table(64, 8);
    Rng rng(29);
    for (unsigned i = 0; i < 4096; ++i) {
        const std::uint64_t tag = rng.next();
        table.insert(table.setIndex(mix64(tag)), tag, tag);
    }
    for (auto _ : state) {
        const std::size_t set = table.setIndex(mix64(rng.next()));
        const auto *lru =
            table.leastRecentIf(set, [](const auto &) { return true; });
        benchmark::DoNotOptimize(lru);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableRecencySelect);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // The cache fill/completion pattern: a capture-light callback
    // scheduled a few cycles out, drained in order. Exercises the
    // inline-storage schedule path that replaced per-event
    // std::function allocation.
    EventQueue events;
    Cycle now = 0;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const Cycle ready = now + 4;
        events.schedule(ready, [&sink, ready] { sink += ready; });
        events.schedule(now + 2, [&sink] { ++sink; });
        ++now;
        events.runDue(now);
    }
    events.runDue(now + 8);
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_DramService(benchmark::State &state)
{
    DramConfig config;
    DramController dram(config);
    Rng rng(13);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.read(blockAlign(rng.next() & 0xfffffffULL), now));
        now += 20;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramService);

void
BM_CacheAccess(benchmark::State &state)
{
    // A leaf cache over a no-op lower level.
    class NullLower : public MemoryLower
    {
      public:
        void
        fetch(const MemAccess &, Cycle now, FillCallback done) override
        {
            done(now + 100);
        }
        void writeback(Addr, CoreId, Cycle) override {}
    };

    EventQueue events;
    NullLower lower;
    CacheConfig config{64 * 1024, 8, 4, 8};
    Cache cache("bench", config, events, lower);
    Rng rng(17);
    Cycle now = 0;
    for (auto _ : state) {
        MemAccess access;
        access.block = blockAlign(rng.next() & 0xfffffULL);
        access.pc = 0x1000;
        access.type = AccessType::Load;
        cache.access(access, now, [](Cycle) {});
        events.runDue(now + 10);
        now += 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto source = makeWorkload("Data Serving", 0, 42);
    for (auto _ : state)
        benchmark::DoNotOptimize(source->next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

/** Pin the level named by a benchmark Arg: 0 scalar, 1 detected. */
simd::Level
pinLevel(std::int64_t arg)
{
    const simd::Level level =
        arg == 0 ? simd::Level::Scalar : simd::detectedLevel();
    simd::setLevel(level);
    return level;
}

/**
 * The batch footprint reductions behind pattern-table aggregation:
 * union / intersection / popcount over a candidate set of raw
 * footprint words. Arg(0) scalar oracle, Arg(1) widest vector level.
 */
void
BM_FootprintBatchOps(benchmark::State &state)
{
    const simd::Level level = pinLevel(state.range(0));
    Rng rng(51);
    std::array<std::uint64_t, 16> raws;
    for (auto &raw : raws)
        raw = rng.next() & ((1ULL << kBlocksPerRegion) - 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Footprint::unionOf(raws.data(), raws.size()));
        benchmark::DoNotOptimize(
            Footprint::intersectOf(raws.data(), raws.size()));
        benchmark::DoNotOptimize(
            Footprint::totalCount(raws.data(), raws.size()));
    }
    state.SetItemsProcessed(state.iterations() * raws.size() * 3);
    state.SetLabel(simd::levelName(level));
    simd::setLevel(simd::detectedLevel());
}
BENCHMARK(BM_FootprintBatchOps)->Arg(0)->Arg(1);

/**
 * The SoA way-tag compare at the heart of every cache lookup: find
 * one 64-bit block key among the ways of a set. Half the probes hit,
 * half miss (key 3 is never block-aligned).
 */
void
BM_WayTagLookupSimd(benchmark::State &state)
{
    const simd::Level level = pinLevel(state.range(0));
    constexpr std::size_t kSets = 4096;
    constexpr std::size_t kWays = 16;
    Rng rng(57);
    std::vector<std::uint64_t> tags(kSets * kWays);
    for (auto &tag : tags)
        tag = blockAlign(rng.next() & 0xffffffffULL);
    for (auto _ : state) {
        const std::size_t set = rng.below(kSets);
        const std::uint64_t key =
            (rng.next() & 1) != 0
                ? tags[set * kWays + rng.below(kWays)]
                : 3;
        benchmark::DoNotOptimize(simd::findEqual64(
            tags.data() + set * kWays, kWays, key));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(simd::levelName(level));
    simd::setLevel(simd::detectedLevel());
}
BENCHMARK(BM_WayTagLookupSimd)->Arg(0)->Arg(1);

/**
 * Replaying an already-generated trace from the shared cache through
 * the op pull a core fetches with — the per-job cost a sweep pays
 * after the first run of a workload. Compare against
 * BM_WorkloadGeneration for the memoization win.
 */
void
BM_TraceCacheHit(benchmark::State &state)
{
    constexpr std::size_t kPull = 64;
    // Rewind well inside the first chunk so the buffer stops growing.
    constexpr std::size_t kRewindPulls = (std::size_t{1} << 20) / kPull;
    TraceCache &cache = TraceCache::instance();
    auto source = cache.acquire("Data Serving", 0, 42);
    std::array<TraceOp, kPull> ops;
    std::size_t pulls = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(source->nextOps(ops.data(), kPull));
        benchmark::DoNotOptimize(ops);
        // Re-acquiring (a cache hit) rewinds the replay cursor.
        if (++pulls == kRewindPulls) {
            source = cache.acquire("Data Serving", 0, 42);
            pulls = 0;
        }
    }
    state.SetItemsProcessed(state.iterations() * kPull);
    state.SetLabel(cache.enabled() ? "cached" : "bypass");
}
BENCHMARK(BM_TraceCacheHit);

void
BM_MshrAllocateRelease(benchmark::State &state)
{
    // The demand-miss fast path now tagged with cycle context for
    // SimError reporting; this guards the added bookkeeping.
    MshrFile mshrs(64, "bench.mshr");
    Rng rng(31);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr block = blockAlign(rng.next() & 0xffffffULL);
        if (mshrs.find(block) == nullptr && !mshrs.full())
            mshrs.allocate(block, false, 0, now);
        else if (const MshrEntry *hit = mshrs.find(block);
                 hit != nullptr)
            mshrs.release(block, now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrAllocateRelease);

void
BM_JobFingerprint(benchmark::State &state)
{
    // Journal fingerprinting runs once per sweep job at resume time;
    // it should stay far below a simulation's cost.
    SweepJob job;
    job.workload = "Data Serving";
    job.config.prefetcher.kind = PrefetcherKind::Bingo;
    job.options = ExperimentOptions{};
    std::uint64_t salt = 0;
    for (auto _ : state) {
        job.options.seed = 42 + (salt++ & 7);
        benchmark::DoNotOptimize(jobFingerprint(job));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JobFingerprint);

void
BM_LogHistogramRecord(benchmark::State &state)
{
    // Telemetry histograms sit on the LLC fill path when enabled;
    // a record must stay a handful of cycles.
    telemetry::LogHistogram histogram;
    Rng rng(42);
    std::array<std::uint64_t, 1024> values;
    for (auto &v : values)
        v = rng.next() & 0xFFFFF;  // Latency-sized magnitudes.
    std::size_t i = 0;
    for (auto _ : state) {
        histogram.record(values[i++ & 1023]);
        benchmark::DoNotOptimize(histogram);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramRecord);

/**
 * One tiny single-core System run for `instructions`, with the
 * fast-forward path toggled per `skip`. Returns the finishing cycle so
 * callers can assert bit-identity across the toggle.
 */
Cycle
runMainLoop(const char *workload, bool skip,
            std::uint64_t instructions)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::None;
    System system(config, workload);
    system.setCycleSkipping(skip);
    system.run(0, instructions);
    return system.now();
}

/**
 * The run loop on a stall-dominated workload (em3d pointer chasing,
 * no prefetcher): most cycles are ROB-full windows behind demand
 * misses, exactly where event-driven cycle skipping should pay.
 * Arg(0) steps every cycle (BINGO_NO_SKIP behaviour), Arg(1)
 * fast-forwards; the ratio of the two is the loop speedup.
 */
void
BM_MainLoopStallHeavy(benchmark::State &state)
{
    const bool skip = state.range(0) != 0;
    Cycle last = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            last = runMainLoop("em3d", skip, 20000));
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(last));
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MainLoopStallHeavy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The run loop on a compute-dominated workload (SAT Solver, mostly
 * L1-resident): cores rarely stall, so the skip path's extra
 * next-wake scan must not slow the loop down.
 */
void
BM_MainLoopComputeHeavy(benchmark::State &state)
{
    const bool skip = state.range(0) != 0;
    Cycle last = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            last = runMainLoop("SAT Solver", skip, 100000));
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(last));
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_MainLoopComputeHeavy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** Four fresh trace-sharing Systems (the lockstep bench members). */
std::vector<std::unique_ptr<System>>
makeBatchMembers()
{
    std::vector<std::unique_ptr<System>> members;
    for (unsigned i = 0; i < 4; ++i) {
        SystemConfig config = SystemConfig::singleCore();
        config.prefetcher.kind = PrefetcherKind::None;
        members.push_back(
            std::make_unique<System>(config, "Data Serving"));
    }
    return members;
}

/**
 * Four Systems sharing one trace stream, driven to completion either
 * back to back (Arg 0) or in round-robin advance() slices (Arg 1) —
 * the two strategies the sweep runner picks between (BINGO_BATCH).
 * The lockstep mode consumes each shared trace-cache chunk with the
 * whole batch while it is hot instead of re-walking it cold per run.
 */
void
BM_BatchedMainLoop(benchmark::State &state)
{
    const bool batched = state.range(0) != 0;
    constexpr std::uint64_t kInstructions = 20000;
    Cycle last = 0;
    for (auto _ : state) {
        auto members = makeBatchMembers();
        if (batched) {
            for (auto &m : members)
                m->beginRun(0, kInstructions);
            std::size_t running = members.size();
            while (running > 0) {
                for (auto &m : members) {
                    if (m == nullptr)
                        continue;
                    if (m->advance(8192)) {
                        last = m->now();
                        m.reset();
                        --running;
                    }
                }
            }
        } else {
            for (auto &m : members) {
                m->run(0, kInstructions);
                last = m->now();
            }
        }
    }
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(last));
    state.SetItemsProcessed(state.iterations() * 4 * kInstructions);
}
BENCHMARK(BM_BatchedMainLoop)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The typed fill-completion dispatch against the pre-typed shape: a
 * miss's completion either invoked directly (Arg 1, one switch on the
 * tag) or routed through a freshly built std::function (Arg 0, what
 * every fill paid when FillCallback was std::function<void(Cycle)>).
 * Identical fill work on both sides; the delta is the wrapper.
 */
void
BM_FillCompletionTyped(benchmark::State &state)
{
    /// Lower level that parks each fill completion instead of
    /// invoking it, handing it back to the bench loop.
    class CapturingLower : public MemoryLower
    {
      public:
        void
        fetch(const MemAccess &, Cycle, FillCallback done) override
        {
            captured = std::move(done);
        }
        void writeback(Addr, CoreId, Cycle) override {}
        Completion captured;
    };

    const bool typed = state.range(0) != 0;
    EventQueue events;
    CapturingLower lower;
    CacheConfig config{64 * 1024, 8, 4, 8};
    Cache cache("bench", config, events, lower);
    Rng rng(17);
    Cycle now = 0;
    for (auto _ : state) {
        MemAccess access;
        access.block = blockAlign(rng.next() & 0xffffffULL);
        access.pc = 0x1000;
        access.type = AccessType::Load;
        cache.access(access, now, [](Cycle) {});
        if (lower.captured) {
            Completion held = std::move(lower.captured);
            if (typed) {
                held(now + 100);
            } else {
                std::function<void(Cycle)> fn =
                    [done = &held](Cycle when) { (*done)(when); };
                fn(now + 100);
            }
        }
        events.runDue(now + 101);
        now += 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FillCompletionTyped)->Arg(0)->Arg(1);

/**
 * Time `repeat` back-to-back runs of the loop microbench config and
 * return wall seconds, accumulating the simulated cycles into
 * `cycles`.
 */
double
timeMainLoop(const char *workload, bool skip,
             std::uint64_t instructions, unsigned repeat,
             std::uint64_t &cycles)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < repeat; ++i)
        cycles += runMainLoop(workload, skip, instructions);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Wall seconds of `fn()` repeated `iters` times. */
template <typename Fn>
double
timeIt(unsigned iters, const Fn &fn)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i)
        fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Scalar vs widest-level wall time of the two structure kernels the
 * SIMD layer targets, as a JSON fragment: the numbers the perf-smoke
 * CI step tracks alongside the loop speedups.
 */
std::string
microKernelSummary()
{
    constexpr unsigned kIters = 200000;
    Rng rng(61);
    std::array<std::uint64_t, 16> raws;
    for (auto &raw : raws)
        raw = rng.next() & ((1ULL << kBlocksPerRegion) - 1);
    std::vector<std::uint64_t> tags(4096 * 16);
    for (auto &tag : tags)
        tag = blockAlign(rng.next() & 0xffffffffULL);

    const auto footprints = [&raws] {
        benchmark::DoNotOptimize(
            Footprint::unionOf(raws.data(), raws.size()));
        benchmark::DoNotOptimize(
            Footprint::totalCount(raws.data(), raws.size()));
    };
    std::uint64_t probe = 0;
    const auto way_find = [&tags, &probe] {
        const std::size_t set = (probe += 0x9E3779B9u) & 4095;
        benchmark::DoNotOptimize(
            simd::findEqual64(tags.data() + set * 16, 16, 3));
    };

    simd::setLevel(simd::Level::Scalar);
    const double fp_scalar = timeIt(kIters, footprints);
    const double way_scalar = timeIt(kIters, way_find);
    simd::setLevel(simd::detectedLevel());
    const double fp_vector = timeIt(kIters, footprints);
    const double way_vector = timeIt(kIters, way_find);

    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\"simd\":{\"detected\":\"%s\","
        "\"footprint_batch_scalar_seconds\":%.6f,"
        "\"footprint_batch_vector_seconds\":%.6f,"
        "\"footprint_batch_speedup\":%.3f,"
        "\"way_tag_find_scalar_seconds\":%.6f,"
        "\"way_tag_find_vector_seconds\":%.6f,"
        "\"way_tag_find_speedup\":%.3f}",
        simd::levelName(simd::detectedLevel()), fp_scalar, fp_vector,
        fp_vector > 0.0 ? fp_scalar / fp_vector : 0.0, way_scalar,
        way_vector, way_vector > 0.0 ? way_scalar / way_vector : 0.0);
    return buf;
}

/**
 * Sequential vs lockstep wall time of four trace-sharing Systems —
 * the BINGO_BATCH decision in miniature — as a JSON fragment.
 */
std::string
batchedSummary()
{
    constexpr std::uint64_t kInstructions = 50000;
    constexpr unsigned kRepeat = 3;
    std::uint64_t cycles_seq = 0;
    std::uint64_t cycles_batch = 0;
    const double sequential = timeIt(kRepeat, [&cycles_seq] {
        for (auto &m : makeBatchMembers()) {
            m->run(0, kInstructions);
            cycles_seq += m->now();
        }
    });
    const double batched = timeIt(kRepeat, [&cycles_batch] {
        auto members = makeBatchMembers();
        for (auto &m : members)
            m->beginRun(0, kInstructions);
        std::size_t running = members.size();
        while (running > 0) {
            for (auto &m : members) {
                if (m == nullptr)
                    continue;
                if (m->advance(8192)) {
                    cycles_batch += m->now();
                    m.reset();
                    --running;
                }
            }
        }
    });
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"batched\":{\"members\":4,\"instructions\":%llu,"
                  "\"runs\":%u,\"wall_seconds_sequential\":%.6f,"
                  "\"wall_seconds_batched\":%.6f,\"speedup\":%.3f,"
                  "\"identical_cycles\":%s}",
                  static_cast<unsigned long long>(kInstructions),
                  kRepeat, sequential, batched,
                  batched > 0.0 ? sequential / batched : 0.0,
                  cycles_seq == cycles_batch ? "true" : "false");
    return buf;
}

/**
 * Generation vs cached-replay wall time over 64 Ki instructions, pulled
 * as ops in the core's fetch-sized pieces, plus the cache's own
 * counters, as a JSON fragment.
 */
std::string
traceCacheSummary()
{
    TraceCache &cache = TraceCache::instance();
    constexpr std::size_t kInstructions = std::size_t{1} << 16;
    constexpr std::size_t kPull = 64;
    std::array<TraceOp, kPull> ops;
    const auto pullAll = [&ops](TraceSource &source) {
        for (std::size_t done = 0; done < kInstructions; done += kPull)
            benchmark::DoNotOptimize(source.nextOps(ops.data(), kPull));
    };

    const double generate = timeIt(3, [&pullAll] {
        auto source = makeWorkload("Data Serving", 1, 4242);
        pullAll(*source);
    });
    auto primer = cache.acquire("Data Serving", 1, 4242);
    pullAll(*primer);
    const double replay = timeIt(3, [&cache, &pullAll] {
        auto source = cache.acquire("Data Serving", 1, 4242);
        pullAll(*source);
    });

    const TraceCacheStats stats = cache.stats();
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\"trace_cache\":{\"enabled\":%s,"
        "\"generate_chunk_seconds\":%.6f,"
        "\"replay_chunk_seconds\":%.6f,\"replay_speedup\":%.3f,"
        "\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
        "\"bytes\":%llu,\"records_generated\":%llu}",
        cache.enabled() ? "true" : "false", generate, replay,
        replay > 0.0 ? generate / replay : 0.0,
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.records_generated));
    return buf;
}

/**
 * BENCH_mainloop.json: skip-off vs skip-on wall time of the stall- and
 * compute-heavy loop configurations, with the speedup ratios — the
 * machine-readable record the figure-bench BENCH_*.json files are
 * compared against in EXPERIMENTS.md — plus the SIMD kernel and
 * trace-cache micro numbers the perf-smoke CI step tracks.
 */
void
writeMainLoopSummary()
{
    struct Case
    {
        const char *key;
        const char *workload;
        std::uint64_t instructions;
    };
    const Case cases[] = {{"stall_heavy", "em3d", 20000},
                          {"compute_heavy", "SAT Solver", 100000}};
    constexpr unsigned kRepeat = 3;

    std::string json = "{\"bench\":\"mainloop\"";
    for (const Case &c : cases) {
        std::uint64_t cycles_step = 0;
        std::uint64_t cycles_skip = 0;
        const double step = timeMainLoop(c.workload, false,
                                         c.instructions, kRepeat,
                                         cycles_step);
        const double skip = timeMainLoop(c.workload, true,
                                         c.instructions, kRepeat,
                                         cycles_skip);
        const double speedup = skip > 0.0 ? step / skip : 0.0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      ",\"%s\":{\"workload\":\"%s\","
                      "\"instructions\":%llu,\"runs\":%u,"
                      "\"wall_seconds_step\":%.6f,"
                      "\"wall_seconds_skip\":%.6f,"
                      "\"speedup\":%.3f,\"identical_cycles\":%s}",
                      c.key, c.workload,
                      static_cast<unsigned long long>(c.instructions),
                      kRepeat, step, skip, speedup,
                      cycles_step == cycles_skip ? "true" : "false");
        json += buf;
    }
    json += batchedSummary();
    json += microKernelSummary();
    json += traceCacheSummary();
    json += "}\n";
    try {
        telemetry::atomicWrite("BENCH_mainloop.json", json);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeMainLoopSummary();
    return 0;
}

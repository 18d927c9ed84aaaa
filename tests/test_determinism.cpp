/**
 * @file
 * Reproducibility tests: identical seeds must produce bit-identical
 * simulations — the property every experiment in bench/ relies on —
 * and the prefetcher factory must build what it is asked for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/simd.hpp"
#include "workload/generator.hpp"
#include "prefetch/ampm.hpp"
#include "prefetch/bingo.hpp"
#include "prefetch/bingo_multi.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/event_study.hpp"
#include "prefetch/nextline.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"
#include "prefetch/stride.hpp"
#include "prefetch/vldp.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

RunResult
runOnce(PrefetcherKind kind, std::uint64_t seed)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = kind;
    config.seed = seed;
    System system(config, "Data Serving");
    system.run(10000, 20000);
    return collectResult(system, "Data Serving");
}

/** One run with the fast-forward path explicitly toggled. */
RunResult
runWithSkip(PrefetcherKind kind, bool skip, Cycle *final_cycle,
            std::uint64_t *skipped)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = kind;
    config.seed = 7;
    System system(config, "Data Serving");
    system.setCycleSkipping(skip);
    system.run(10000, 20000);
    if (final_cycle != nullptr)
        *final_cycle = system.now();
    if (skipped != nullptr)
        *skipped = system.skippedCycles();
    return collectResult(system, "Data Serving");
}

/** Every simulation-visible counter of two runs must agree. */
void
expectIdenticalResults(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.core_ipc, b.core_ipc);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llc.demand_accesses, b.llc.demand_accesses);
    EXPECT_EQ(a.llc.demand_misses, b.llc.demand_misses);
    EXPECT_EQ(a.llc.late_prefetch_hits, b.llc.late_prefetch_hits);
    EXPECT_EQ(a.llc.useful_prefetches, b.llc.useful_prefetches);
    EXPECT_EQ(a.llc.useless_prefetches, b.llc.useless_prefetches);
    EXPECT_EQ(a.llc.late_useful_prefetches,
              b.llc.late_useful_prefetches);
    EXPECT_EQ(a.llc.prefetch_fills, b.llc.prefetch_fills);
    EXPECT_EQ(a.llc.demand_miss_latency, b.llc.demand_miss_latency);
    EXPECT_EQ(a.l1d.demand_accesses, b.l1d.demand_accesses);
    EXPECT_EQ(a.l1d.demand_misses, b.l1d.demand_misses);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.writes, b.dram.writes);
    EXPECT_EQ(a.dram.row_hits, b.dram.row_hits);
    EXPECT_EQ(a.dram.queue_delay_cycles, b.dram.queue_delay_cycles);
}

TEST(Determinism, IdenticalSeedsIdenticalRuns)
{
    const RunResult a = runOnce(PrefetcherKind::Bingo, 7);
    const RunResult b = runOnce(PrefetcherKind::Bingo, 7);
    EXPECT_EQ(a.core_ipc, b.core_ipc);
    EXPECT_EQ(a.llc.demand_misses, b.llc.demand_misses);
    EXPECT_EQ(a.llc.useful_prefetches, b.llc.useful_prefetches);
    EXPECT_EQ(a.llc.useless_prefetches, b.llc.useless_prefetches);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.row_hits, b.dram.row_hits);
}

TEST(Determinism, DifferentSeedsDifferentRuns)
{
    const RunResult a = runOnce(PrefetcherKind::None, 7);
    const RunResult b = runOnce(PrefetcherKind::None, 8);
    EXPECT_NE(a.llc.demand_misses, b.llc.demand_misses);
}

/**
 * Telemetry is read-only over the simulation: a run with collectors
 * attached must be bit-identical to a run without (the determinism
 * guard that keeps observability from perturbing the experiments).
 */
TEST(Determinism, TelemetryDoesNotPerturbResults)
{
    const RunResult plain = runOnce(PrefetcherKind::Bingo, 7);

    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    telemetry::Options options;
    options.epoch_instructions = 2000;  // Many epoch boundaries.
    system.enableTelemetry(options);
    system.run(10000, 20000);
    const RunResult observed = collectResult(system, "Data Serving");

    expectIdenticalResults(plain, observed);

    // The collectors must actually have been collecting.
    ASSERT_NE(system.telemetry(), nullptr);
    const auto &records = system.telemetry()->epochs().records();
    ASSERT_FALSE(records.empty());
    std::uint64_t measure_instructions = 0;
    for (const auto &record : records) {
        if (record.phase == "measure")
            measure_instructions += record.delta.instructions;
    }
    EXPECT_EQ(measure_instructions, observed.instructions);
}

/**
 * The tentpole guarantee of the fast-forward run loop: skipping stall
 * cycles must be bit-identical to stepping through them — same
 * counters, same final cycle — across prefetcher configs with very
 * different stall structure (no prefetcher stalls the most; Bingo and
 * BOP overlap misses and reshape every stall window).
 */
class SkipEquivalenceTest
    : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(SkipEquivalenceTest, SkipOnMatchesSkipOffBitIdentically)
{
    Cycle stepped_end = 0;
    Cycle skipped_end = 0;
    std::uint64_t stepped_jumps = 0;
    std::uint64_t skipped_jumps = 0;
    const RunResult stepped =
        runWithSkip(GetParam(), false, &stepped_end, &stepped_jumps);
    const RunResult skipped =
        runWithSkip(GetParam(), true, &skipped_end, &skipped_jumps);

    expectIdenticalResults(stepped, skipped);
    EXPECT_EQ(stepped_end, skipped_end);
    // The toggle must actually change the execution strategy, or this
    // test proves nothing.
    EXPECT_EQ(stepped_jumps, 0u);
    EXPECT_GT(skipped_jumps, 0u);
    EXPECT_LT(skipped_jumps, skipped_end);
}

INSTANTIATE_TEST_SUITE_P(Prefetchers, SkipEquivalenceTest,
                         ::testing::Values(PrefetcherKind::None,
                                           PrefetcherKind::Bingo,
                                           PrefetcherKind::Bop,
                                           PrefetcherKind::Isb,
                                           PrefetcherKind::Domino,
                                           PrefetcherKind::Hybrid));

/**
 * With telemetry on, the skipped loop must produce exactly the same
 * epoch stream: same record count, phases, boundaries, and deltas.
 * (The fast-forward path caps jumps at the epoch-check boundary so
 * samples land on the same cycles the stepped loop samples at.)
 */
/** Two telemetry runs must have produced the same epoch stream. */
void
expectIdenticalEpochs(const System &stepped, const System &skipped)
{
    const auto &a = stepped.telemetry()->epochs().records();
    const auto &b = skipped.telemetry()->epochs().records();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].phase, b[i].phase) << "epoch " << i;
        EXPECT_EQ(a[i].index, b[i].index) << "epoch " << i;
        EXPECT_EQ(a[i].start_cycle, b[i].start_cycle) << "epoch " << i;
        EXPECT_EQ(a[i].end_cycle, b[i].end_cycle) << "epoch " << i;
        EXPECT_EQ(a[i].delta.instructions, b[i].delta.instructions)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.llc_demand_misses,
                  b[i].delta.llc_demand_misses)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.dram_reads, b[i].delta.dram_reads)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.pf_issued, b[i].delta.pf_issued)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.pf_useful, b[i].delta.pf_useful)
            << "epoch " << i;
    }
}

TEST(Determinism, SkipPreservesTelemetryEpochStreams)
{
    const auto runTelemetry = [](bool skip) {
        SystemConfig config = SystemConfig::singleCore();
        config.prefetcher.kind = PrefetcherKind::Bingo;
        config.seed = 7;
        auto system =
            std::make_unique<System>(config, "Data Serving");
        system->setCycleSkipping(skip);
        telemetry::Options options;
        options.epoch_instructions = 2000;  // Many epoch boundaries.
        system->enableTelemetry(options);
        system->run(10000, 20000);
        return system;
    };
    const auto stepped = runTelemetry(false);
    const auto skipped = runTelemetry(true);
    EXPECT_GT(skipped->skippedCycles(), 0u);
    expectIdenticalEpochs(*stepped, *skipped);
}

/**
 * The same guarantee at the two extremes of non-memory run length, on
 * the 4-core machine: Streaming (mean run 266 instructions, long lazy
 * dispatch windows) and Markov Chase (mean run 6.7, mostly stalls),
 * without a prefetcher and under Bingo, telemetry on. Results, end
 * cycles and epoch streams must match with skipping on and off.
 */
class MultiCoreSkipEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<const char *, PrefetcherKind>>
{
};

TEST_P(MultiCoreSkipEquivalenceTest, SkipOnMatchesSkipOffWithEpochs)
{
    const auto [workload, kind] = GetParam();
    const auto runTelemetry = [&, workload = workload,
                               kind = kind](bool skip) {
        SystemConfig config;
        config.prefetcher.kind = kind;
        config.seed = 11;
        auto system = std::make_unique<System>(config, workload);
        system->setCycleSkipping(skip);
        telemetry::Options options;
        options.epoch_instructions = 8000;  // Many epoch boundaries.
        system->enableTelemetry(options);
        system->run(20000, 50000);
        return system;
    };
    const auto stepped = runTelemetry(false);
    const auto skipped = runTelemetry(true);
    ASSERT_EQ(stepped->numCores(), 4u);
    expectIdenticalResults(collectResult(*stepped, workload),
                           collectResult(*skipped, workload));
    EXPECT_EQ(stepped->now(), skipped->now());
    EXPECT_EQ(stepped->skippedCycles(), 0u);
    EXPECT_GT(skipped->skippedCycles(), 0u);
    expectIdenticalEpochs(*stepped, *skipped);
}

INSTANTIATE_TEST_SUITE_P(
    RunLengthExtremes, MultiCoreSkipEquivalenceTest,
    ::testing::Combine(::testing::Values("Streaming", "Markov Chase"),
                       ::testing::Values(PrefetcherKind::None,
                                         PrefetcherKind::Bingo)),
    [](const auto &info) {
        std::string name = std::string(std::get<0>(info.param)) + "_" +
                           prefetcherName(std::get<1>(info.param));
        std::replace(name.begin(), name.end(), ' ', '_');
        return name;
    });

/**
 * Chaos does not weaken the reproducibility guarantee: fault draws
 * happen per opportunity (per record, access, fetch), never per cycle,
 * so a chaos run is bit-identical across repeats and across the
 * fast-forward toggle — the property that makes a chaos experiment a
 * reproducible experiment rather than a flaky one.
 */
RunResult
runChaos(bool skip, std::uint64_t chaos_seed,
         chaos::ChaosCounters *counters, std::uint64_t *skipped)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    config.chaos.enabled = true;
    config.chaos.seed = chaos_seed;
    config.chaos.rate = 0.002;
    config.chaos.site_mask = 0x1F;
    System system(config, "Data Serving");
    system.setCycleSkipping(skip);
    system.run(10000, 20000);
    if (counters != nullptr)
        *counters = system.chaosEngine()->counters();
    if (skipped != nullptr)
        *skipped = system.skippedCycles();
    return collectResult(system, "Data Serving");
}

void
expectIdenticalChaosCounters(const chaos::ChaosCounters &a,
                             const chaos::ChaosCounters &b)
{
    EXPECT_EQ(a.trace_corruptions, b.trace_corruptions);
    EXPECT_EQ(a.dram_delays, b.dram_delays);
    EXPECT_EQ(a.dram_drops, b.dram_drops);
    EXPECT_EQ(a.metadata_flips, b.metadata_flips);
    EXPECT_EQ(a.mshr_spikes, b.mshr_spikes);
    EXPECT_EQ(a.injected_prefetcher_faults,
              b.injected_prefetcher_faults);
}

TEST(ChaosDeterminism, SameSeedsSameFaultsSameRun)
{
    chaos::ChaosCounters ca;
    chaos::ChaosCounters cb;
    const RunResult a = runChaos(true, 99, &ca, nullptr);
    const RunResult b = runChaos(true, 99, &cb, nullptr);
    expectIdenticalResults(a, b);
    expectIdenticalChaosCounters(ca, cb);
    // The injector must actually have been injecting.
    EXPECT_GT(ca.trace_corruptions, 0u);
}

TEST(ChaosDeterminism, SkipOnMatchesSkipOffUnderChaos)
{
    chaos::ChaosCounters stepped_counters;
    chaos::ChaosCounters skipped_counters;
    std::uint64_t stepped_jumps = 0;
    std::uint64_t skipped_jumps = 0;
    const RunResult stepped =
        runChaos(false, 99, &stepped_counters, &stepped_jumps);
    const RunResult skipped =
        runChaos(true, 99, &skipped_counters, &skipped_jumps);
    expectIdenticalResults(stepped, skipped);
    expectIdenticalChaosCounters(stepped_counters, skipped_counters);
    // Same faults, but genuinely different execution strategies.
    EXPECT_EQ(stepped_jumps, 0u);
    EXPECT_GT(skipped_jumps, 0u);
}

TEST(ChaosDeterminism, DifferentChaosSeedDifferentFaults)
{
    chaos::ChaosCounters ca;
    chaos::ChaosCounters cb;
    const RunResult a = runChaos(true, 99, &ca, nullptr);
    const RunResult b = runChaos(true, 100, &cb, nullptr);
    const bool counters_differ =
        ca.trace_corruptions != cb.trace_corruptions ||
        ca.dram_delays != cb.dram_delays ||
        ca.dram_drops != cb.dram_drops ||
        ca.metadata_flips != cb.metadata_flips ||
        ca.mshr_spikes != cb.mshr_spikes ||
        ca.injected_prefetcher_faults !=
            cb.injected_prefetcher_faults;
    const bool results_differ =
        a.llc.demand_misses != b.llc.demand_misses ||
        a.dram.reads != b.dram.reads;
    EXPECT_TRUE(counters_differ || results_differ);
}

/**
 * The SIMD layer's contract: the vector kernels are bit-exact drop-ins
 * for their scalar oracles, so a whole simulation — every prefetcher,
 * whose table scans, footprint votes, and MSHR/way lookups all route
 * through the kernels — must not be able to tell the levels apart.
 */
class SimdEquivalenceTest
    : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(SimdEquivalenceTest, ScalarMatchesVectorBitIdentically)
{
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "no vector unit detected";
    const simd::Level saved = simd::activeLevel();
    simd::setLevel(simd::Level::Scalar);
    const RunResult scalar = runOnce(GetParam(), 7);
    simd::setLevel(simd::detectedLevel());
    const RunResult vector = runOnce(GetParam(), 7);
    simd::setLevel(saved);
    expectIdenticalResults(scalar, vector);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SimdEquivalenceTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::NextLine,
                      PrefetcherKind::Stride, PrefetcherKind::Bop,
                      PrefetcherKind::Spp, PrefetcherKind::Vldp,
                      PrefetcherKind::Ampm, PrefetcherKind::Sms,
                      PrefetcherKind::Bingo,
                      PrefetcherKind::BingoMulti,
                      PrefetcherKind::EventStudy, PrefetcherKind::Isb,
                      PrefetcherKind::Domino,
                      PrefetcherKind::Hybrid));

/** Chaos fault schedules must also be level-independent. */
TEST(SimdEquivalence, ChaosRunsIdenticalAcrossLevels)
{
    if (simd::detectedLevel() == simd::Level::Scalar)
        GTEST_SKIP() << "no vector unit detected";
    const simd::Level saved = simd::activeLevel();
    chaos::ChaosCounters scalar_counters;
    chaos::ChaosCounters vector_counters;
    simd::setLevel(simd::Level::Scalar);
    const RunResult scalar =
        runChaos(true, 99, &scalar_counters, nullptr);
    simd::setLevel(simd::detectedLevel());
    const RunResult vector =
        runChaos(true, 99, &vector_counters, nullptr);
    simd::setLevel(saved);
    expectIdenticalResults(scalar, vector);
    expectIdenticalChaosCounters(scalar_counters, vector_counters);
}

/** The factory builds every advertised prefetcher. */
class FactoryTest : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(FactoryTest, BuildsCorrectType)
{
    PrefetcherConfig config;
    config.kind = GetParam();
    auto pf = makePrefetcher(config);
    if (GetParam() == PrefetcherKind::None) {
        EXPECT_EQ(pf, nullptr);
        return;
    }
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->name(), GetParam() == PrefetcherKind::EventStudy
                              ? "EventStudy"
                              : prefetcherName(GetParam()));
    // Every prefetcher tolerates a burst of arbitrary accesses.
    std::vector<Addr> out;
    for (Addr b = 0; b < 64; ++b) {
        PrefetchAccess access;
        access.pc = 0x400 + (b % 8) * 4;
        access.block = b * kBlockSize;
        pf->onAccess(access, out);
    }
    pf->onEviction(0);
    for (Addr target : out)
        EXPECT_EQ(target % kBlockSize, 0u) << "unaligned prefetch";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FactoryTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::NextLine,
                      PrefetcherKind::Stride, PrefetcherKind::Bop,
                      PrefetcherKind::Spp, PrefetcherKind::Vldp,
                      PrefetcherKind::Ampm, PrefetcherKind::Sms,
                      PrefetcherKind::Bingo,
                      PrefetcherKind::BingoMulti,
                      PrefetcherKind::EventStudy, PrefetcherKind::Isb,
                      PrefetcherKind::Domino,
                      PrefetcherKind::Hybrid));

/** SPEC kernels must exhibit their documented locality classes. */
TEST(SpecKernels, LibquantumIsSequential)
{
    auto kernel = makeSpecKernel("libquantum", 3);
    Addr prev = 0;
    int sequential = 0;
    int loads = 0;
    for (int i = 0; i < 30000; ++i) {
        const TraceRecord rec = kernel->next();
        if (rec.type != InstrType::Load &&
            rec.type != InstrType::Store) {
            continue;
        }
        ++loads;
        if (prev != 0 && blockNumber(rec.addr) == blockNumber(prev) + 1)
            ++sequential;
        prev = rec.addr;
    }
    EXPECT_GT(sequential, loads / 2);
}

TEST(SpecKernels, OmnetppIsIrregular)
{
    auto kernel = makeSpecKernel("omnetpp", 3);
    Addr prev = 0;
    int sequential = 0;
    int loads = 0;
    for (int i = 0; i < 30000; ++i) {
        const TraceRecord rec = kernel->next();
        if (rec.type != InstrType::Load)
            continue;
        ++loads;
        if (prev != 0 &&
            blockNumber(rec.addr) == blockNumber(prev) + 1) {
            ++sequential;
        }
        prev = rec.addr;
    }
    EXPECT_LT(sequential, loads / 4);
}

/** Share of accesses landing on the single most-touched region. */
double
hottestRegionShare(const std::string &kernel_name)
{
    auto kernel = makeSpecKernel(kernel_name, 3);
    std::map<Addr, int> counts;
    int accesses = 0;
    for (int i = 0; i < 400000 && accesses < 5000; ++i) {
        const TraceRecord rec = kernel->next();
        if (rec.type == InstrType::Load ||
            rec.type == InstrType::Store) {
            ++accesses;
            ++counts[regionNumber(rec.addr)];
        }
    }
    int hottest = 0;
    for (const auto &[region, count] : counts)
        hottest = std::max(hottest, count);
    return static_cast<double>(hottest) / accesses;
}

TEST(SpecKernels, PerlbenchRevisitsLbmStreams)
{
    // perlbench's hot interpreter state is revisited constantly; lbm
    // streams through fresh grid regions and never returns within a
    // short window. The hottest region's access share separates the
    // two locality classes.
    EXPECT_GT(hottestRegionShare("perlbench"),
              2.0 * hottestRegionShare("lbm"));
}

// --- Sliced runs (System::beginRun / advance) ------------------------

/** Drive `system` through beginRun() and advance(k) calls to the end. */
std::uint64_t
runSliced(System &system, std::uint64_t warmup, std::uint64_t measure,
          std::uint64_t k)
{
    system.beginRun(warmup, measure);
    std::uint64_t calls = 1;
    while (!system.advance(k))
        ++calls;
    EXPECT_TRUE(system.runDone());
    // Once done, further calls are no-ops that keep returning true.
    EXPECT_TRUE(system.advance(k));
    return calls;
}

/**
 * run() is beginRun() followed by advance() to completion, and the
 * phase machinery must walk the same state transitions however the
 * advance() calls are sliced. Oracle: a monolithic run() of the
 * four-core Table I machine under chaos against the same run sliced
 * into 1-, 7- and 8192-iteration advance() calls. Every run crosses
 * the warmup→measure boundary, and every slice width cuts a phase
 * mid-way.
 */
TEST(SlicedRun, AdvanceSlicesMatchMonolithicRun)
{
    constexpr std::uint64_t kWarmup = 60000;
    constexpr std::uint64_t kMeasure = 20000;
    SystemConfig config;
    ASSERT_GT(config.num_cores, 1u);
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    config.chaos.enabled = true;
    config.chaos.seed = 99;
    config.chaos.rate = 0.002;
    config.chaos.site_mask = 0x1F;
    const std::string workload = "Data Serving";

    System whole(config, workload);
    whole.run(kWarmup, kMeasure);
    const RunResult want = collectResult(whole, workload);
    const chaos::ChaosCounters want_chaos =
        whole.chaosEngine()->counters();
    // The injector must actually have been injecting.
    EXPECT_GT(want_chaos.trace_corruptions, 0u);

    for (const std::uint64_t k : {1u, 7u, 8192u}) {
        SCOPED_TRACE("advance(" + std::to_string(k) + ")");
        System sliced(config, workload);
        const std::uint64_t calls =
            runSliced(sliced, kWarmup, kMeasure, k);
        // Two calls would mean neither phase was cut by the budget.
        EXPECT_GT(calls, 2u);
        const RunResult got = collectResult(sliced, workload);
        EXPECT_EQ(sliced.now(), whole.now());
        EXPECT_EQ(sliced.skippedCycles(), whole.skippedCycles());
        expectIdenticalResults(want, got);
        expectIdenticalChaosCounters(want_chaos,
                                     sliced.chaosEngine()->counters());
        // Every field the journal records, byte for byte.
        EXPECT_EQ(journalEncode("sliced", got),
                  journalEncode("sliced", want));
    }
}

} // namespace
} // namespace bingo

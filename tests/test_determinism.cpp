/**
 * @file
 * Reproducibility tests: identical seeds must produce bit-identical
 * simulations — the property every experiment in bench/ relies on —
 * and the prefetcher factory must build what it is asked for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

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

    const auto &a = stepped->telemetry()->epochs().records();
    const auto &b = skipped->telemetry()->epochs().records();
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

// --- Batched lockstep sweeps (BINGO_BATCH) -----------------------------

using test::EnvVar;
using test::TempDir;

/**
 * Six jobs sharing one trace stream — same workload, seed, warmup and
 * measure — differing only by prefetcher, so BINGO_BATCH > 1 groups
 * them into lockstep units.
 */
std::vector<SweepJob>
batchableJobs()
{
    const PrefetcherKind kinds[] = {
        PrefetcherKind::None, PrefetcherKind::Stride,
        PrefetcherKind::NextLine, PrefetcherKind::Bop,
        PrefetcherKind::Sms, PrefetcherKind::Bingo};
    std::vector<SweepJob> jobs;
    for (const PrefetcherKind kind : kinds) {
        SweepJob job;
        job.workload = "Data Serving";
        job.config = SystemConfig::singleCore();
        job.config.prefetcher.kind = kind;
        job.options.warmup_instructions = 2000;
        job.options.measure_instructions = 5000;
        job.options.seed = 42;
        jobs.push_back(job);
    }
    return jobs;
}

/** Filename -> full contents of every journal record in `dir`. */
std::map<std::string, std::string>
journalSnapshot(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::string contents(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        files.emplace(entry.path().filename().string(),
                      std::move(contents));
    }
    return files;
}

/**
 * One journaled sweep of the batchable jobs at the given batch width
 * and worker count; returns the byte-exact journal it produced.
 */
std::map<std::string, std::string>
journaledSweep(unsigned batch, unsigned num_threads)
{
    const TempDir dir("batch" + std::to_string(batch) + "x" +
                      std::to_string(num_threads));
    const EnvVar journal_env("BINGO_JOURNAL_DIR", dir.path());
    const EnvVar batch_env("BINGO_BATCH", std::to_string(batch));
    const std::vector<SweepJob> jobs = batchableJobs();
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, num_threads);
    for (const JobOutcome &outcome : outcomes)
        EXPECT_TRUE(outcome.ok()) << outcome.error;
    return journalSnapshot(dir.path());
}

/**
 * The batched sweep's bit-identity oracle: journals are byte-for-byte
 * identical across every BINGO_BATCH width — each batch member is an
 * isolated machine driven through exactly the state transitions a
 * solo run() performs, only interleaved on the worker thread.
 */
TEST(BatchedDeterminism, JournalsIdenticalAcrossBatchWidths)
{
    const auto reference = journaledSweep(1, 1);
    // One record per job plus manifest.sweep (itself a pure function
    // of the job list, so it participates in the byte-compare below).
    ASSERT_EQ(reference.size(), batchableJobs().size() + 1);
    ASSERT_EQ(reference.count("manifest.sweep"), 1u);
    for (const unsigned batch : {2u, 4u, 8u}) {
        EXPECT_EQ(reference, journaledSweep(batch, 1))
            << "BINGO_BATCH=" << batch;
    }
}

TEST(BatchedDeterminism, JournalsIdenticalAcrossWorkerCounts)
{
    const auto serial = journaledSweep(4, 1);
    const auto threaded = journaledSweep(4, 2);
    EXPECT_EQ(serial, threaded);
}

/**
 * Batching composes with the cycle-skip toggle: a batched sweep with
 * fast-forwarding disabled still matches the batch=1 default-skip
 * journal bit-for-bit (skip equivalence and batch equivalence hold
 * simultaneously, not just each against its own reference).
 */
TEST(BatchedDeterminism, BatchedSkipOffMatchesUnbatchedSkipOn)
{
    const auto reference = journaledSweep(1, 1);
    System::setCycleSkippingDefault(false);
    const auto no_skip = journaledSweep(4, 1);
    System::setCycleSkippingDefault(std::nullopt);
    EXPECT_EQ(reference, no_skip);
}

/** Batching composes with the SIMD toggle the same way. */
TEST(BatchedDeterminism, BatchedScalarMatchesUnbatchedVector)
{
    const auto reference = journaledSweep(1, 1);
    const simd::Level saved = simd::activeLevel();
    simd::setLevel(simd::Level::Scalar);
    const auto scalar = journaledSweep(4, 1);
    simd::setLevel(saved);
    EXPECT_EQ(reference, scalar);
}

/**
 * Chaos under batching: fault draws happen per opportunity inside
 * each System's own engine, so lockstep interleaving must not move a
 * single fault — identical counters and results at every width.
 */
TEST(BatchedChaosDeterminism, IdenticalFaultScheduleAcrossWidths)
{
    const auto chaosSweep = [](unsigned batch) {
        const EnvVar batch_env("BINGO_BATCH", std::to_string(batch));
        std::vector<SweepJob> jobs = batchableJobs();
        for (SweepJob &job : jobs) {
            job.config.chaos.enabled = true;
            job.config.chaos.seed = 99;
            job.config.chaos.rate = 0.002;
            job.config.chaos.site_mask = 0x1F;
        }
        std::vector<chaos::ChaosCounters> counters(jobs.size());
        std::vector<RunResult> results(jobs.size());
        runSweepSystems(
            jobs,
            [&](std::size_t i, System &system) {
                counters[i] = system.chaosEngine()->counters();
                results[i] =
                    collectResult(system, jobs[i].workload);
            },
            1);
        return std::make_pair(std::move(counters),
                              std::move(results));
    };
    const auto [ref_counters, ref_results] = chaosSweep(1);
    const auto [batched_counters, batched_results] = chaosSweep(4);
    ASSERT_EQ(ref_counters.size(), batched_counters.size());
    std::uint64_t total_faults = 0;
    for (std::size_t i = 0; i < ref_counters.size(); ++i) {
        expectIdenticalChaosCounters(ref_counters[i],
                                     batched_counters[i]);
        expectIdenticalResults(ref_results[i], batched_results[i]);
        total_faults += ref_counters[i].trace_corruptions;
    }
    // The injector must actually have been injecting.
    EXPECT_GT(total_faults, 0u);
}

} // namespace
} // namespace bingo

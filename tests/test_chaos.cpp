/**
 * @file
 * Tests of the chaos fault-injection subsystem: spec parsing, the
 * per-site deterministic fault schedule, trace corruption, the
 * GuardedPrefetcher quarantine path, the shadow memory model, the
 * DEGRADED sweep verdict, journal round-trips of degraded results,
 * and the well-formed run.json guarantee for degraded/failed jobs.
 *
 * Environment knobs are set per test through an RAII guard; ctest runs
 * every test in its own process (gtest_discover_tests), so the
 * mutations never leak across tests. BINGO_CHAOS itself is cached
 * process-wide, so these tests drive chaos through explicit
 * SystemConfig::chaos plans and test the env path via parseChaosSpec.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "chaos/chaos.hpp"
#include "chaos/guarded_prefetcher.hpp"
#include "chaos/shadow_memory.hpp"
#include "common/sim_check.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using test::EnvVar;
using test::TempDir;

ExperimentOptions
smallOptions(std::uint64_t seed = 42)
{
    ExperimentOptions options;
    options.warmup_instructions = 4000;
    options.measure_instructions = 8000;
    options.seed = seed;
    return options;
}

/** A chaos plan injecting prefetcher faults on the first opportunity. */
ChaosConfig
prefetcherFaultPlan()
{
    ChaosConfig plan;
    plan.enabled = true;
    plan.seed = 17;
    plan.rate = 1.0;
    plan.site_mask = chaos::siteBit(chaos::ChaosSite::Prefetcher);
    return plan;
}

SweepJob
chaosJob(const std::string &workload, PrefetcherKind kind,
         const ChaosConfig &plan)
{
    SweepJob job;
    job.workload = workload;
    job.config.prefetcher.kind = kind;
    job.config.chaos = plan;
    job.options = smallOptions();
    return job;
}

// ---------------------------------------------------------------------
// Spec parsing.

TEST(ChaosSpec, ParsesSeedRateWithDefaultSites)
{
    const ChaosConfig config = chaos::parseChaosSpec("7:0.001");
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.seed, 7u);
    EXPECT_DOUBLE_EQ(config.rate, 0.001);
    EXPECT_EQ(config.site_mask, 0x1Fu);
}

TEST(ChaosSpec, ParsesSiteLists)
{
    EXPECT_EQ(chaos::parseChaosSpec("1:0.5:meta").site_mask,
              chaos::siteBit(chaos::ChaosSite::Metadata));
    EXPECT_EQ(chaos::parseChaosSpec("1:0.5:trace,dram,pf").site_mask,
              chaos::siteBit(chaos::ChaosSite::Trace) |
                  chaos::siteBit(chaos::ChaosSite::Dram) |
                  chaos::siteBit(chaos::ChaosSite::Prefetcher));
    EXPECT_EQ(chaos::parseChaosSpec("1:0.5:all").site_mask, 0x1Fu);
    // Hex seeds work (stoull base 0).
    EXPECT_EQ(chaos::parseChaosSpec("0x10:0.5:mshr").seed, 16u);
}

TEST(ChaosSpec, RoundTripsThroughFormat)
{
    ChaosConfig config;
    config.enabled = true;
    config.seed = 12345;
    config.rate = 0.25;
    config.site_mask = chaos::siteBit(chaos::ChaosSite::Dram) |
                       chaos::siteBit(chaos::ChaosSite::Mshr);
    const ChaosConfig round =
        chaos::parseChaosSpec(chaos::formatChaosSpec(config));
    EXPECT_EQ(round.seed, config.seed);
    EXPECT_DOUBLE_EQ(round.rate, config.rate);
    EXPECT_EQ(round.site_mask, config.site_mask);
}

TEST(ChaosSpec, RejectsMalformedSpecs)
{
    const std::vector<std::string> bad = {
        "",          "7",          "7:0.1:meta:extra", "x:0.1",
        "7x:0.1",    "7:rate",     "7:0.1x",           "7:1.5",
        "7:-0.25",   "7:nan",      "7:0.1:bogus",      "7:0.1:",
        "7:0.1:meta,",
    };
    for (const std::string &spec : bad) {
        EXPECT_THROW(chaos::parseChaosSpec(spec),
                     std::invalid_argument)
            << "spec: \"" << spec << "\"";
    }
}

TEST(ChaosSpec, EnvOverlayKeepsExplicitPlans)
{
    // BINGO_CHAOS is unset in the test environment (and cached), so
    // the overlay must be a no-op on a clean config and must never
    // clobber an explicitly configured plan.
    SystemConfig clean;
    chaos::applyEnvChaos(clean);
    EXPECT_FALSE(clean.chaos.enabled);

    SystemConfig explicit_plan;
    explicit_plan.chaos = prefetcherFaultPlan();
    chaos::applyEnvChaos(explicit_plan);
    EXPECT_TRUE(explicit_plan.chaos.enabled);
    EXPECT_EQ(explicit_plan.chaos.seed, 17u);
}

TEST(ChaosSpec, ValidateRejectsBadPlans)
{
    SystemConfig config;
    config.chaos.enabled = true;
    config.chaos.rate = 1.5;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.chaos.rate = 0.1;
    config.chaos.site_mask = 0;
    EXPECT_THROW(config.validate(), std::invalid_argument);

    config.chaos.site_mask = 0x1F;
    EXPECT_NO_THROW(config.validate());
}

// ---------------------------------------------------------------------
// Fault schedule determinism.

TEST(ChaosEngine, SameSeedsSameSchedule)
{
    ChaosConfig plan;
    plan.enabled = true;
    plan.seed = 99;
    plan.rate = 0.1;
    plan.site_mask = 0x1F;
    chaos::ChaosEngine a(plan, 7);
    chaos::ChaosEngine b(plan, 7);
    for (int i = 0; i < 2000; ++i) {
        const auto site = static_cast<chaos::ChaosSite>(i % 5);
        EXPECT_EQ(a.fires(site), b.fires(site)) << "draw " << i;
    }
    EXPECT_EQ(a.traceSeed(0), b.traceSeed(0));
    EXPECT_NE(a.traceSeed(0), a.traceSeed(1));
}

TEST(ChaosEngine, MaskedSiteNeverDrawsOrFires)
{
    ChaosConfig meta_only;
    meta_only.enabled = true;
    meta_only.seed = 99;
    meta_only.rate = 1.0;
    meta_only.site_mask = chaos::siteBit(chaos::ChaosSite::Metadata);
    chaos::ChaosEngine engine(meta_only, 7);

    // A masked site reports no fault even at rate 1...
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(engine.fires(chaos::ChaosSite::Dram));
    // ...and its stream was never consumed by those calls: the site's
    // schedule is independent of activity at other sites.
    ChaosConfig all = meta_only;
    all.site_mask = 0x1F;
    chaos::ChaosEngine reference(all, 7);
    EXPECT_EQ(engine.stream(chaos::ChaosSite::Dram).next(),
              reference.stream(chaos::ChaosSite::Dram).next());
}

TEST(ChaosEngine, DifferentSeedsDifferentSchedule)
{
    ChaosConfig plan;
    plan.enabled = true;
    plan.seed = 1;
    plan.rate = 0.5;
    plan.site_mask = 0x1F;
    chaos::ChaosEngine a(plan, 7);
    plan.seed = 2;
    chaos::ChaosEngine b(plan, 7);
    int differing = 0;
    for (int i = 0; i < 256; ++i) {
        if (a.fires(chaos::ChaosSite::Trace) !=
            b.fires(chaos::ChaosSite::Trace))
            ++differing;
    }
    EXPECT_GT(differing, 0);
}

// ---------------------------------------------------------------------
// Trace corruption.

/** Deterministic scripted source: pc = i, addr = i * 64, Loads. */
class ScriptedSource : public TraceSource
{
  public:
    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.pc = counter_;
        rec.addr = counter_ * 64;
        rec.type = InstrType::Load;
        ++counter_;
        return rec;
    }

  private:
    std::uint64_t counter_ = 0;
};

TEST(ChaosTraceSource, CorruptsDeterministically)
{
    std::uint64_t count_a = 0;
    std::uint64_t count_b = 0;
    chaos::ChaosTraceSource a(std::make_unique<ScriptedSource>(), 0.05,
                              123, &count_a);
    chaos::ChaosTraceSource b(std::make_unique<ScriptedSource>(), 0.05,
                              123, &count_b);
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a.next();
        const TraceRecord rb = b.next();
        EXPECT_EQ(ra.pc, rb.pc);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(static_cast<int>(ra.type),
                  static_cast<int>(rb.type));
        // Corruption flips exactly one bit of pc or addr, never type.
        EXPECT_EQ(static_cast<int>(ra.type),
                  static_cast<int>(InstrType::Load));
    }
    EXPECT_EQ(count_a, count_b);
    EXPECT_GT(count_a, 0u);  // 5000 draws at 5% must fire.
}

TEST(ChaosTraceSource, BatchMatchesSingleStepping)
{
    std::uint64_t count_single = 0;
    std::uint64_t count_batch = 0;
    chaos::ChaosTraceSource single(std::make_unique<ScriptedSource>(),
                                   0.05, 123, &count_single);
    chaos::ChaosTraceSource batched(std::make_unique<ScriptedSource>(),
                                    0.05, 123, &count_batch);
    std::vector<TraceRecord> batch(257);
    for (int round = 0; round < 8; ++round) {
        batched.nextBatch(batch.data(), batch.size());
        for (const TraceRecord &rb : batch) {
            const TraceRecord rs = single.next();
            EXPECT_EQ(rs.pc, rb.pc);
            EXPECT_EQ(rs.addr, rb.addr);
        }
    }
    EXPECT_EQ(count_single, count_batch);
}

TEST(ChaosTraceSource, RateZeroIsTransparent)
{
    std::uint64_t count = 0;
    chaos::ChaosTraceSource source(std::make_unique<ScriptedSource>(),
                                   0.0, 123, &count);
    ScriptedSource reference;
    for (int i = 0; i < 1000; ++i) {
        const TraceRecord rc = source.next();
        const TraceRecord rr = reference.next();
        EXPECT_EQ(rc.pc, rr.pc);
        EXPECT_EQ(rc.addr, rr.addr);
    }
    EXPECT_EQ(count, 0u);
}

// ---------------------------------------------------------------------
// GuardedPrefetcher quarantine.

/** Test double whose behaviour is scripted per call. */
class FaultyPrefetcher : public Prefetcher
{
  public:
    enum class Mode
    {
        Clean,
        Throws,
        OutOfRange,
        Runaway,
    };

    FaultyPrefetcher() : Prefetcher(PrefetcherConfig{}) {}

    void
    onAccess(const PrefetchAccess &access,
             std::vector<Addr> &out) override
    {
        (void)access;
        ++calls;
        switch (mode) {
        case Mode::Clean:
            out.push_back(0x4000);
            break;
        case Mode::Throws:
            out.push_back(0x4000);  // Partial output, then die.
            throw std::runtime_error("model exploded");
        case Mode::OutOfRange:
            out.push_back(chaos::GuardedPrefetcher::kMaxCandidateAddr);
            break;
        case Mode::Runaway:
            for (std::size_t i = 0;
                 i <=
                 chaos::GuardedPrefetcher::kMaxCandidatesPerAccess;
                 ++i)
                out.push_back(0x4000 + i * 64);
            break;
        }
    }

    std::string name() const override { return "Faulty"; }

    Mode mode = Mode::Clean;
    int calls = 0;
};

TEST(GuardedPrefetcher, CleanModelPassesThrough)
{
    auto inner = std::make_unique<FaultyPrefetcher>();
    chaos::GuardedPrefetcher guard(std::move(inner), "pf0");
    EXPECT_EQ(guard.name(), "Faulty");

    std::vector<Addr> out;
    PrefetchAccess access;
    access.cycle = 10;
    guard.onAccess(access, out);
    EXPECT_FALSE(guard.quarantined());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x4000u);
}

TEST(GuardedPrefetcher, ThrowingModelIsQuarantinedWithOutputRestored)
{
    auto inner = std::make_unique<FaultyPrefetcher>();
    FaultyPrefetcher *model = inner.get();
    chaos::GuardedPrefetcher guard(std::move(inner), "pf0");

    model->mode = FaultyPrefetcher::Mode::Throws;
    std::vector<Addr> out = {0x9000};  // Pre-existing candidates.
    PrefetchAccess access;
    access.cycle = 42;
    guard.onAccess(access, out);

    EXPECT_TRUE(guard.quarantined());
    EXPECT_EQ(guard.quarantineCycle(), 42u);
    EXPECT_NE(guard.quarantineReason().find("model exploded"),
              std::string::npos);
    // The partial output of the dying call was rolled back.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 0x9000u);

    // Quarantined: the model is never called again.
    model->mode = FaultyPrefetcher::Mode::Clean;
    const int calls_before = model->calls;
    guard.onAccess(access, out);
    guard.onEviction(0x1000);
    EXPECT_EQ(model->calls, calls_before);
    EXPECT_EQ(out.size(), 1u);
}

TEST(GuardedPrefetcher, OutOfRangeCandidateQuarantines)
{
    auto inner = std::make_unique<FaultyPrefetcher>();
    inner->mode = FaultyPrefetcher::Mode::OutOfRange;
    chaos::GuardedPrefetcher guard(std::move(inner), "pf0");

    std::vector<Addr> out;
    PrefetchAccess access;
    access.cycle = 7;
    guard.onAccess(access, out);
    EXPECT_TRUE(guard.quarantined());
    EXPECT_TRUE(out.empty());
}

TEST(GuardedPrefetcher, RunawayBurstQuarantines)
{
    auto inner = std::make_unique<FaultyPrefetcher>();
    inner->mode = FaultyPrefetcher::Mode::Runaway;
    chaos::GuardedPrefetcher guard(std::move(inner), "pf0");

    std::vector<Addr> out;
    guard.onAccess(PrefetchAccess{}, out);
    EXPECT_TRUE(guard.quarantined());
    EXPECT_TRUE(out.empty());
}

TEST(GuardedPrefetcher, InjectedFaultExercisesQuarantinePath)
{
    auto inner = std::make_unique<FaultyPrefetcher>();
    chaos::GuardedPrefetcher guard(std::move(inner), "pf3");
    guard.injectFault();

    std::vector<Addr> out;
    PrefetchAccess access;
    access.cycle = 64;
    guard.onAccess(access, out);
    EXPECT_TRUE(guard.quarantined());
    EXPECT_NE(guard.quarantineReason().find("chaos-injected"),
              std::string::npos);
    EXPECT_EQ(guard.quarantineCycle(), 64u);
    EXPECT_TRUE(out.empty());
}

TEST(GuardedPrefetcher, PerturbMetadataNeverCrashesRealModels)
{
    // Soft errors in any table state must degrade, not crash — for
    // every model with perturbable state, freshly built and after
    // training traffic.
    for (const PrefetcherKind kind :
         {PrefetcherKind::Bingo, PrefetcherKind::Sms,
          PrefetcherKind::Spp, PrefetcherKind::Bop}) {
        PrefetcherConfig config;
        config.kind = kind;
        auto model = makePrefetcher(config);
        ASSERT_NE(model, nullptr);
        Rng rng(5);
        std::vector<Addr> out;
        for (int round = 0; round < 200; ++round) {
            model->perturbMetadata(rng);
            PrefetchAccess access;
            access.pc = 0x400 + (round % 16) * 4;
            access.block = static_cast<Addr>(round) * 64;
            model->onAccess(access, out);
        }
        for (const Addr target : out)
            EXPECT_EQ(target % 64, 0u) << prefetcherName(kind);
    }
}

// ---------------------------------------------------------------------
// Shadow memory.

TEST(ShadowMemory, TracksWritersPerBlock)
{
    chaos::ShadowMemory shadow;
    EXPECT_FALSE(shadow.writtenAny(0x1000));
    shadow.recordWrite(0x1000, 0);
    shadow.recordWrite(0x2000, 1);
    EXPECT_TRUE(shadow.writtenAny(0x1000));
    EXPECT_TRUE(shadow.writtenBy(0x1000, 0));
    EXPECT_FALSE(shadow.writtenBy(0x1000, 1));
    EXPECT_TRUE(shadow.writtenBy(0x2000, 1));
    EXPECT_EQ(shadow.trackedBlocks(), 2u);
}

TEST(ShadowMemory, CleanRunPassesDifferentialCheck)
{
    setSimCheckEnabled(true);
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    ASSERT_NE(system.shadow(), nullptr);
    EXPECT_NO_THROW(system.run(4000, 8000));
    EXPECT_NO_THROW(system.checkInvariants());
    EXPECT_GT(system.shadow()->trackedBlocks(), 0u);
    setSimCheckEnabled(false);
}

TEST(ShadowMemory, ChaosRunSurvivesDifferentialCheck)
{
    // Trace corruption + DRAM faults + MSHR spikes, with the shadow
    // model verifying the hierarchy throughout: injected chaos must
    // degrade performance, not correctness.
    setSimCheckEnabled(true);
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    config.chaos.enabled = true;
    config.chaos.seed = 31;
    config.chaos.rate = 0.1;
    config.chaos.site_mask =
        chaos::siteBit(chaos::ChaosSite::Trace) |
        chaos::siteBit(chaos::ChaosSite::Dram) |
        chaos::siteBit(chaos::ChaosSite::Mshr);
    System system(config, "Data Serving");
    EXPECT_NO_THROW(system.run(4000, 8000));
    EXPECT_NO_THROW(system.checkInvariants());

    ASSERT_NE(system.chaosEngine(), nullptr);
    const chaos::ChaosCounters &counters =
        system.chaosEngine()->counters();
    EXPECT_GT(counters.trace_corruptions, 0u);
    EXPECT_GT(counters.dram_delays + counters.dram_drops, 0u);
    setSimCheckEnabled(false);
}

// ---------------------------------------------------------------------
// End-to-end degradation.

TEST(ChaosSystem, InjectedPrefetcherFaultDegradesRun)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    config.chaos = prefetcherFaultPlan();
    System system(config, "Data Serving");
    system.run(4000, 8000);

    EXPECT_TRUE(system.anyQuarantined());
    ASSERT_NE(system.guard(0), nullptr);
    EXPECT_TRUE(system.guard(0)->quarantined());
    EXPECT_NE(system.quarantineReport().find("pf0"),
              std::string::npos);
    EXPECT_NE(system.quarantineReport().find("chaos-injected"),
              std::string::npos);
    EXPECT_GT(
        system.chaosEngine()->counters().injected_prefetcher_faults,
        0u);

    const RunResult result = collectResult(system, "Data Serving");
    EXPECT_TRUE(result.degraded);
    EXPECT_FALSE(result.degraded_reason.empty());
    EXPECT_GT(result.instructions, 0u);
}

TEST(ChaosSystem, DegradedRunsAreDeterministic)
{
    const auto runOnce = [] {
        SystemConfig config = SystemConfig::singleCore();
        config.prefetcher.kind = PrefetcherKind::Bingo;
        config.seed = 7;
        config.chaos.enabled = true;
        config.chaos.seed = 13;
        config.chaos.rate = 0.01;
        config.chaos.site_mask = 0x1F;
        System system(config, "Data Serving");
        system.run(4000, 8000);
        return std::make_pair(collectResult(system, "Data Serving"),
                              system.chaosEngine()->counters());
    };
    const auto [ra, ca] = runOnce();
    const auto [rb, cb] = runOnce();
    // The injector must actually be injecting at every site class
    // (deterministic: the same schedule replays on every run).
    EXPECT_GT(ca.trace_corruptions, 0u);
    EXPECT_GT(ca.metadata_flips, 0u);
    EXPECT_EQ(ra.core_ipc, rb.core_ipc);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.llc.demand_misses, rb.llc.demand_misses);
    EXPECT_EQ(ra.dram.reads, rb.dram.reads);
    EXPECT_EQ(ca.trace_corruptions, cb.trace_corruptions);
    EXPECT_EQ(ca.dram_delays, cb.dram_delays);
    EXPECT_EQ(ca.dram_drops, cb.dram_drops);
    EXPECT_EQ(ca.metadata_flips, cb.metadata_flips);
    EXPECT_EQ(ca.mshr_spikes, cb.mshr_spikes);
    EXPECT_EQ(ca.injected_prefetcher_faults,
              cb.injected_prefetcher_faults);
}

TEST(ChaosSweep, QuarantineYieldsDegradedOutcomeNotFailure)
{
    const std::vector<SweepJob> jobs = {
        chaosJob("Data Serving", PrefetcherKind::Bingo,
                 prefetcherFaultPlan()),
        chaosJob("Streaming", PrefetcherKind::Sms, ChaosConfig{}),
    };
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);

    ASSERT_EQ(outcomes[0].status, JobStatus::Degraded);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 1u);  // No pointless retries.
    EXPECT_TRUE(outcomes[0].result.degraded);
    EXPECT_GT(outcomes[0].result.instructions, 0u);
    EXPECT_NE(outcomes[0].error.find("chaos-injected"),
              std::string::npos);
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_FALSE(outcomes[1].result.degraded);

    // Degraded is not a failure: the strict path must not throw, and
    // reportFailures must count zero failures.
    EXPECT_EQ(reportFailures(jobs, outcomes), 0u);
    EXPECT_NO_THROW(runSweep(jobs, 1));
}

TEST(ChaosSweep, ThreadCountDoesNotChangeChaosResults)
{
    ChaosConfig plan;
    plan.enabled = true;
    plan.seed = 5;
    plan.rate = 0.01;
    plan.site_mask = 0x1F;
    const std::vector<SweepJob> jobs = {
        chaosJob("Data Serving", PrefetcherKind::Bingo, plan),
        chaosJob("Streaming", PrefetcherKind::Sms, plan),
        chaosJob("em3d", PrefetcherKind::Spp, plan),
    };
    const std::vector<JobOutcome> serial = runSweepOutcomes(jobs, 1);
    const std::vector<JobOutcome> parallel = runSweepOutcomes(jobs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].status, parallel[i].status) << "job " << i;
        EXPECT_EQ(serial[i].result.core_ipc,
                  parallel[i].result.core_ipc)
            << "job " << i;
        EXPECT_EQ(serial[i].result.instructions,
                  parallel[i].result.instructions)
            << "job " << i;
        EXPECT_EQ(serial[i].result.llc.demand_misses,
                  parallel[i].result.llc.demand_misses)
            << "job " << i;
        EXPECT_EQ(serial[i].result.dram.reads,
                  parallel[i].result.dram.reads)
            << "job " << i;
    }
}

// ---------------------------------------------------------------------
// Journal integration.

TEST(ChaosJournal, FingerprintSeparatesChaosFromCleanRuns)
{
    const SweepJob clean =
        chaosJob("Streaming", PrefetcherKind::Bingo, ChaosConfig{});
    SweepJob chaotic = clean;
    chaotic.config.chaos = prefetcherFaultPlan();

    const std::string clean_fp = jobFingerprint(clean);
    EXPECT_NE(jobFingerprint(chaotic), clean_fp);

    SweepJob other_seed = chaotic;
    other_seed.config.chaos.seed = 18;
    EXPECT_NE(jobFingerprint(other_seed), jobFingerprint(chaotic));

    SweepJob other_rate = chaotic;
    other_rate.config.chaos.rate = 0.5;
    EXPECT_NE(jobFingerprint(other_rate), jobFingerprint(chaotic));

    SweepJob other_sites = chaotic;
    other_sites.config.chaos.site_mask =
        chaos::siteBit(chaos::ChaosSite::Dram);
    EXPECT_NE(jobFingerprint(other_sites), jobFingerprint(chaotic));
}

TEST(ChaosJournal, DegradedVerdictRoundTrips)
{
    const TempDir dir("chaos_journal");
    RunResult result;
    result.workload = "Streaming";
    result.kind = PrefetcherKind::Bingo;
    result.core_ipc = {1.25};
    result.instructions = 8000;
    result.degraded = true;
    result.degraded_reason =
        "pf0: Bingo: chaos-injected prefetcher fault @cycle 123";

    const std::string fp = jobFingerprint(
        chaosJob("Streaming", PrefetcherKind::Bingo, ChaosConfig{}));
    journalStore(dir.path(), fp, result);

    RunResult loaded;
    ASSERT_TRUE(journalLoad(dir.path(), fp, loaded));
    EXPECT_TRUE(loaded.degraded);
    EXPECT_EQ(loaded.degraded_reason, result.degraded_reason);

    // A clean result writes no degraded line and loads clean.
    result.degraded = false;
    result.degraded_reason.clear();
    journalStore(dir.path(), fp, result);
    RunResult clean;
    ASSERT_TRUE(journalLoad(dir.path(), fp, clean));
    EXPECT_FALSE(clean.degraded);
    EXPECT_TRUE(clean.degraded_reason.empty());
}

TEST(ChaosJournal, ResumedDegradedJobStaysDegraded)
{
    const TempDir dir("chaos_resume");
    const EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    const std::vector<SweepJob> jobs = {chaosJob(
        "Data Serving", PrefetcherKind::Bingo, prefetcherFaultPlan())};

    const std::vector<JobOutcome> first = runSweepOutcomes(jobs, 1);
    ASSERT_EQ(first[0].status, JobStatus::Degraded);

    const std::vector<JobOutcome> second = runSweepOutcomes(jobs, 1);
    ASSERT_EQ(second[0].status, JobStatus::Skipped);
    EXPECT_TRUE(second[0].result.degraded);
    EXPECT_EQ(second[0].result.degraded_reason,
              first[0].result.degraded_reason);
    EXPECT_EQ(second[0].result.instructions,
              first[0].result.instructions);
    // The resumed degraded job still surfaces in the report (and
    // still counts zero failures).
    EXPECT_EQ(reportFailures(jobs, second), 0u);
}

// ---------------------------------------------------------------------
// run.json verdicts for degraded and failed jobs.

std::string
findRunJson(const std::string &dir)
{
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 9 &&
            name.substr(name.size() - 9) == ".run.json")
            return entry.path().string();
    }
    return std::string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(ChaosTelemetry, DegradedJobWritesWellFormedRunJson)
{
    const TempDir dir("chaos_telemetry_degraded");
    const EnvVar telemetry_dir("BINGO_TELEMETRY_DIR", dir.path());
    const std::vector<SweepJob> jobs = {chaosJob(
        "Data Serving", PrefetcherKind::Bingo, prefetcherFaultPlan())};

    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);
    ASSERT_EQ(outcomes[0].status, JobStatus::Degraded);

    const std::string path = findRunJson(dir.path());
    ASSERT_FALSE(path.empty()) << "no run.json written";
    const std::string json = slurp(path);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.size() - 2), "}\n");  // Never partial.
    EXPECT_NE(json.find("\"degraded\":true"), std::string::npos)
        << json.substr(0, 400);
    EXPECT_NE(json.find("chaos-injected"), std::string::npos);
    EXPECT_NE(json.find("\"failed\":false"), std::string::npos);
}

TEST(ChaosTelemetry, FailedJobStillWritesWellFormedRunJson)
{
    const TempDir dir("chaos_telemetry_failed");
    const EnvVar telemetry_dir("BINGO_TELEMETRY_DIR", dir.path());
    const EnvVar retries("BINGO_RETRIES", "0");
    const EnvVar timeout("BINGO_JOB_TIMEOUT_S", "0.005");

    SweepJob job =
        chaosJob("Streaming", PrefetcherKind::Bingo, ChaosConfig{});
    job.options.measure_instructions = 500 * 1000 * 1000;  // "Hung".
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes({job}, 1);
    ASSERT_EQ(outcomes[0].status, JobStatus::Failed);

    const std::string path = findRunJson(dir.path());
    ASSERT_FALSE(path.empty())
        << "failed job must still export its run.json";
    const std::string json = slurp(path);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.size() - 2), "}\n");  // Never partial.
    EXPECT_NE(json.find("\"failed\":true"), std::string::npos)
        << json.substr(0, 400);
    EXPECT_NE(json.find("BINGO_JOB_TIMEOUT_S"), std::string::npos);
    EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
}

} // namespace
} // namespace bingo

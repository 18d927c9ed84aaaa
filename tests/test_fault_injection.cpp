/**
 * @file
 * Tests of the fault-tolerant sweep machinery: per-job failure
 * isolation and retries, the crash-safe result journal with
 * bit-identical resume, the per-job watchdog, the SimCheck/SimError
 * self-check layer, and SystemConfig::validate().
 *
 * Environment knobs are set per test through an RAII guard; ctest runs
 * every test in its own process (gtest_discover_tests), so the
 * mutations never leak across tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/mshr.hpp"
#include "common/sim_check.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"
#include "sim/thread_pool.hpp"
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

SweepJob
smallJob(const std::string &workload,
         PrefetcherKind kind = PrefetcherKind::Bingo)
{
    SweepJob job;
    job.workload = workload;
    job.config.prefetcher.kind = kind;
    job.options = smallOptions();
    return job;
}

std::vector<SweepJob>
smallSweep()
{
    return {smallJob("Data Serving", PrefetcherKind::Bingo),
            smallJob("Streaming", PrefetcherKind::Sms),
            smallJob("em3d", PrefetcherKind::Stride)};
}

void
expectBitIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.kind, b.kind);
    ASSERT_EQ(a.core_ipc.size(), b.core_ipc.size());
    for (std::size_t c = 0; c < a.core_ipc.size(); ++c)
        EXPECT_EQ(a.core_ipc[c], b.core_ipc[c]);  // Bitwise, not near.
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llc.demand_accesses, b.llc.demand_accesses);
    EXPECT_EQ(a.llc.demand_misses, b.llc.demand_misses);
    EXPECT_EQ(a.llc.useful_prefetches, b.llc.useful_prefetches);
    EXPECT_EQ(a.llc.demand_miss_latency, b.llc.demand_miss_latency);
    EXPECT_EQ(a.l1d.demand_accesses, b.l1d.demand_accesses);
    EXPECT_EQ(a.l1d.demand_misses, b.l1d.demand_misses);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
    EXPECT_EQ(a.dram.queue_delay_cycles, b.dram.queue_delay_cycles);
    EXPECT_EQ(a.prefetch_storage_bytes, b.prefetch_storage_bytes);
}

// ---------------------------------------------------------------------
// Failure isolation and retries.

TEST(FaultInjection, RetriesRecoverTransientFailure)
{
    const EnvVar retries("BINGO_RETRIES", "3");
    const std::vector<SweepJob> jobs = smallSweep();

    std::atomic<unsigned> attempts_on_job1{0};
    const SweepFaultHook hook = [&](std::size_t job, unsigned attempt) {
        if (job == 1) {
            attempts_on_job1.fetch_add(1);
            if (attempt < 3)
                throw std::runtime_error("transient fault");
        }
    };
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, 2, hook);

    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].attempts, 3u);
    EXPECT_EQ(attempts_on_job1.load(), 3u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].attempts, 1u);

    // The recovered job's result is the same as an undisturbed run.
    const RunResult reference =
        runWorkload(jobs[1].workload, jobs[1].config, jobs[1].options);
    expectBitIdentical(outcomes[1].result, reference);
}

TEST(FaultInjection, AlwaysFailingJobIsolatedFromOthers)
{
    const EnvVar retries("BINGO_RETRIES", "1");
    const std::vector<SweepJob> jobs = smallSweep();

    const SweepFaultHook hook = [](std::size_t job, unsigned) {
        if (job == 0)
            throw std::runtime_error("injected permanent failure");
    };
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, 2, hook);

    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 2u);  // 1 + BINGO_RETRIES.
    EXPECT_NE(outcomes[0].error.find("injected permanent failure"),
              std::string::npos);
    EXPECT_NE(outcomes[0].exception, nullptr);
    EXPECT_GE(outcomes[0].wall_seconds, 0.0);

    // Every other job still produced a full result.
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok);
        EXPECT_GT(outcomes[i].result.instructions, 0u);
    }

    // reportFailures counts exactly the failed job.
    EXPECT_EQ(reportFailures(jobs, outcomes), 1u);
}

TEST(FaultInjection, UnknownWorkloadFailsNaturally)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    std::vector<SweepJob> jobs = smallSweep();
    jobs[1].workload = "No Such Workload";

    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 2);
    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[1].attempts, 1u);
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
}

TEST(FaultInjection, InvalidConfigNamesOffendingField)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    std::vector<SweepJob> jobs = {smallJob("Streaming")};
    jobs[0].config.l1d.ways = 0;

    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);
    ASSERT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_NE(outcomes[0].error.find("SystemConfig.l1d.ways"),
              std::string::npos)
        << outcomes[0].error;
}

TEST(FaultInjection, StrictRunSweepStillThrows)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    std::vector<SweepJob> jobs = {smallJob("Streaming")};
    jobs[0].workload = "No Such Workload";
    EXPECT_THROW(runSweep(jobs, 1), std::exception);
}

TEST(FaultInjection, SystemsOutcomesIsolateFailures)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    const std::vector<SweepJob> jobs = smallSweep();

    const SweepFaultHook hook = [](std::size_t job, unsigned) {
        if (job == 2)
            throw std::runtime_error("boom");
    };
    std::mutex mutex;
    std::set<std::size_t> collected;
    const auto collect = [&](std::size_t i, System &system) {
        std::lock_guard<std::mutex> lock(mutex);
        collected.insert(i);
        EXPECT_GT(system.now(), 0u);
    };
    const std::vector<JobOutcome> outcomes =
        runSweepSystemsOutcomes(jobs, collect, 2, hook);

    EXPECT_EQ(collected, (std::set<std::size_t>{0, 1}));
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_EQ(outcomes[2].status, JobStatus::Failed);
    EXPECT_NE(outcomes[2].error.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------
// ThreadPool counter integrity under throwing jobs.

TEST(ThreadPoolFault, ThrowingJobsDoNotDesyncPool)
{
    ThreadPool pool(4);
    std::atomic<unsigned> ran{0};
    for (unsigned i = 0; i < 32; ++i) {
        pool.submit([i, &ran] {
            ran.fetch_add(1);
            if (i % 2 == 0)
                throw std::runtime_error("job failed");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 32u);

    // The pool stays usable: the counter balanced despite 16 throws.
    std::atomic<unsigned> second{0};
    for (unsigned i = 0; i < 8; ++i)
        pool.submit([&second] { second.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(second.load(), 8u);
}

// ---------------------------------------------------------------------
// Journal: fingerprints, round trips, resume.

TEST(Journal, FingerprintDistinguishesJobs)
{
    const SweepJob base = smallJob("Streaming");
    const std::string fp = jobFingerprint(base);
    EXPECT_EQ(fp, jobFingerprint(base));  // Deterministic.
    EXPECT_EQ(fp.size(), 32u);

    SweepJob other = base;
    other.workload = "em3d";
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.options.seed = 43;
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.options.measure_instructions += 1;
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.config.prefetcher.kind = PrefetcherKind::Sms;
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.config.llc.size_bytes *= 2;
    EXPECT_NE(jobFingerprint(other), fp);

    // compare_baseline changes what the sweep computes alongside the
    // job, not the job's own result — same fingerprint.
    other = base;
    other.compare_baseline = !base.compare_baseline;
    EXPECT_EQ(jobFingerprint(other), fp);
}

TEST(Journal, StoreLoadRoundTripIsBitExact)
{
    const TempDir dir("journal_roundtrip");
    RunResult result;
    result.workload = "Streaming";
    result.kind = PrefetcherKind::Bingo;
    result.core_ipc = {0.1 + 0.2, 1e-300, 123.456789, 0.0};
    result.instructions = 123456789;
    result.llc.demand_accesses = 1;
    result.llc.demand_misses = 3;
    result.llc.useful_prefetches = 5;
    result.llc.demand_miss_latency = 987654321;
    result.l1d.demand_accesses = 7;
    result.dram.reads = 11;
    result.dram.queue_delay_cycles = 13;
    result.prefetch_storage_bytes = 121856;

    const std::string fp = jobFingerprint(smallJob("Streaming"));
    journalStore(dir.path(), fp, result);

    RunResult loaded;
    ASSERT_TRUE(journalLoad(dir.path(), fp, loaded));
    expectBitIdentical(loaded, result);

    // A different fingerprint finds nothing.
    RunResult missed;
    EXPECT_FALSE(journalLoad(dir.path(),
                             jobFingerprint(smallJob("em3d")), missed));
}

TEST(Journal, RejectsGarbledAndMismatchedRecords)
{
    const TempDir dir("journal_garble");
    RunResult result;
    result.workload = "Streaming";
    result.core_ipc = {1.0};
    const std::string fp = jobFingerprint(smallJob("Streaming"));
    const std::string other_fp = jobFingerprint(smallJob("em3d"));
    journalStore(dir.path(), fp, result);

    // A record renamed onto another job's fingerprint is rejected:
    // the embedded fingerprint no longer matches the filename.
    std::filesystem::copy_file(
        journalRecordPath(dir.path(), fp),
        journalRecordPath(dir.path(), other_fp));
    RunResult out;
    EXPECT_FALSE(journalLoad(dir.path(), other_fp, out));

    // Truncated record: cut the file before the end marker.
    {
        std::ifstream in(journalRecordPath(dir.path(), fp));
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        ASSERT_GT(content.size(), 20u);
        std::ofstream cut(journalRecordPath(dir.path(), fp),
                          std::ios::trunc);
        cut << content.substr(0, content.size() / 2);
    }
    EXPECT_FALSE(journalLoad(dir.path(), fp, out));

    // Plain garbage.
    {
        std::ofstream garbage(journalRecordPath(dir.path(), fp),
                              std::ios::trunc);
        garbage << "not a journal record at all\n";
    }
    EXPECT_FALSE(journalLoad(dir.path(), fp, out));

    // Absent directory.
    EXPECT_FALSE(journalLoad(dir.path() + "/nope", fp, out));
}

TEST(Journal, SweepResumesSkippingJournaledJobs)
{
    const TempDir dir("journal_resume");
    const EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    const std::vector<SweepJob> jobs = smallSweep();

    const std::vector<JobOutcome> first = runSweepOutcomes(jobs, 2);
    for (const JobOutcome &outcome : first) {
        EXPECT_EQ(outcome.status, JobStatus::Ok);
        EXPECT_EQ(outcome.attempts, 1u);
    }

    const std::vector<JobOutcome> second = runSweepOutcomes(jobs, 2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(second[i].status, JobStatus::Skipped);
        EXPECT_EQ(second[i].attempts, 0u);
        expectBitIdentical(second[i].result, first[i].result);
    }
}

TEST(Journal, KillAndResumeReproducesBitIdenticalResults)
{
    // Reference: the sweep run in one piece, no journal.
    const std::vector<SweepJob> jobs = smallSweep();
    std::vector<JobOutcome> reference;
    {
        const EnvVar journal("BINGO_JOURNAL_DIR", "");
        reference = runSweepOutcomes(jobs, 2);
    }

    // "First run, killed mid-sweep": only a prefix of the jobs ever
    // completed and reached the journal before the process died.
    const TempDir dir("journal_kill");
    const EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    const std::vector<SweepJob> prefix(jobs.begin(), jobs.begin() + 2);
    const std::vector<JobOutcome> partial = runSweepOutcomes(prefix, 2);
    ASSERT_EQ(partial.size(), 2u);

    // Resume: the journaled prefix is skipped, the rest simulated, and
    // every result matches the uninterrupted reference bit for bit.
    const std::vector<JobOutcome> resumed = runSweepOutcomes(jobs, 2);
    ASSERT_EQ(resumed.size(), jobs.size());
    EXPECT_EQ(resumed[0].status, JobStatus::Skipped);
    EXPECT_EQ(resumed[1].status, JobStatus::Skipped);
    EXPECT_EQ(resumed[2].status, JobStatus::Ok);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectBitIdentical(resumed[i].result, reference[i].result);
}

// ---------------------------------------------------------------------
// Watchdog.

TEST(Watchdog, TimeoutConvertsHungJobIntoFailure)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    const EnvVar timeout("BINGO_JOB_TIMEOUT_S", "0.005");

    SweepJob job = smallJob("Streaming");
    job.options.measure_instructions = 500 * 1000 * 1000;  // "Hung".
    const std::vector<JobOutcome> outcomes = runSweepOutcomes({job}, 1);

    ASSERT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_NE(outcomes[0].error.find("watchdog"), std::string::npos)
        << outcomes[0].error;
    EXPECT_NE(outcomes[0].error.find("progress"), std::string::npos)
        << outcomes[0].error;
    // The watchdog fired long before the sim could finish 500M instrs.
    EXPECT_LT(outcomes[0].wall_seconds, 60.0);
}

TEST(Watchdog, DeadlineThrowsSimErrorWithContext)
{
    SystemConfig config;
    config.num_cores = 1;
    System system(config, "Streaming");
    system.setDeadline(std::chrono::steady_clock::now() -
                       std::chrono::seconds(1));
    try {
        system.run(0, 100000);
        FAIL() << "expected SimError from the expired watchdog";
    } catch (const SimError &e) {
        EXPECT_EQ(e.component(), "watchdog");
        EXPECT_NE(std::string(e.what()).find("watchdog"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("progress"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// SimCheck / SimError.

TEST(SimCheck, MshrOverflowThrowsSimErrorWithComponentAndCycle)
{
    MshrFile mshrs(1, "LLC.mshr");
    mshrs.allocate(0x1000, false, 0, 41);
    try {
        mshrs.allocate(0x2000, false, 0, 77);
        FAIL() << "expected SimError on MSHR overflow";
    } catch (const SimError &e) {
        EXPECT_EQ(e.component(), "LLC.mshr");
        EXPECT_EQ(e.cycle(), 77u);
        const std::string what = e.what();
        EXPECT_NE(what.find("LLC.mshr"), std::string::npos) << what;
        EXPECT_NE(what.find("77"), std::string::npos) << what;
    }
}

TEST(SimCheck, DuplicateMshrAllocationThrows)
{
    // The duplicate scan is a pure double-check (every caller probes
    // find() first), so it runs only under the BINGO_CHECK layer.
    MshrFile mshrs(4, "L1D0.mshr");
    mshrs.allocate(0x1000, false, 0, 5);
    setSimCheckEnabled(true);
    EXPECT_THROW(mshrs.allocate(0x1000, true, 0, 6), SimError);
    setSimCheckEnabled(false);
}

TEST(SimCheck, ReleasingAbsentMshrEntryThrows)
{
    MshrFile mshrs(4, "L1D0.mshr");
    try {
        mshrs.release(0xdead000, 123);
        FAIL() << "expected SimError on absent release";
    } catch (const SimError &e) {
        EXPECT_EQ(e.component(), "L1D0.mshr");
        EXPECT_EQ(e.cycle(), 123u);
    }
}

TEST(SimCheck, ZeroCapacityMshrRejected)
{
    EXPECT_THROW(MshrFile(0, "x"), std::invalid_argument);
}

TEST(SimCheck, EnabledRunPassesInvariants)
{
    setSimCheckEnabled(true);
    SweepJob job = smallJob("Data Serving", PrefetcherKind::Bingo);
    SystemConfig cfg = job.config;
    cfg.seed = job.options.seed;
    System system(cfg, job.workload);
    EXPECT_NO_THROW(system.run(job.options.warmup_instructions,
                               job.options.measure_instructions));
    EXPECT_NO_THROW(system.checkInvariants());
    setSimCheckEnabled(false);
}

TEST(SimCheck, ToggleOverridesEnvironment)
{
    setSimCheckEnabled(true);
    EXPECT_TRUE(simCheckEnabled());
    setSimCheckEnabled(false);
    EXPECT_FALSE(simCheckEnabled());
}

// ---------------------------------------------------------------------
// SystemConfig::validate().

TEST(ConfigValidate, DefaultsAreValid)
{
    EXPECT_NO_THROW(SystemConfig{}.validate());
    EXPECT_NO_THROW(SystemConfig::singleCore().validate());
}

TEST(ConfigValidate, NamesTheOffendingField)
{
    const auto expectRejects = [](const char *field,
                                  auto &&mutate) {
        SystemConfig config;
        mutate(config);
        try {
            config.validate();
            FAIL() << "expected a reject for " << field;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    };

    expectRejects("SystemConfig.num_cores",
                  [](SystemConfig &c) { c.num_cores = 0; });
    expectRejects("SystemConfig.frequency_ghz",
                  [](SystemConfig &c) { c.frequency_ghz = -4.0; });
    expectRejects("SystemConfig.l1d.ways",
                  [](SystemConfig &c) { c.l1d.ways = 0; });
    expectRejects("SystemConfig.l1d.mshr_entries",
                  [](SystemConfig &c) { c.l1d.mshr_entries = 0; });
    expectRejects("SystemConfig.llc.size_bytes", [](SystemConfig &c) {
        c.llc.size_bytes = 3 * 1024 * 1024;  // 3072 sets: not 2^n.
    });
    expectRejects("SystemConfig.dram.channels",
                  [](SystemConfig &c) { c.dram.channels = 0; });
    expectRejects("SystemConfig.dram.row_size_bytes",
                  [](SystemConfig &c) { c.dram.row_size_bytes = 100; });
    expectRejects("SystemConfig.prefetcher.region_blocks",
                  [](SystemConfig &c) {
                      c.prefetcher.region_blocks = 3;
                  });
    expectRejects("SystemConfig.prefetcher.pht_entries",
                  [](SystemConfig &c) {
                      c.prefetcher.pht_entries = 100;  // 100/16 sets.
                  });
    expectRejects("SystemConfig.prefetcher.vote_threshold",
                  [](SystemConfig &c) {
                      c.prefetcher.vote_threshold = 1.5;
                  });
    expectRejects("SystemConfig.prefetcher.bop_degree",
                  [](SystemConfig &c) { c.prefetcher.bop_degree = 0; });
    expectRejects("SystemConfig.prefetcher.num_events",
                  [](SystemConfig &c) { c.prefetcher.num_events = 9; });
}

TEST(ConfigValidate, RunWorkloadValidatesUpFront)
{
    SystemConfig config;
    config.llc.ways = 0;
    EXPECT_THROW(runWorkload("Streaming", config, smallOptions()),
                 std::invalid_argument);
}

} // namespace
} // namespace bingo

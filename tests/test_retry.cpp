/**
 * @file
 * Direct tests of the sweep retry path: the deterministic-jitter
 * backoff schedule (retryBackoffMs), BINGO_RETRIES consumption, and
 * the graceful SIGINT/SIGTERM drain of an in-process sweep
 * (stop dispatching, finish in-flight, journal, resume).
 *
 * Environment knobs are set per test through an RAII guard; ctest runs
 * every test in its own process (gtest_discover_tests), so the
 * mutations never leak across tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using test::EnvVar;
using test::TempDir;

ExperimentOptions
smallOptions()
{
    ExperimentOptions options;
    options.warmup_instructions = 4000;
    options.measure_instructions = 8000;
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

// --- retryBackoffMs: the documented schedule is a contract (the
// in-process runner and the distributed supervisor both sleep exactly
// this value).

TEST(RetryBackoff, StaysWithinJitteredExponentialEnvelope)
{
    for (std::size_t job = 0; job < 50; ++job) {
        for (unsigned attempt = 1; attempt <= 12; ++attempt) {
            const unsigned shift = std::min(attempt - 1, 6u);
            const unsigned base = std::min(10u << shift, 500u);
            const unsigned ms = retryBackoffMs(job, attempt);
            EXPECT_GE(ms, base / 2) << "job " << job << " attempt "
                                    << attempt;
            EXPECT_LE(ms, base) << "job " << job << " attempt "
                                << attempt;
        }
    }
}

TEST(RetryBackoff, IsDeterministicPerJobAndAttempt)
{
    for (std::size_t job = 0; job < 20; ++job)
        for (unsigned attempt = 1; attempt <= 8; ++attempt)
            EXPECT_EQ(retryBackoffMs(job, attempt),
                      retryBackoffMs(job, attempt));
}

TEST(RetryBackoff, JitterDesynchronizesJobs)
{
    // Thundering-herd avoidance: many jobs failing on the same attempt
    // must not all sleep the same time. With jitter spanning
    // [base/2, base] (161 distinct values at attempt 6), 100 jobs
    // collapsing to one value would mean the jitter is broken.
    std::set<unsigned> distinct;
    for (std::size_t job = 0; job < 100; ++job)
        distinct.insert(retryBackoffMs(job, 6));
    EXPECT_GT(distinct.size(), 10u);
}

TEST(RetryBackoff, CapsAtHalfSecond)
{
    for (unsigned attempt = 7; attempt <= 40; ++attempt) {
        EXPECT_LE(retryBackoffMs(0, attempt), 500u);
        EXPECT_GE(retryBackoffMs(0, attempt), 250u);
    }
}

// --- Retry consumption through the fault hook seam.

TEST(RetryPath, TransientFaultIsRetriedAndSucceeds)
{
    EnvVar retries("BINGO_RETRIES", "2");
    const std::vector<SweepJob> jobs = smallSweep();
    const SweepFaultHook hook = [](std::size_t job_index,
                                   unsigned attempt) {
        if (job_index == 1 && attempt == 1)
            throw std::runtime_error("transient injected fault");
    };
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, 1, hook);
    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].attempts, 2u);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
}

TEST(RetryPath, RetryBudgetExhaustionFailsOnlyThatJob)
{
    EnvVar retries("BINGO_RETRIES", "1");
    const std::vector<SweepJob> jobs = smallSweep();
    const SweepFaultHook hook = [](std::size_t job_index, unsigned) {
        if (job_index == 0)
            throw std::runtime_error("permanent injected fault");
    };
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, 1, hook);
    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[0].attempts, 2u);  // 1 try + 1 retry.
    EXPECT_NE(outcomes[0].error.find("permanent injected fault"),
              std::string::npos);
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
}

// --- Graceful signal drain (satellite of the distributed-sweep PR):
// a signal mid-sweep stops dispatch, in-flight jobs finish and
// journal, and the sweep resumes from the journal.

TEST(SignalDrain, SigintStopsDispatchAndJournalsFinishedJobs)
{
    TempDir journal("signal_drain");
    EnvVar dir("BINGO_JOURNAL_DIR", journal.path());
    const std::vector<SweepJob> jobs = smallSweep();

    // Raise SIGINT while job 0 is starting: job 0 still completes
    // (in-flight work drains), jobs 1 and 2 must not start.
    const SweepFaultHook hook = [](std::size_t job_index, unsigned) {
        if (job_index == 0)
            std::raise(SIGINT);
    };
    const std::vector<JobOutcome> first =
        runSweepOutcomes(jobs, 1, hook);
    ASSERT_EQ(first.size(), jobs.size());
    EXPECT_EQ(first[0].status, JobStatus::Ok);
    EXPECT_EQ(first[1].status, JobStatus::Failed);
    EXPECT_NE(first[1].error.find("sweep interrupted"),
              std::string::npos);
    EXPECT_EQ(first[2].status, JobStatus::Failed);

    // The drained job journaled; the interrupted ones did not.
    RunResult restored;
    EXPECT_TRUE(journalLoad(journal.path(), jobFingerprint(jobs[0]),
                            restored));
    EXPECT_FALSE(journalLoad(journal.path(), jobFingerprint(jobs[1]),
                             restored));

    // Re-run without the signal: job 0 resumes from the journal
    // bit-identically, jobs 1 and 2 simulate now.
    const std::vector<JobOutcome> second = runSweepOutcomes(jobs, 1);
    EXPECT_EQ(second[0].status, JobStatus::Skipped);
    EXPECT_EQ(second[1].status, JobStatus::Ok);
    EXPECT_EQ(second[2].status, JobStatus::Ok);
    EXPECT_EQ(second[0].result.ipcSum(), first[0].result.ipcSum());
}

TEST(SignalDrain, HandlersAreRestoredAfterTheSweep)
{
    // Outside a sweep, SIGINT must have whatever disposition it had
    // before — the guard is scoped, not global.
    const std::vector<SweepJob> jobs = {smallJob("em3d")};
    (void)runSweepOutcomes(jobs, 1);
    EXPECT_FALSE(sweepInterrupted() &&
                 "flag must not stay set after a clean sweep");
    struct sigaction current = {};
    ASSERT_EQ(sigaction(SIGINT, nullptr, &current), 0);
    EXPECT_NE(current.sa_handler, SIG_IGN);
}

} // namespace
} // namespace bingo

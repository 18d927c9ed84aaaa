/**
 * @file
 * Tests of the distributed sweep runtime (src/dist): wire protocol
 * round-trips with the fingerprint drift guard, transparent
 * BINGO_DIST_WORKERS dispatch with a merged journal byte-identical to
 * the single-process run, crash (SIGKILL) and hang recovery through
 * re-dispatch, poison-job quarantine, recovery of a dead coordinator's
 * log, the in-process fallback when no worker binary exists, and the
 * worker binary's strict argument parsing.
 *
 * Worker deaths in these tests are real: the worker process SIGKILLs
 * itself mid-dispatch (BINGO_DIST_TEST_CRASH_JOB), which is
 * indistinguishable from an external kill -9.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/coordinator.hpp"
#include "dist/manifest.hpp"
#include "dist/protocol.hpp"
#include "dist/supervisor.hpp"
#include "dist/transport.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using test::EnvVar;
using test::TempDir;

using dist::WireHello;
using dist::WireJob;
using dist::WireResult;
using dist::decodeHello;
using dist::decodeJob;
using dist::decodeResult;
using dist::encodeHello;
using dist::encodeJob;
using dist::encodeResult;
using dist::workerBinaryPath;

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
            smallJob("em3d", PrefetcherKind::Stride),
            smallJob("Zeus", PrefetcherKind::Bop)};
}

/** All regular files of a directory as name -> content. */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        out.emplace(
            std::filesystem::relative(entry.path(), dir).string(),
            std::string(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()));
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/**
 * fork/exec `bingo_worker --sweep <manifest>` with extra environment —
 * the coordinator-in-a-subprocess used by the chaos and crash-resume
 * tests (BINGO_CHAOS is parsed once per process, so env-driven chaos
 * needs a fresh process, and kill -9 needs a process to kill).
 */
pid_t
spawnSweepProcess(
    const std::string &manifest,
    const std::vector<std::pair<std::string, std::string>> &env)
{
    const std::string worker = workerBinaryPath();
    const pid_t pid = ::fork();
    if (pid == 0) {
        for (const auto &kv : env)
            ::setenv(kv.first.c_str(), kv.second.c_str(), 1);
        // Sweep tables go nowhere: the tests only check the journal.
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0) {
            ::dup2(null_fd, 1);
            ::close(null_fd);
        }
        ::execl(worker.c_str(), worker.c_str(), "--sweep",
                manifest.c_str(), static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Single-process reference journal of `jobs` in `dir`. */
void
runReference(const std::vector<SweepJob> &jobs, const std::string &dir)
{
    EnvVar journal("BINGO_JOURNAL_DIR", dir);
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);
    for (const JobOutcome &outcome : outcomes)
        ASSERT_EQ(outcome.status, JobStatus::Ok);
}

// --- Wire protocol.

TEST(DistProtocol, JobRoundTripsEveryConfigFieldBitExactly)
{
    WireJob wire;
    wire.index = 17;
    wire.job.workload = "Data Serving";  // Name contains a space.
    wire.job.compare_baseline = true;
    wire.job.options.warmup_instructions = 123;
    wire.job.options.measure_instructions = 456;
    wire.job.options.seed = 99;
    SystemConfig &cfg = wire.job.config;
    cfg.num_cores = 2;
    cfg.frequency_ghz = 3.7;  // Not exactly representable: bits must
                              // survive the text round-trip.
    cfg.llc.replacement = ReplacementKind::Srrip;
    cfg.llc.prefetch_queue = 33;
    cfg.dram.t_cas = 57;
    cfg.prefetcher.kind = PrefetcherKind::Bingo;
    cfg.prefetcher.vote_threshold = 0.15;
    cfg.prefetcher.spp_confidence_threshold = 0.009;
    cfg.chaos.enabled = true;
    cfg.chaos.seed = 7;
    cfg.chaos.rate = 1e-4;
    cfg.chaos.site_mask = 0x5;
    wire.fingerprint = jobFingerprint(wire.job);

    WireJob decoded;
    ASSERT_TRUE(decodeJob(encodeJob(wire), decoded));
    EXPECT_EQ(decoded.index, wire.index);
    EXPECT_EQ(decoded.fingerprint, wire.fingerprint);
    EXPECT_EQ(decoded.job.workload, wire.job.workload);
    EXPECT_EQ(decoded.job.compare_baseline, true);

    // The drift guard: the fingerprint recomputed from the decoded job
    // must equal the one computed from the original. This is the
    // property that catches a SystemConfig field added to the
    // fingerprint but forgotten in the wire format.
    EXPECT_EQ(jobFingerprint(decoded.job), wire.fingerprint);
    EXPECT_EQ(encodeJob(decoded), encodeJob(wire));

    // Version 2 jobs carried a `baseline` line; this layout is 3.
    std::string old_layout = encodeJob(wire);
    ASSERT_EQ(old_layout.rfind("job 3\n", 0), 0u);
    old_layout.replace(0, 6, "job 2\n");
    EXPECT_FALSE(decodeJob(old_layout, decoded));
}

TEST(DistProtocol, ResultRoundTripsAndRejectsGarbage)
{
    WireResult result;
    result.index = 3;
    result.status = JobStatus::Degraded;
    result.attempts = 2;
    result.wall_seconds = 1.25;
    result.runs = 4;
    result.cycles = 123456789;
    result.fingerprint = "00ff";
    result.error = "quarantined: late prefetch\nsecond line";
    result.record = "bingo-journal 2\nsome bytes\n";

    WireResult decoded;
    ASSERT_TRUE(decodeResult(encodeResult(result), decoded));
    EXPECT_EQ(decoded.index, result.index);
    EXPECT_EQ(decoded.status, result.status);
    EXPECT_EQ(decoded.attempts, result.attempts);
    EXPECT_EQ(decoded.wall_seconds, result.wall_seconds);
    EXPECT_EQ(decoded.runs, result.runs);
    EXPECT_EQ(decoded.cycles, result.cycles);
    EXPECT_EQ(decoded.error, result.error);
    EXPECT_EQ(decoded.record, result.record);

    WireResult reject;
    EXPECT_FALSE(decodeResult("", reject));
    EXPECT_FALSE(decodeResult("result 999\n", reject));
    EXPECT_FALSE(decodeResult(
        encodeResult(result).substr(0, 20), reject));
    WireJob wrong_kind;
    EXPECT_FALSE(decodeJob(encodeResult(result), wrong_kind));
}

TEST(DistProtocol, HelloRoundTripsAndRefusesOtherVersions)
{
    WireHello hello;
    hello.pid = 4242;
    hello.slot = 3;
    ASSERT_EQ(encodeHello(hello), "hello 2 4242 3\n");
    WireHello decoded;
    ASSERT_TRUE(decodeHello(encodeHello(hello), decoded));
    EXPECT_EQ(decoded.pid, hello.pid);
    EXPECT_EQ(decoded.slot, hello.slot);

    // Version 1 workers encoded a `baseline` line in every job: they
    // are refused at the handshake, before any job reaches them.
    WireHello stale;
    EXPECT_FALSE(decodeHello("hello 1 4242 3\n", stale));
    EXPECT_FALSE(decodeHello("hello 3 4242 3\n", stale));
    EXPECT_FALSE(decodeHello("", stale));
}

TEST(DistProtocol, WorkerBinaryIsFoundNextToTheBuildTree)
{
    // The test binary lives in build/tests; the worker in build/src.
    const std::string path = workerBinaryPath();
    ASSERT_FALSE(path.empty())
        << "bingo_worker not found relative to the test binary";
    EXPECT_TRUE(std::filesystem::exists(path));
}

/** Exit code of `bingo_worker <args...>` run with stdin, stdout and
 *  stderr on /dev/null; -1 when it did not exit normally. */
int
workerExitCode(const std::vector<std::string> &args)
{
    const std::string worker = workerBinaryPath();
    std::vector<const char *> argv = {worker.c_str()};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int null_fd = ::open("/dev/null", O_RDWR);
        if (null_fd >= 0) {
            for (int fd : {0, 1, 2})
                ::dup2(null_fd, fd);
        }
        ::execv(worker.c_str(), const_cast<char *const *>(argv.data()));
        ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

TEST(DistWorker, MalformedArgumentsExitWithUsage)
{
    ASSERT_FALSE(workerBinaryPath().empty());
    // Control: well-formed numbers parse; EOF on stdin ends the worker
    // cleanly.
    EXPECT_EQ(workerExitCode({"--stdio", "--slot", "1", "--fault-epoch",
                              "2"}),
              0);
    EXPECT_EQ(workerExitCode({"--stdio", "--slot", "abc"}), 64);
    EXPECT_EQ(workerExitCode({"--stdio", "--slot", "1x"}), 64);
    EXPECT_EQ(workerExitCode({"--stdio", "--slot", "4294967296"}), 64);
    EXPECT_EQ(workerExitCode({"--stdio", "--fault-epoch", "-3"}), 64);
    EXPECT_EQ(workerExitCode({"--stdio", "--fault-epoch", ""}), 64);
    EXPECT_EQ(workerExitCode({}), 64);
    // The socketpair and worker-shard modes are gone.
    EXPECT_EQ(workerExitCode({"--socket-fd", "3", "--shard-dir", "/tmp",
                              "--slot", "0"}),
              64);
    EXPECT_EQ(workerExitCode({"--stdio", "--shard-dir", "/tmp"}), 64);
}

TEST(DistSweep, MalformedSupervisionKnobThrowsBeforeSpawning)
{
    const std::vector<SweepJob> jobs = {smallJob("em3d")};
    std::vector<JobOutcome> outcomes(jobs.size());
    dist::DistReport report;
    EnvVar heartbeat("BINGO_DIST_HEARTBEAT_S", "-1");
    try {
        dist::runSweepDistributed(jobs, {0}, outcomes, 1, &report);
        FAIL() << "a negative heartbeat timeout must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("BINGO_DIST_HEARTBEAT_S"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(report.workers_spawned, 0u);
}

// --- Transparent distributed dispatch.

TEST(DistSweep, MergedJournalIsByteIdenticalToSingleProcess)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("dist_ref");
    runReference(jobs, reference.path());

    TempDir dist("dist_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    // Workers journal nothing themselves: watch for a per-worker shard
    // directory for as long as the sweep runs.
    std::atomic<bool> done{false};
    std::atomic<bool> saw_worker_shard{false};
    std::thread watcher([&] {
        const std::string shards = journalShardRoot(dist.path());
        while (!done.load()) {
            std::error_code ec;
            for (const auto &entry :
                 std::filesystem::directory_iterator(shards, ec)) {
                if (entry.path().filename().string().rfind("w", 0) == 0)
                    saw_worker_shard.store(true);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs);
    done.store(true);
    watcher.join();
    EXPECT_FALSE(saw_worker_shard.load());
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
        EXPECT_GT(outcomes[i].result.ipcSum(), 0.0) << "job " << i;
    }

    // The regression oracle: byte-identical journals, no shard
    // leftovers.
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dist.path())));
}

TEST(DistSweep, FallsBackInProcessWhenWorkerBinaryIsMissing)
{
    const std::vector<SweepJob> jobs = {smallJob("em3d")};
    TempDir dist("dist_nobin");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    EnvVar binary("BINGO_WORKER_BIN", "/nonexistent/bingo_worker");
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dist.path(), jobFingerprint(jobs[0]),
                            restored));
}

TEST(DistSweep, ResumesFromJournalWithoutRedispatch)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("dist_resume");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    (void)runSweepOutcomes(jobs);
    const std::vector<JobOutcome> resumed = runSweepOutcomes(jobs);
    for (const JobOutcome &outcome : resumed)
        EXPECT_EQ(outcome.status, JobStatus::Skipped);
}

// --- Crash tolerance. The worker SIGKILLs itself mid-dispatch: a
// real process death, equivalent to an external kill -9.

TEST(DistSweep, WorkerKilledMidJobIsRedispatchedJournalIdentical)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("crash_ref");
    runReference(jobs, reference.path());

    TempDir dist("crash_run");
    TempDir markers("crash_markers");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    EnvVar crash("BINGO_DIST_TEST_CRASH_JOB", "2:once");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(dist::runSweepDistributed(jobs, pending, outcomes, 2,
                                          &report));
    EXPECT_GE(report.workers_lost, 1u);
    EXPECT_GE(report.redispatched, 1u);
    EXPECT_EQ(report.poisoned, 0u);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
}

TEST(DistSweep, HungWorkerIsKilledAndJobRedispatched)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("hang_run");
    TempDir markers("hang_markers");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    EnvVar hang("BINGO_DIST_TEST_HANG_JOB", "1:once");
    // A hung worker stops heartbeating; shrink the timeout so the test
    // doesn't sit through the default 5 s.
    EnvVar heartbeat("BINGO_DIST_HEARTBEAT_S", "1");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(dist::runSweepDistributed(jobs, pending, outcomes, 2,
                                          &report));
    EXPECT_GE(report.workers_lost, 1u);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    for (const SweepJob &job : jobs) {
        RunResult restored;
        EXPECT_TRUE(
            journalLoad(dist.path(), jobFingerprint(job), restored));
    }
}

TEST(DistSweep, PoisonJobIsQuarantinedAndSweepSurvives)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("poison_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    // No :once — job 1 kills every worker that draws it.
    EnvVar crash("BINGO_DIST_TEST_CRASH_JOB", "1");
    EnvVar threshold("BINGO_DIST_POISON_KILLS", "2");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(dist::runSweepDistributed(jobs, pending, outcomes, 2,
                                          &report));
    EXPECT_EQ(report.poisoned, 1u);
    EXPECT_GE(report.workers_lost, 2u);

    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
    EXPECT_NE(outcomes[1].error.find("poison"), std::string::npos);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[3].status, JobStatus::Ok);

    // Poison quarantine degrades the sweep, it does not fail it: every
    // healthy job journaled, the poison job did not.
    RunResult restored;
    EXPECT_TRUE(
        journalLoad(dist.path(), jobFingerprint(jobs[0]), restored));
    EXPECT_FALSE(
        journalLoad(dist.path(), jobFingerprint(jobs[1]), restored));

    // A re-run after the "bug" is fixed (knob gone) completes the
    // quarantined job and only it.
    EnvVar fixed("BINGO_DIST_TEST_CRASH_JOB", "");
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    const std::vector<JobOutcome> resumed = runSweepOutcomes(jobs);
    EXPECT_EQ(resumed[1].status, JobStatus::Ok);
    EXPECT_EQ(resumed[0].status, JobStatus::Skipped);
}

TEST(DistSweep, LeftoverShardsFromDeadCoordinatorAreRecovered)
{
    // Simulate a coordinator that died after logging a result but
    // before the merge: the record sits in
    // <journal>/shards/coordinator.log. The next distributed run must
    // fold it in and skip that job.
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("leftover_run");
    const SweepJob &done = jobs[2];
    const std::string fp = jobFingerprint(done);
    SystemConfig done_cfg = done.config;
    done_cfg.seed = done.options.seed;  // As the sweep runner would.
    const RunResult result =
        runWorkload(done.workload, done_cfg, done.options);
    journalLogAppend(journalShardRoot(dist.path()) + "/coordinator.log",
                     fp, journalEncode(fp, result));

    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs);
    EXPECT_EQ(outcomes[2].status, JobStatus::Skipped);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dist.path())));
}

// --- Lease guard. A stalled worker resurfaces after its job was
// revoked and re-dispatched: its late results carry a superseded lease
// and must be dropped, never double-committed.

TEST(DistLease, StalledWorkerResurfacingCannotDoubleCommit)
{
    const std::vector<SweepJob> jobs = {
        smallJob("em3d", PrefetcherKind::Stride)};
    TempDir reference("lease_ref");
    runReference(jobs, reference.path());

    TempDir dist("lease_run");
    TempDir markers("lease_markers");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    // The (single) worker sleeps 2.5 s before even marking itself
    // busy, so its heartbeats keep saying idle; after the shrunk grace
    // the coordinator revokes the lease and requeues the job — which
    // can only go back to the same worker, queueing behind the stall.
    // The worker eventually drains the backlog in order: every result
    // but the last carries a revoked lease.
    EnvVar stall("BINGO_DIST_TEST_STALL_JOB", "0:2500:once");
    EnvVar grace("BINGO_DIST_REDISPATCH_S", "0.5");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 1, &report));
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_GE(report.leases_revoked, 1u);
    EXPECT_GE(report.redispatched, 1u);
    EXPECT_GE(report.stale_results_dropped, 1u);
    EXPECT_EQ(report.poisoned, 0u);
    // At-most-once commit: the journal is exactly the single-process
    // journal; the stale results left no trace.
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
}

// --- Host templates. Workers launched from a BINGO_DIST_HOSTS
// command template run through /bin/sh and speak the same stdin/stdout
// frames as local workers; every commit goes through the coordinator's
// append log.

TEST(DistHosts, StdioWorkersCommitThroughTheCoordinatorLog)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("hosts_ref");
    runReference(jobs, reference.path());

    TempDir dist("hosts_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    // Two "hosts", both the local worker binary: the template is
    // exactly what an ssh wrapper would be, minus the ssh.
    EnvVar hosts("BINGO_DIST_HOSTS",
                 workerBinaryPath() + ";" + workerBinaryPath());

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 0, &report));
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    // Every commit went through the coordinator's log.
    EXPECT_EQ(report.log_records, jobs.size());
    EXPECT_EQ(report.fallback_jobs, 0u);
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dist.path())));
}

TEST(DistHosts, StaleProtocolWorkerIsRefusedOnceAndTheSweepRunsInProcess)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("stale_ref");
    runReference(jobs, reference.path());

    // A version-1 worker: one well-framed `hello 1`, then silence
    // until the coordinator closes its stdin.
    TempDir worker_dir("stale_worker");
    std::filesystem::create_directories(worker_dir.path());
    const std::string frame_path = worker_dir.path() + "/hello.bin";
    {
        int unused[2];
        ASSERT_EQ(::pipe(unused), 0);
        ::close(unused[1]);
        const int out = ::open(frame_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
        ASSERT_GE(out, 0);
        dist::FramedLink link(unused[0], out);
        ASSERT_TRUE(
            link.send(dist::MsgType::Hello, "hello 1 4242 0\n"));
    }
    // The launcher's own arguments land in the inner shell's $0, $1...
    // (and `;` separates host templates, hence `&&`).
    const std::string stale =
        "sh -c 'cat \"" + frame_path + "\" && cat >/dev/null' stale";

    TempDir run("stale_run");
    EnvVar journal("BINGO_JOURNAL_DIR", run.path());
    EnvVar hosts("BINGO_DIST_HOSTS", stale + ";" + stale);
    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 0, &report));
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    // Each slot is retired at its hello and never respawned: a respawn
    // would run the same stale binary.
    EXPECT_GT(report.workers_spawned, 0u);
    EXPECT_EQ(report.workers_lost, report.workers_spawned);
    EXPECT_EQ(report.reconnects, 0u);
    EXPECT_EQ(report.fallback_jobs, jobs.size());
    EXPECT_EQ(dirContents(run.path()), dirContents(reference.path()));
}

// --- Transport chaos. Deterministic fault injection on the real byte
// stream: corrupt, truncate, duplicate, stall, sever. BINGO_CHAOS is
// parsed once per process, so the sweep runs in a fresh subprocess.

TEST(DistChaos, ChaoticStdioSweepCommitsEveryJobExactlyOnce)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("chaos_ref");
    runReference(jobs, reference.path());

    TempDir dist("chaos_run");
    TempDir telemetry("chaos_tel");
    dist::manifestStore(dist.path(), jobs);
    const pid_t pid = spawnSweepProcess(
        dist::manifestPath(dist.path()),
        {{"BINGO_CHAOS", "11:0.08:transport"},
         {"BINGO_DIST_HOSTS",
          workerBinaryPath() + ";" + workerBinaryPath()},
         {"BINGO_TELEMETRY_DIR", telemetry.path()}});
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // Frames were corrupted, stalled, and severed in transit — yet the
    // journal is byte-identical to the single-process run: no job
    // lost, none double-committed.
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dist.path())));
    // The health counters surfaced what the injector did.
    const std::string health =
        readFile(telemetry.path() + "/transport_health.json");
    EXPECT_NE(health.find("injected_faults"), std::string::npos);
    EXPECT_NE(health.find("corrupt_frames_dropped"), std::string::npos);
}

// --- Coordinator crash. kill -9 the coordinator mid-sweep, restart
// from the same manifest + journal dir: the merged journal must be
// byte-identical to an uninterrupted single-process run.

TEST(DistCrash, CoordinatorKilledMidSweepResumesFromTheManifest)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("coordkill_ref");
    runReference(jobs, reference.path());

    TempDir dist("coordkill_run");
    TempDir markers("coordkill_markers");
    dist::manifestStore(dist.path(), jobs);
    // Stall job 3 so the coordinator dies with work still in flight.
    const pid_t pid = spawnSweepProcess(
        dist::manifestPath(dist.path()),
        {{"BINGO_DIST_WORKERS", "2"},
         {"BINGO_DIST_TEST_DIR", markers.path()},
         {"BINGO_DIST_TEST_STALL_JOB", "3:1200:once"}});
    ASSERT_GT(pid, 0);

    // Kill -9 as soon as the first record commits to the coordinator
    // log (so some — not all — work survives the crash).
    const std::string log =
        journalShardRoot(dist.path()) + "/coordinator.log";
    int status = 0;
    bool exited_early = false;
    for (int spin = 0; spin < 5000; ++spin) {
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            exited_early = true;  // Weaker but valid: resume a no-op.
            break;
        }
        std::error_code ec;
        if (std::filesystem::file_size(log, ec) > 0 && !ec)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!exited_early) {
        ::kill(pid, SIGKILL);
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status));
        // Orphaned workers see EOF on stdin and exit; the stalled one
        // finishes its nap, fails to report, and dies. Let that play
        // out before resuming.
        std::this_thread::sleep_for(std::chrono::milliseconds(1800));
    }

    // Restart from the same manifest + journal dir, uninterrupted.
    const pid_t resume = spawnSweepProcess(
        dist::manifestPath(dist.path()),
        {{"BINGO_DIST_WORKERS", "2"}});
    ASSERT_GT(resume, 0);
    ASSERT_EQ(::waitpid(resume, &status, 0), resume);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);

    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dist.path())));
}

} // namespace
} // namespace bingo

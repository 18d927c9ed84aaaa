#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include <unistd.h>

#include "chaos/chaos.hpp"
#include "common/hash.hpp"
#include "dist/coordinator.hpp"
#include "dist/manifest.hpp"
#include "dist/supervisor.hpp"
#include "sim/journal.hpp"
#include "sim/report.hpp"
#include "sim/thread_pool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{

namespace
{

std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value)
        return fallback;
    return parsed;
}

std::atomic<std::uint64_t> g_completed_runs{0};
std::atomic<std::uint64_t> g_simulated_cycles{0};

/** Cache key: the full identity of a baseline run. */
std::string
baselineKey(const std::string &workload,
            const ExperimentOptions &options)
{
    return workload + "/" +
           std::to_string(options.warmup_instructions) + "/" +
           std::to_string(options.measure_instructions) + "/" +
           std::to_string(options.seed);
}

/**
 * Identity of everything in a SystemConfig except the prefetcher —
 * baselines ignore the prefetcher knobs, but two different substrates
 * must never share a cache entry.
 */
std::string
substrateFingerprint(const SystemConfig &config)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%u|%.3f|%u|%u|%u|%u|%llu|%u|%u|%u|%u|%u|%llu|%u|%u|%u|%u|%u|"
        "%u|%llu|%u|%u|%u|%u|%u|%u",
        config.num_cores, config.frequency_ghz, config.core.width,
        config.core.rob_entries, config.core.lsq_entries,
        config.core.alu_latency,
        static_cast<unsigned long long>(config.l1d.size_bytes),
        config.l1d.ways, config.l1d.hit_latency,
        config.l1d.mshr_entries, config.l1d.prefetch_queue,
        static_cast<unsigned>(config.l1d.replacement),
        static_cast<unsigned long long>(config.llc.size_bytes),
        config.llc.ways, config.llc.hit_latency,
        config.llc.mshr_entries, config.llc.prefetch_queue,
        static_cast<unsigned>(config.llc.replacement),
        config.dram.channels,
        static_cast<unsigned long long>(config.dram.row_size_bytes),
        config.dram.banks_per_channel, config.dram.controller_latency,
        config.dram.t_cas, config.dram.t_rcd, config.dram.t_rp,
        config.dram.data_transfer);
    return buf;
}

struct BaselineSlot
{
    bool ready = false;
    RunResult result;
};

std::mutex g_baseline_mutex;
std::condition_variable g_baseline_cv;
std::map<std::string, BaselineSlot> g_baseline_cache;
std::string g_baseline_substrate;

/** Whether baselineFor() already holds the result for `key`. */
bool
baselineReady(const std::string &key)
{
    std::lock_guard<std::mutex> lock(g_baseline_mutex);
    const auto it = g_baseline_cache.find(key);
    return it != g_baseline_cache.end() && it->second.ready;
}

/**
 * The config a job's System is built from: `config` under `seed`,
 * with env chaos applied, validated (throws on an invalid config).
 */
SystemConfig
resolvedConfig(const SystemConfig &config, std::uint64_t seed)
{
    SystemConfig cfg = config;
    cfg.seed = seed;
    chaos::applyEnvChaos(cfg);
    cfg.validate();
    return cfg;
}

// --- Graceful SIGINT/SIGTERM drain -------------------------------------

std::atomic<int> g_sweep_signal{0};
std::mutex g_signal_mutex;
int g_signal_depth = 0;
struct sigaction g_old_sigint;
struct sigaction g_old_sigterm;

/**
 * First signal: flag the drain (async-signal-safe: one atomic store
 * and a write(2)). Second signal: restore the default disposition and
 * re-raise, so an impatient second Ctrl-C still kills immediately.
 */
void
sweepSignalHandler(int sig)
{
    if (g_sweep_signal.exchange(sig) != 0) {
        std::signal(sig, SIG_DFL);
        std::raise(sig);
        return;
    }
    static const char msg[] =
        "\nbingo: signal received — draining sweep (in-flight jobs "
        "finish and journal; signal again to abort immediately)\n";
    const ssize_t rc = ::write(2, msg, sizeof(msg) - 1);
    (void)rc;
}

/**
 * Export a finished job's telemetry when BINGO_TELEMETRY_DIR is set.
 * The file stem carries workload, prefetcher, and the job fingerprint,
 * so concurrent workers and repeated configs never collide. Export
 * failures are reported but never fail the job: the RunResult is
 * already safe. Called for failed attempts too (`failure_reason`
 * non-empty), so even a run that died mid-simulation leaves a
 * well-formed run.json explaining why.
 */
void
maybeExportTelemetry(const SweepJob &job, System &system,
                     const std::string &failure_reason)
{
    if (system.telemetry() == nullptr)
        return;
    const std::string dir = telemetry::outputDir();
    if (dir.empty())
        return;
    telemetry::RunMeta meta;
    meta.workload = job.workload;
    meta.prefetcher = prefetcherName(job.config.prefetcher.kind);
    meta.seed = job.options.seed;
    meta.frequency_ghz = job.config.frequency_ghz;
    meta.degraded = system.anyQuarantined();
    if (meta.degraded)
        meta.degraded_reason = system.quarantineReport();
    meta.failed = !failure_reason.empty();
    meta.failure_reason = failure_reason;
    meta.base_name =
        telemetry::sanitizeFileStem(meta.workload + "_" +
                                    meta.prefetcher) +
        "_" + jobFingerprint(job).substr(0, 12);
    try {
        telemetry::writeRunTelemetry(dir, meta, *system.telemetry());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
    }
}

/**
 * One job, attempted up to 1 + BINGO_RETRIES times. Never throws:
 * every failure is folded into the returned outcome. `collect` runs
 * on the finished System of a successful attempt only. A sweep's
 * TraceReadPlan counts one System per job, so only the first build
 * reads as planned, and only if `planned_read` is set; every later
 * build reads outside the plan.
 */
JobOutcome
runJobWithRetries(const SweepJob &job, std::size_t index,
                  const std::function<void(std::size_t, System &)>
                      &collect,
                  const SweepFaultHook &fault_hook, bool planned_read)
{
    JobOutcome outcome;
    const auto start = std::chrono::steady_clock::now();
    const unsigned max_attempts = 1 + sweepRetries();
    const double timeout_s = sweepJobTimeoutSeconds();

    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        outcome.attempts = attempt;
        try {
            if (fault_hook)
                fault_hook(index, attempt);
            std::optional<UnplannedTraceReads> unplanned;
            if (!planned_read)
                unplanned.emplace();
            planned_read = false;
            System system(resolvedConfig(job.config, job.options.seed),
                          job.workload);
            if (telemetry::requested())
                system.enableTelemetry(telemetry::optionsFromEnv());
            if (timeout_s > 0.0) {
                system.setDeadline(
                    std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(timeout_s)));
            }
            try {
                system.run(job.options.warmup_instructions,
                           job.options.measure_instructions);
            } catch (const std::exception &e) {
                // The run died, but the System still holds partial
                // telemetry — flush it with the failure reason so the
                // run.json is complete, then fail the attempt.
                maybeExportTelemetry(job, system, e.what());
                throw;
            } catch (...) {
                maybeExportTelemetry(job, system, "unknown exception");
                throw;
            }
            g_completed_runs.fetch_add(1, std::memory_order_relaxed);
            g_simulated_cycles.fetch_add(system.now(),
                                         std::memory_order_relaxed);
            collect(index, system);
            maybeExportTelemetry(job, system, std::string());
            // Quarantine is graceful degradation, not failure: the
            // result is valid and retrying would reproduce the same
            // deterministic fault, so report Degraded and stop.
            if (system.anyQuarantined()) {
                outcome.status = JobStatus::Degraded;
                outcome.error = system.quarantineReport();
            } else {
                outcome.status = JobStatus::Ok;
                outcome.error.clear();
            }
            outcome.exception = nullptr;
            break;
        } catch (const std::exception &e) {
            outcome.status = JobStatus::Failed;
            outcome.error = e.what();
            outcome.exception = std::current_exception();
        } catch (...) {
            outcome.status = JobStatus::Failed;
            outcome.error = "unknown exception";
            outcome.exception = std::current_exception();
        }
        // A drain request cancels the remaining retries: the last
        // failure is already recorded, and the journal keeps every
        // completed job for the resume.
        if (sweepInterrupted())
            break;
        if (attempt < max_attempts) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                retryBackoffMs(index, attempt)));
        }
    }

    outcome.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return outcome;
}

/**
 * Drive `members` (indices into `jobs`) as one lockstep batch on the
 * calling worker thread: every member's System is constructed up
 * front, then the batch round-robins advance() slices until all
 * complete. Members share a trace stream (the caller groups them by
 * stream identity), so they walk one shared trace-cache buffer
 * nearly in step — each generated slice is consumed by the whole
 * batch while it is hot in the host's caches instead of being
 * re-walked cold per run.
 *
 * One member's failure never poisons its batchmates: the member is
 * dropped from the lockstep and re-run solo through the normal retry
 * path afterwards (simulation is deterministic, so the solo rerun
 * reproduces exactly what the lockstep run would have produced).
 */
void
runBatchLockstep(
    const std::vector<SweepJob> &jobs,
    const std::vector<std::size_t> &members,
    const std::function<void(std::size_t, System &)> &collect,
    std::vector<JobOutcome> &outcomes)
{
    struct Member
    {
        std::size_t index = 0;
        std::unique_ptr<System> system;
        std::chrono::steady_clock::time_point start;
    };

    const double timeout_s = sweepJobTimeoutSeconds();
    std::vector<Member> live;
    live.reserve(members.size());
    std::vector<std::size_t> solo;  ///< Members to re-run alone.

    for (std::size_t index : members) {
        if (sweepInterrupted()) {
            outcomes[index].status = JobStatus::Failed;
            outcomes[index].attempts = 0;
            outcomes[index].error =
                "sweep interrupted by signal before this job started "
                "(journaled jobs are kept; re-run to resume)";
            continue;
        }
        const SweepJob &job = jobs[index];
        Member m;
        m.index = index;
        m.start = std::chrono::steady_clock::now();
        try {
            m.system = std::make_unique<System>(
                resolvedConfig(job.config, job.options.seed),
                job.workload);
            if (telemetry::requested())
                m.system->enableTelemetry(telemetry::optionsFromEnv());
            if (timeout_s > 0.0) {
                // The batch shares one worker thread, so a member's
                // wall-clock budget must cover its batchmates' slices
                // too.
                m.system->setDeadline(
                    std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            timeout_s *
                            static_cast<double>(members.size()))));
            }
            m.system->beginRun(job.options.warmup_instructions,
                               job.options.measure_instructions);
            live.push_back(std::move(m));
        } catch (...) {
            solo.push_back(index);
        }
    }

    // Round-robin advance() slices until every member completes. The
    // slice length trades lockstep tightness against per-slice
    // switching cost. The shared buffer retains the whole stream, so
    // members never miss it however far apart they drift; staying
    // close keeps the slice a leader just generated hot in the host's
    // caches for the rest. 8192 iterations keeps members within a
    // couple of trace-cache commit slices of each other while the
    // resumed-loop overhead stays well under a percent. Note batching
    // trades trace-stream bandwidth for simulator-state footprint —
    // see EXPERIMENTS.md for the regime where each side wins.
    constexpr std::uint64_t kSliceIterations = 8192;
    std::size_t running = live.size();
    while (running > 0) {
        for (Member &m : live) {
            if (m.system == nullptr)
                continue;
            const SweepJob &job = jobs[m.index];
            bool finished = false;
            try {
                finished = m.system->advance(kSliceIterations);
            } catch (const std::exception &e) {
                maybeExportTelemetry(job, *m.system, e.what());
                solo.push_back(m.index);
                m.system.reset();
                --running;
                continue;
            } catch (...) {
                maybeExportTelemetry(job, *m.system,
                                     "unknown exception");
                solo.push_back(m.index);
                m.system.reset();
                --running;
                continue;
            }
            if (!finished)
                continue;
            System &system = *m.system;
            g_completed_runs.fetch_add(1, std::memory_order_relaxed);
            g_simulated_cycles.fetch_add(system.now(),
                                         std::memory_order_relaxed);
            collect(m.index, system);
            maybeExportTelemetry(job, system, std::string());
            JobOutcome &outcome = outcomes[m.index];
            if (system.anyQuarantined()) {
                outcome.status = JobStatus::Degraded;
                outcome.error = system.quarantineReport();
            } else {
                outcome.status = JobStatus::Ok;
                outcome.error.clear();
            }
            outcome.attempts = 1;
            outcome.exception = nullptr;
            outcome.wall_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - m.start)
                    .count();
            m.system.reset();
            --running;
        }
    }

    for (std::size_t index : solo)
        outcomes[index] = runJobWithRetries(jobs[index], index, collect,
                                            {}, /*planned_read=*/false);
}

/**
 * Shared sweep engine: run the jobs selected by `indices` (indices
 * into `jobs`, preserving the caller's numbering for collect/hook/
 * outcomes) plus the deduplicated baselines they request.
 */
void
runIndexed(const std::vector<SweepJob> &jobs,
           const std::vector<std::size_t> &indices,
           const std::function<void(std::size_t, System &)> &collect,
           std::vector<JobOutcome> &outcomes, unsigned num_threads,
           const SweepFaultHook &fault_hook)
{
    // Stop dispatching on SIGINT/SIGTERM: jobs that have not started
    // when the signal lands are reported instead of run, in-flight
    // jobs finish (or hit their watchdog deadline) and journal as
    // usual, so the interrupted sweep resumes from BINGO_JOURNAL_DIR.
    ScopedSweepSignals signal_guard;
    const auto runOne = [&](std::size_t i) {
        if (sweepInterrupted()) {
            outcomes[i].status = JobStatus::Failed;
            outcomes[i].attempts = 0;
            outcomes[i].error =
                "sweep interrupted by signal before this job started "
                "(journaled jobs are kept; re-run to resume)";
            return;
        }
        outcomes[i] = runJobWithRetries(jobs[i], i, collect, fault_hook,
                                        /*planned_read=*/true);
    };

    // Distinct baselines requested by the jobs, deduplicated so each
    // is submitted (and computed) once. A baseline warm failure is
    // swallowed here: the bench's own baselineFor call will retry it
    // and report the error in context.
    std::vector<std::size_t> baseline_of;  ///< Job index per baseline.
    {
        std::map<std::string, std::size_t> seen;
        for (std::size_t i : indices) {
            if (!jobs[i].compare_baseline)
                continue;
            seen.try_emplace(
                baselineKey(jobs[i].workload, jobs[i].options), i);
        }
        for (const auto &[key, index] : seen)
            baseline_of.push_back(index);
    }

    // Trace read plan: every System this sweep will build announces
    // its streams, so the last reader of each stream streams it
    // instead of materializing a buffer nobody will reread (see
    // workload/trace_cache.hpp). A baseline already computed builds
    // no System. An invalid config announces nothing: its job fails
    // before it acquires.
    TraceReadPlan trace_plan;
    const auto plan = [&trace_plan](const std::string &workload,
                                    const SystemConfig &config,
                                    std::uint64_t seed) {
        try {
            System::planTraceReaders(resolvedConfig(config, seed),
                                     workload, trace_plan);
        } catch (const std::exception &) {
        }
    };
    for (std::size_t i : indices)
        plan(jobs[i].workload, jobs[i].config, jobs[i].options.seed);
    for (std::size_t i : baseline_of) {
        if (!baselineReady(baselineKey(jobs[i].workload, jobs[i].options)))
            plan(jobs[i].workload, SystemConfig{}, jobs[i].options.seed);
    }
    // Baselines always run on the default substrate, matching the
    // benches' direct baselineFor(workload, SystemConfig{}, options)
    // calls — a job may sweep substrate knobs (e.g. LLC replacement)
    // while its reference point stays the Table I machine.
    const auto warmOne = [&](std::size_t i) {
        if (sweepInterrupted())
            return;
        try {
            baselineFor(jobs[i].workload, SystemConfig{},
                        jobs[i].options);
        } catch (...) {
        }
    };

    // Batch formation: group jobs that share a trace stream identity
    // — exactly the baseline key (workload, warmup, measure, seed) —
    // and chunk each group into lockstep units of BINGO_BATCH. A
    // fault hook pins the sweep to singleton units: the hook's
    // (index, attempt) contract assumes each job starts on its own
    // runJobWithRetries call.
    const unsigned batch = fault_hook ? 1 : sweepBatchSize();
    std::vector<std::vector<std::size_t>> units;
    if (batch <= 1) {
        units.reserve(indices.size());
        for (std::size_t i : indices)
            units.push_back({i});
    } else {
        std::map<std::string, std::vector<std::size_t>> groups;
        std::vector<std::string> order;  ///< First-seen group order.
        for (std::size_t i : indices) {
            auto [it, inserted] = groups.try_emplace(
                baselineKey(jobs[i].workload, jobs[i].options));
            if (inserted)
                order.push_back(it->first);
            it->second.push_back(i);
        }
        for (const std::string &key : order) {
            const std::vector<std::size_t> &group = groups[key];
            for (std::size_t pos = 0; pos < group.size();
                 pos += batch) {
                const std::size_t end =
                    std::min(pos + batch, group.size());
                units.emplace_back(group.begin() + pos,
                                   group.begin() + end);
            }
        }
    }
    const auto runUnit = [&](const std::vector<std::size_t> &unit) {
        if (unit.size() == 1) {
            runOne(unit[0]);
            return;
        }
        runBatchLockstep(jobs, unit, collect, outcomes);
    };

    const unsigned threads =
        num_threads > 0 ? num_threads : sweepJobCount();
    if (threads <= 1) {
        for (std::size_t i : baseline_of)
            warmOne(i);
        for (const auto &unit : units)
            runUnit(unit);
        return;
    }

    ThreadPool pool(threads);
    // Baselines first: they gate the metrics of every job that set
    // compare_baseline, so get them onto the workers before the bulk.
    for (std::size_t i : baseline_of)
        pool.submit([&warmOne, i] { warmOne(i); });
    for (const auto &unit : units)
        pool.submit([&runUnit, &unit] { runUnit(unit); });
    pool.wait();
}

/** Rethrow the first failed outcome, if any. */
void
rethrowFirstFailure(const std::vector<JobOutcome> &outcomes)
{
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok())
            continue;
        if (outcome.exception)
            std::rethrow_exception(outcome.exception);
        throw std::runtime_error(outcome.error.empty()
                                     ? "sweep job failed"
                                     : outcome.error);
    }
}

} // namespace

ExperimentOptions
defaultOptions()
{
    ExperimentOptions options;
    options.warmup_instructions =
        envU64("BINGO_WARMUP_INSTRS", options.warmup_instructions);
    options.measure_instructions =
        envU64("BINGO_MEASURE_INSTRS", options.measure_instructions);
    options.seed = envU64("BINGO_SEED", options.seed);
    return options;
}

unsigned
sweepRetries()
{
    return static_cast<unsigned>(
        std::min<std::uint64_t>(envU64("BINGO_RETRIES", 1), 100));
}

unsigned
retryBackoffMs(std::size_t job_index, unsigned attempt)
{
    const unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0, 6u);
    const unsigned base = std::min(10u << shift, 500u);
    // Deterministic jitter in [0, base/2]: two failing jobs (or two
    // respawning workers) never sleep in lockstep, yet every
    // (job_index, attempt) pair always waits the same time.
    const std::uint64_t draw = hashCombine(
        static_cast<std::uint64_t>(job_index) + 0x9e3779b97f4a7c15ULL,
        attempt);
    const unsigned jitter =
        static_cast<unsigned>(draw % (base / 2 + 1));
    return base / 2 + jitter;
}

bool
sweepInterrupted()
{
    return g_sweep_signal.load(std::memory_order_relaxed) != 0;
}

ScopedSweepSignals::ScopedSweepSignals()
{
    std::lock_guard<std::mutex> lock(g_signal_mutex);
    if (++g_signal_depth > 1)
        return;
    g_sweep_signal.store(0);
    struct sigaction action = {};
    action.sa_handler = sweepSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    sigaction(SIGINT, &action, &g_old_sigint);
    sigaction(SIGTERM, &action, &g_old_sigterm);
}

ScopedSweepSignals::~ScopedSweepSignals()
{
    std::lock_guard<std::mutex> lock(g_signal_mutex);
    if (--g_signal_depth > 0)
        return;
    sigaction(SIGINT, &g_old_sigint, nullptr);
    sigaction(SIGTERM, &g_old_sigterm, nullptr);
}

double
sweepJobTimeoutSeconds()
{
    const char *value = std::getenv("BINGO_JOB_TIMEOUT_S");
    if (value == nullptr || *value == '\0')
        return 0.0;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || !(parsed > 0.0))
        return 0.0;
    return parsed;
}

std::string
sweepJournalDir()
{
    const char *value = std::getenv("BINGO_JOURNAL_DIR");
    return value == nullptr ? std::string() : std::string(value);
}

RunResult
runWorkload(const std::string &workload, const SystemConfig &config,
            const ExperimentOptions &options)
{
    System system(resolvedConfig(config, options.seed), workload);
    system.run(options.warmup_instructions,
               options.measure_instructions);
    g_completed_runs.fetch_add(1, std::memory_order_relaxed);
    g_simulated_cycles.fetch_add(system.now(),
                                 std::memory_order_relaxed);
    return collectResult(system, workload);
}

const RunResult &
baselineFor(const std::string &workload, SystemConfig config,
            const ExperimentOptions &options)
{
    const std::string key = baselineKey(workload, options);
    const std::string substrate = substrateFingerprint(config);

    std::unique_lock<std::mutex> lock(g_baseline_mutex);
    if (g_baseline_substrate.empty()) {
        g_baseline_substrate = substrate;
    } else if (g_baseline_substrate != substrate) {
        throw std::logic_error(
            "baselineFor: a second substrate config in one process — "
            "the baseline cache assumes one (caches/cores/DRAM) "
            "config per bench");
    }

    for (;;) {
        auto [it, inserted] = g_baseline_cache.try_emplace(key);
        if (!inserted) {
            if (it->second.ready)
                return it->second.result;
            // Another thread is computing this baseline; wait for it.
            g_baseline_cv.wait(lock);
            continue;
        }

        // This thread owns the computation. std::map nodes are stable,
        // so `it` survives the unlocked section and concurrent inserts.
        lock.unlock();
        config.prefetcher = PrefetcherConfig{};
        config.prefetcher.kind = PrefetcherKind::None;
        RunResult result;
        try {
            // Baselines resume from the journal like sweep jobs do:
            // without this, a resumed sweep would still pay full price
            // for its reference runs.
            const std::string journal_dir = sweepJournalDir();
            std::string fingerprint;
            bool journaled = false;
            if (!journal_dir.empty()) {
                SweepJob identity;
                identity.workload = workload;
                identity.config = config;
                identity.options = options;
                fingerprint = jobFingerprint(identity);
                journaled =
                    journalLoad(journal_dir, fingerprint, result);
            }
            if (!journaled) {
                result = runWorkload(workload, config, options);
                if (!journal_dir.empty()) {
                    try {
                        journalStore(journal_dir, fingerprint, result);
                    } catch (const std::exception &e) {
                        std::fprintf(stderr, "%s\n", e.what());
                    }
                }
            }
        } catch (...) {
            lock.lock();
            g_baseline_cache.erase(it);
            g_baseline_cv.notify_all();
            throw;
        }
        lock.lock();
        it->second.result = std::move(result);
        it->second.ready = true;
        g_baseline_cv.notify_all();
        return it->second.result;
    }
}

const RunResult *
tryBaselineFor(const std::string &workload, const SystemConfig &config,
               const ExperimentOptions &options)
{
    try {
        return &baselineFor(workload, config, options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "baseline %s failed: %s\n",
                     workload.c_str(), e.what());
        return nullptr;
    }
}

unsigned
sweepJobCount()
{
    const std::uint64_t requested = envU64("BINGO_JOBS", 0);
    if (requested >= 1)
        return static_cast<unsigned>(requested);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned
sweepBatchSize()
{
    const std::uint64_t requested = envU64("BINGO_BATCH", 1);
    if (requested <= 1)
        return 1;
    return static_cast<unsigned>(
        std::min<std::uint64_t>(requested, 64));
}

unsigned
sweepDistWorkers()
{
    return static_cast<unsigned>(
        std::min<std::uint64_t>(envU64("BINGO_DIST_WORKERS", 0), 256));
}

JobOutcome
runSingleJob(const SweepJob &job, std::size_t index, RunResult &result)
{
    const auto collect = [&](std::size_t, System &system) {
        result = collectResult(system, job.workload);
    };
    return runJobWithRetries(job, index, collect, {},
                             /*planned_read=*/false);
}

void
primeBaselineCache(const std::string &workload,
                   const ExperimentOptions &options,
                   const RunResult &result)
{
    const std::string key = baselineKey(workload, options);
    std::lock_guard<std::mutex> lock(g_baseline_mutex);
    // Baseline jobs always run the default substrate (see runIndexed).
    if (g_baseline_substrate.empty())
        g_baseline_substrate = substrateFingerprint(SystemConfig{});
    auto [it, inserted] = g_baseline_cache.try_emplace(key);
    if (!inserted && it->second.ready)
        return;
    it->second.result = result;
    it->second.ready = true;
    g_baseline_cv.notify_all();
}

void
addExternalRunStats(std::uint64_t runs, std::uint64_t cycles)
{
    g_completed_runs.fetch_add(runs, std::memory_order_relaxed);
    g_simulated_cycles.fetch_add(cycles, std::memory_order_relaxed);
}

std::vector<JobOutcome>
runSweepSystemsOutcomes(
    const std::vector<SweepJob> &jobs,
    const std::function<void(std::size_t, System &)> &collect,
    unsigned num_threads, const SweepFaultHook &fault_hook)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> indices(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        indices[i] = i;
    runIndexed(jobs, indices, collect, outcomes, num_threads,
               fault_hook);
    return outcomes;
}

namespace
{

/** Post-drain note: how much of the sweep a signal cut off. */
void
reportInterrupted(const std::vector<JobOutcome> &outcomes)
{
    if (!sweepInterrupted())
        return;
    std::size_t not_run = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.status == JobStatus::Failed &&
            outcome.error.find("sweep interrupted") != std::string::npos)
            ++not_run;
    }
    std::printf("Sweep interrupted by signal: %llu of %llu jobs not "
                "run; completed jobs are journaled%s\n",
                static_cast<unsigned long long>(not_run),
                static_cast<unsigned long long>(outcomes.size()),
                sweepJournalDir().empty()
                    ? " only if BINGO_JOURNAL_DIR is set"
                    : ", re-run the same command to resume");
}

} // namespace

std::vector<JobOutcome>
runSweepOutcomes(const std::vector<SweepJob> &jobs,
                 unsigned num_threads, const SweepFaultHook &fault_hook)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<RunResult> results(jobs.size());
    std::vector<std::string> fingerprints(jobs.size());
    const std::string journal_dir = sweepJournalDir();

    // Distributed dispatch is transparent: BINGO_DIST_WORKERS=N (local
    // worker processes) or BINGO_DIST_HOSTS (stdio workers launched
    // through command templates) hands the pending jobs to supervised
    // bingo_worker processes instead of in-process threads. Callers
    // that pin num_threads or install a fault hook (test seams) keep
    // the in-process path.
    const bool want_dist =
        (sweepDistWorkers() > 0 || !dist::sweepDistHosts().empty()) &&
        num_threads == 0 && !fault_hook && !jobs.empty();

    // A journaled sweep is coordinator-crash-resumable: describe it as
    // data first, so `bingo_worker --sweep <journal>/manifest.sweep`
    // (or simply rerunning the driver) can finish it if this process is
    // kill -9'd mid-flight. The manifest is a pure function of the job
    // list, so rewriting it on resume is byte-idempotent.
    if (!journal_dir.empty() && !jobs.empty())
        dist::manifestStore(journal_dir, jobs);

    if (want_dist && !journal_dir.empty()) {
        // A previous coordinator may have died after its workers
        // journaled results but before the merge; fold those shards in
        // so the resume pass below sees them.
        const ShardMergeStats leftover = journalMergeShards(journal_dir);
        if (leftover.merged > 0) {
            std::printf("Journal: recovered %llu record(s) from "
                        "leftover worker shards\n",
                        static_cast<unsigned long long>(
                            leftover.merged));
        }
    }

    // Resume pass: journaled jobs become Skipped outcomes up front and
    // never reach the pool.
    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!journal_dir.empty()) {
            fingerprints[i] = jobFingerprint(jobs[i]);
            RunResult restored;
            if (journalLoad(journal_dir, fingerprints[i], restored)) {
                outcomes[i].status = JobStatus::Skipped;
                outcomes[i].result = std::move(restored);
                outcomes[i].attempts = 0;
                continue;
            }
        }
        pending.push_back(i);
    }

    if (want_dist && !pending.empty() &&
        dist::runSweepDistributed(jobs, pending, outcomes)) {
        reportInterrupted(outcomes);
        return outcomes;
    }
    // (Falls through to in-process execution when the bingo_worker
    // binary cannot be located — reported by the coordinator.)

    // Journal inside collect — i.e. the moment each job finishes on
    // its worker — so a sweep killed mid-flight keeps everything that
    // completed before the kill.
    const auto collect = [&](std::size_t i, System &system) {
        results[i] = collectResult(system, jobs[i].workload);
        if (journal_dir.empty())
            return;
        try {
            journalStore(journal_dir, fingerprints[i], results[i]);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
        }
    };
    runIndexed(jobs, pending, collect, outcomes, num_threads,
               fault_hook);

    for (std::size_t i : pending) {
        if (outcomes[i].ok())
            outcomes[i].result = std::move(results[i]);
    }
    reportInterrupted(outcomes);
    return outcomes;
}

void
runSweepSystems(
    const std::vector<SweepJob> &jobs,
    const std::function<void(std::size_t, System &)> &collect,
    unsigned num_threads)
{
    rethrowFirstFailure(
        runSweepSystemsOutcomes(jobs, collect, num_threads));
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned num_threads)
{
    std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, num_threads);
    rethrowFirstFailure(outcomes);
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (JobOutcome &outcome : outcomes)
        results.push_back(std::move(outcome.result));
    return results;
}

std::size_t
reportFailures(const std::vector<SweepJob> &jobs,
               const std::vector<JobOutcome> &outcomes)
{
    // A job counts as degraded whether it was quarantined this run
    // (status Degraded) or resumed from a journal entry recorded as
    // degraded (status Skipped, result.degraded).
    const auto isDegraded = [](const JobOutcome &outcome) {
        return outcome.status == JobStatus::Degraded ||
               (outcome.status == JobStatus::Skipped &&
                outcome.result.degraded);
    };
    std::size_t skipped = 0;
    std::size_t failed = 0;
    std::size_t degraded = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.status == JobStatus::Skipped)
            ++skipped;
        else if (outcome.status == JobStatus::Failed)
            ++failed;
        if (isDegraded(outcome))
            ++degraded;
    }
    if (skipped > 0) {
        std::printf("Journal: resumed %llu of %llu jobs from %s\n",
                    static_cast<unsigned long long>(skipped),
                    static_cast<unsigned long long>(outcomes.size()),
                    sweepJournalDir().c_str());
    }
    if (degraded > 0) {
        std::printf("NOTE: %llu of %llu sweep jobs completed with a "
                    "quarantined prefetcher; their table cells are "
                    "marked DEGRADED\n",
                    static_cast<unsigned long long>(degraded),
                    static_cast<unsigned long long>(outcomes.size()));
        TextTable table({"job", "workload", "prefetcher", "reason"});
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!isDegraded(outcomes[i]))
                continue;
            const std::string &reason =
                outcomes[i].status == JobStatus::Degraded
                    ? outcomes[i].error
                    : outcomes[i].result.degraded_reason;
            table.addRow(
                {std::to_string(i), jobs[i].workload,
                 prefetcherName(jobs[i].config.prefetcher.kind),
                 reason});
        }
        table.print();
    }
    if (failed == 0)
        return 0;

    std::printf("WARNING: %llu of %llu sweep jobs failed; their "
                "table cells are marked FAIL\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(outcomes.size()));
    TextTable table({"job", "workload", "prefetcher", "attempts",
                     "error"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status != JobStatus::Failed)
            continue;
        table.addRow({std::to_string(i), jobs[i].workload,
                      prefetcherName(jobs[i].config.prefetcher.kind),
                      std::to_string(outcomes[i].attempts),
                      outcomes[i].error});
    }
    table.print();
    return failed;
}

std::uint64_t
completedRuns()
{
    return g_completed_runs.load(std::memory_order_relaxed);
}

std::uint64_t
simulatedCycles()
{
    return g_simulated_cycles.load(std::memory_order_relaxed);
}

void
writeBenchSummary(const std::string &bench, double wall_seconds,
                  std::uint64_t runs, std::uint64_t cycles)
{
    const double runs_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(runs) / wall_seconds
                           : 0.0;
    const double cycles_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(cycles) / wall_seconds
                           : 0.0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\":\"%s\",\"wall_seconds\":%.6f,"
                  "\"runs\":%llu,\"runs_per_sec\":%.6f,"
                  "\"simulated_cycles\":%llu,"
                  "\"simulated_cycles_per_sec\":%.6g,"
                  "\"jobs\":%u}\n",
                  telemetry::sanitizeFileStem(bench).c_str(),
                  wall_seconds, static_cast<unsigned long long>(runs),
                  runs_per_sec,
                  static_cast<unsigned long long>(cycles),
                  cycles_per_sec, sweepJobCount());
    const std::string path =
        "BENCH_" + telemetry::sanitizeFileStem(bench) + ".json";
    try {
        telemetry::atomicWrite(path, buf);
    } catch (const std::exception &e) {
        // A read-only working directory must not fail the bench.
        std::fprintf(stderr, "%s\n", e.what());
    }
}

SweepTimer::SweepTimer()
    : start_(std::chrono::steady_clock::now()),
      runs_at_start_(completedRuns()),
      cycles_at_start_(simulatedCycles())
{
}

void
SweepTimer::report(const char *bench_json_name) const
{
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    const double seconds = elapsed.count();
    const std::uint64_t runs = completedRuns() - runs_at_start_;
    const std::uint64_t cycles = simulatedCycles() - cycles_at_start_;
    const double rate =
        seconds > 0.0 ? static_cast<double>(runs) / seconds : 0.0;
    const double cycle_rate =
        seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
    std::printf("Sweep wall-clock: %.2f s, %llu runs "
                "(%.2f runs/s, %.3g simulated cycles/s, "
                "BINGO_JOBS=%u)\n",
                seconds, static_cast<unsigned long long>(runs), rate,
                cycle_rate, sweepJobCount());
    if (bench_json_name != nullptr)
        writeBenchSummary(bench_json_name, seconds, runs, cycles);
}

void
printConfigHeader(const SystemConfig &config)
{
    std::printf("System: %u cores, %.1f GHz | L1D %llu KB %u-way | "
                "LLC %llu MB %u-way, %u-cycle | DRAM %u ch, "
                "%u-cycle zero-load row miss\n",
                config.num_cores, config.frequency_ghz,
                static_cast<unsigned long long>(
                    config.l1d.size_bytes / 1024),
                config.l1d.ways,
                static_cast<unsigned long long>(
                    config.llc.size_bytes / (1024 * 1024)),
                config.llc.ways, config.llc.hit_latency,
                config.dram.channels,
                config.dram.zeroLoadRowMiss());
}

} // namespace bingo

/**
 * @file
 * bingo-sim benchmark program. Each invocation does one thing for one
 * named workload and prints the result as one JSON line:
 *
 *   --sweep    run the workload's sweep once through runSweepOutcomes
 *              and check every job's result against the reference;
 *   --traced   run the jobs with recording hooks and replay each layer
 *              (the per-layer metrics);
 *   --setup    everything before the first simulated instruction;
 *   --record   print reference digests for every pooled workload seed;
 *   --list-metrics  print every metric and workload name.
 *
 *   perfbench --sweep|--traced --workload W --seed N --threads T
 *             --reference FILE
 *
 * perfbench/run.py builds it, repeats sweeps in fresh processes for the
 * requested time and reports medians; see perfbench/PROTOCOL.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "common/sim_check.hpp"
#include "common/simd.hpp"
#include "digest.hpp"
#include "dist/supervisor.hpp"
#include "layers.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace_cache.hpp"
#include "workloads.hpp"

extern char **environ;

namespace
{

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = kSeedBase;
    std::uint64_t threads = 1;
    std::string reference;
};

std::uint64_t
parseUint(const std::string &flag, const std::string &text,
          std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
        value > hi)
        throw std::invalid_argument(
            flag + " expects an integer in [" + std::to_string(lo) +
            ", " + std::to_string(hi) + "], got '" + text + "'");
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--sweep" || flag == "--traced" ||
            flag == "--setup" || flag == "--record" ||
            flag == "--list-metrics") {
            if (!args.mode.empty())
                throw std::invalid_argument("more than one mode given");
            args.mode = flag.substr(2);
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = parseUint(flag, value, 0, UINT32_MAX);
        else if (flag == "--threads")
            args.threads = parseUint(flag, value, 1, 256);
        else if (flag == "--reference")
            args.reference = value;
        else
            throw std::invalid_argument("unknown argument " + flag);
    }
    if (args.mode.empty())
        throw std::invalid_argument(
            "give one of --sweep, --traced, --setup, --record, "
            "--list-metrics");
    if (args.mode != "list-metrics" &&
        std::find(workloadNames().begin(), workloadNames().end(),
                  args.workload) == workloadNames().end())
        throw std::invalid_argument("--workload must be one of fig8, "
                                    "compute_bound, memory_bound");
    if ((args.mode == "sweep" || args.mode == "traced") &&
        args.reference.empty())
        throw std::invalid_argument("--reference is required");
    return args;
}

/**
 * Refuse to run with any BINGO_* variable set: every knob the
 * simulator reads from the environment must be at its default, or the
 * run measures something else than what the benchmark describes.
 */
void
requirePinnedEnvironment()
{
    std::string found;
    for (char **env = environ; *env != nullptr; ++env) {
        if (std::strncmp(*env, "BINGO_", 6) == 0) {
            found += ' ';
            found.append(*env, std::strcspn(*env, "="));
        }
    }
    if (!found.empty())
        throw std::invalid_argument(
            "unset these variables before benchmarking:" + found);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** The simulator's environment-derived knobs, as resolved. */
std::string
resolvedEnvironmentJson(unsigned threads)
{
    std::map<std::string, std::string> env = {
        {"BINGO_JOBS", std::to_string(threads)},
        {"BINGO_BATCH", std::to_string(bingo::sweepBatchSize())},
        {"BINGO_DIST_WORKERS",
         std::to_string(bingo::sweepDistWorkers())},
        {"BINGO_DIST_HOSTS",
         std::to_string(bingo::dist::sweepDistHosts().size())},
        {"BINGO_RETRIES", std::to_string(bingo::sweepRetries())},
        {"BINGO_JOB_TIMEOUT_S",
         jsonNumber(bingo::sweepJobTimeoutSeconds())},
        {"BINGO_JOURNAL_DIR", bingo::sweepJournalDir()},
        {"BINGO_TRACE_CACHE_MB",
         std::to_string(bingo::TraceCache::instance().budgetBytes() >>
                        20)},
        {"BINGO_CHECK", bingo::simCheckEnabled() ? "1" : "0"},
        {"BINGO_TELEMETRY", bingo::telemetry::requested() ? "1" : "0"},
        {"BINGO_CHAOS",
         bingo::chaos::chaosFromEnv().enabled ? "1" : "0"},
        {"BINGO_SIMD",
         bingo::simd::levelName(bingo::simd::activeLevel())},
    };
    std::string out = "{";
    for (const auto &[name, value] : env) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": " + jsonString(value);
    }
    return out + "}";
}

std::string
metricsJson(const std::vector<MetricValue> &metrics)
{
    std::string out = "{";
    for (const MetricValue &m : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(m.name) + ": {\"value\": " +
               jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
               "}";
    }
    return out + "}";
}

std::string
stringsJson(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (const std::string &item : items) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(item);
    }
    return out + "]";
}

/** Header fields shared by the --sweep and --traced results. */
std::string
resultHeaderJson(const Args &args, std::uint64_t seed,
                 const std::vector<bingo::SweepJob> &jobs)
{
    const bingo::SweepJob &first = jobs.front();
    return "\"workload\": " + jsonString(args.workload) +
           ", \"bench_seed\": " + std::to_string(args.seed) +
           ", \"workload_seed\": " + std::to_string(seed) +
           ", \"threads\": " + std::to_string(args.threads) +
           ", \"input\": {\"jobs\": " + std::to_string(jobs.size()) +
           ", \"warmup_instructions\": " +
           std::to_string(first.options.warmup_instructions) +
           ", \"measure_instructions\": " +
           std::to_string(first.options.measure_instructions) +
           ", \"cores\": " + std::to_string(first.config.num_cores) +
           ", \"quota_instructions\": " +
           std::to_string(quotaInstructions(jobs)) +
           "}, \"build\": " + jsonString(PERFBENCH_BUILD_INFO) +
           ", \"environment\": " +
           resolvedEnvironmentJson(static_cast<unsigned>(args.threads));
}

std::string
checkJson(std::size_t attempted, std::size_t failed,
          std::vector<std::string> problems)
{
    if (problems.size() > 20)
        problems.resize(20);
    return "\"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"problems\": " + stringsJson(problems);
}

/** One sweep, from a cold trace cache as any fresh process starts. */
int
runSweep(const Args &args)
{
    const std::uint64_t seed = workloadSeed(args.seed);
    const std::vector<bingo::SweepJob> jobs =
        makeJobs(args.workload, seed);
    const Reference reference = Reference::load(args.reference);
    const unsigned threads = static_cast<unsigned>(args.threads);

    const std::uint64_t cycles0 = bingo::simulatedCycles();
    const auto start = Clock::now();
    const std::vector<bingo::JobOutcome> outcomes =
        bingo::runSweepOutcomes(jobs, threads);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const std::uint64_t cycles = bingo::simulatedCycles() - cycles0;
    const CheckResult check = checkSweep(reference, seed, jobs, outcomes);
    const std::vector<MetricValue> layers = sweepLayerMetrics(
        jobs, outcomes, wall, threads,
        bingo::TraceCache::instance().stats());
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::printf("{%s, \"wall_s\": %s, \"simulated_cycles\": %llu, "
                "\"peak_rss_mb\": %s, %s, \"layers\": %s}\n",
                resultHeaderJson(args, seed, jobs).c_str(),
                jsonNumber(wall).c_str(),
                static_cast<unsigned long long>(cycles),
                jsonNumber(static_cast<double>(usage.ru_maxrss) / 1024.0)
                    .c_str(),
                checkJson(jobs.size(), check.failed, check.problems)
                    .c_str(),
                metricsJson(layers).c_str());
    return check.failed == 0 ? 0 : 1;
}

int
runTracedMode(const Args &args)
{
    const std::uint64_t seed = workloadSeed(args.seed);
    const std::vector<bingo::SweepJob> jobs =
        makeJobs(args.workload, seed);
    const Reference reference = Reference::load(args.reference);
    TracedRun traced = runTraced(
        jobs, seed, static_cast<unsigned>(args.threads), reference);
    std::printf("{%s, \"wall_s\": %s, %s, \"layers\": %s}\n",
                resultHeaderJson(args, seed, jobs).c_str(),
                jsonNumber(traced.wall_seconds).c_str(),
                checkJson(traced.attempted, traced.failed,
                          std::move(traced.problems))
                    .c_str(),
                metricsJson(traced.metrics).c_str());
    return traced.failed == 0 ? 0 : 1;
}

/** Everything before the first simulated instruction, then exit. */
int
runSetup(const Args &args)
{
    const std::vector<bingo::SweepJob> jobs =
        makeJobs(args.workload, workloadSeed(args.seed));
    for (const bingo::SweepJob &job : jobs) {
        bingo::SystemConfig config = job.config;
        config.seed = job.options.seed;
        config.validate();
    }
    bingo::SystemConfig config = jobs.front().config;
    config.seed = jobs.front().options.seed;
    const bingo::System system(config, jobs.front().workload);
    std::printf("ready %u\n", system.numCores());
    std::fflush(stdout);
    return 0;
}

/** Print reference lines for every job of every pooled seed. */
int
runRecord(const Args &args)
{
    for (std::uint64_t seed = kSeedBase; seed < kSeedBase + kSeedPool;
         ++seed) {
        const std::vector<bingo::SweepJob> jobs =
            makeJobs(args.workload, seed);
        bingo::TraceCache::instance().clear();
        const std::vector<bingo::JobOutcome> outcomes =
            bingo::runSweepOutcomes(jobs,
                                    static_cast<unsigned>(args.threads));
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const bingo::JobOutcome &outcome = outcomes[i];
            if (outcome.status != bingo::JobStatus::Ok ||
                outcome.result.degraded) {
                std::fprintf(stderr, "%s did not complete cleanly: %s\n",
                             jobLabel(jobs[i]).c_str(),
                             outcome.error.c_str());
                return 1;
            }
            std::printf("%s\n", referenceLine(seed, i,
                                              resultDigest(outcome.result),
                                              jobLabel(jobs[i]))
                                    .c_str());
        }
        std::fflush(stdout);
    }
    return 0;
}

int
listMetrics()
{
    for (const MetricSpec &spec : layerMetricSpecs())
        std::printf("per_layer %s %s %s\n", spec.name.c_str(),
                    spec.unit.c_str(), spec.better.c_str());
    for (const std::string &name : workloadNames())
        std::printf("workload %s\n", name.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        if (args.mode == "list-metrics")
            return listMetrics();
        requirePinnedEnvironment();
        if (args.mode == "setup")
            return runSetup(args);
        if (args.mode == "record")
            return runRecord(args);
        if (args.mode == "traced")
            return runTracedMode(args);
        return runSweep(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}

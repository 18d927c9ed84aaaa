#include "workloads.hpp"

#include <stdexcept>

#include "common/config.hpp"
#include "workload/generator.hpp"

namespace perfbench
{

using bingo::ExperimentOptions;
using bingo::PrefetcherKind;
using bingo::SweepJob;
using bingo::SystemConfig;

namespace
{

SystemConfig
configFor(PrefetcherKind kind)
{
    SystemConfig config;
    config.prefetcher.kind = kind;
    return config;
}

ExperimentOptions
options(std::uint64_t warmup, std::uint64_t measure, std::uint64_t seed)
{
    ExperimentOptions opts;
    opts.warmup_instructions = warmup;
    opts.measure_instructions = measure;
    opts.seed = seed;
    return opts;
}

/**
 * Figure 8 as bench_fig8_speedup runs it: every Table II workload
 * under the six competing prefetchers, with the no-prefetcher
 * baselines as jobs of their own (a repeated sweep in one process must
 * not be served by the memoized baselineFor cache). Seven jobs share
 * each (workload, core, seed) trace stream. Run at one fifth of the
 * default fidelity so that several sweeps fit in one timed run.
 */
std::vector<SweepJob>
fig8Jobs(std::uint64_t seed)
{
    const ExperimentOptions opts = options(1000 * 1000, 400 * 1000, seed);
    const PrefetcherKind kinds[] = {
        PrefetcherKind::None, PrefetcherKind::Bop,  PrefetcherKind::Spp,
        PrefetcherKind::Vldp, PrefetcherKind::Ampm, PrefetcherKind::Sms,
        PrefetcherKind::Bingo};
    std::vector<SweepJob> jobs;
    for (const std::string &workload : bingo::workloadNames()) {
        for (PrefetcherKind kind : kinds)
            jobs.push_back({workload, configFor(kind), opts});
    }
    return jobs;
}

/**
 * Low-MPKI server workloads under Bingo, every job on a seed of its
 * own: no trace stream is shared (the trace cache never hits), few
 * cycles can be skipped, and the host time goes to core dispatch and
 * L1D hits. The jobs are of equal length, so the pool stays busy.
 */
std::vector<SweepJob>
computeBoundJobs(std::uint64_t seed)
{
    const char *workloads[] = {"SAT Solver", "Streaming",
                               "Data Serving"};
    constexpr unsigned kSeedsPerWorkload = 4;
    std::vector<SweepJob> jobs;
    std::uint64_t job_seed = seed * 100;
    for (unsigned rep = 0; rep < kSeedsPerWorkload; ++rep) {
        for (const char *workload : workloads) {
            jobs.push_back(
                {workload, configFor(PrefetcherKind::Bingo),
                 options(1000 * 1000, 500 * 1000, job_seed++)});
        }
    }
    return jobs;
}

/**
 * High-MPKI workloads without a prefetcher, as a few long jobs: the
 * host time goes to LLC misses, MSHRs, the event queue and DRAM, most
 * cycles are skipped, and the sweep's wall time is the longest job.
 */
std::vector<SweepJob>
memoryBoundJobs(std::uint64_t seed)
{
    const char *workloads[] = {"em3d", "Mix 1", "Mix 3", "Markov Chase"};
    std::vector<SweepJob> jobs;
    for (const char *workload : workloads) {
        jobs.push_back({workload, configFor(PrefetcherKind::None),
                        options(1500 * 1000, 1000 * 1000, seed)});
    }
    return jobs;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig8", "compute_bound", "memory_bound"};
    return names;
}

std::uint64_t
workloadSeed(std::uint64_t bench_seed)
{
    return kSeedBase +
           (bench_seed % kSeedPool + kSeedPool - kSeedBase % kSeedPool) %
               kSeedPool;
}

std::vector<SweepJob>
makeJobs(const std::string &workload, std::uint64_t seed)
{
    if (workload == "fig8")
        return fig8Jobs(seed);
    if (workload == "compute_bound")
        return computeBoundJobs(seed);
    if (workload == "memory_bound")
        return memoryBoundJobs(seed);
    throw std::invalid_argument("unknown workload '" + workload +
                                "' (expected fig8, compute_bound or "
                                "memory_bound)");
}

std::string
jobLabel(const SweepJob &job)
{
    return job.workload + "/" +
           bingo::prefetcherName(job.config.prefetcher.kind) + "/" +
           std::to_string(job.options.seed);
}

std::uint64_t
quotaInstructions(const std::vector<SweepJob> &jobs)
{
    std::uint64_t total = 0;
    for (const SweepJob &job : jobs) {
        total += (job.options.warmup_instructions +
                  job.options.measure_instructions) *
                 job.config.num_cores;
    }
    return total;
}

} // namespace perfbench

/**
 * @file
 * The benchmark's named workloads: each is the list of sweep jobs one
 * timed run hands to runSweepOutcomes. See PROTOCOL.md for why each
 * workload exists and which layer it exercises or bypasses.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace perfbench
{

/** Workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Number of workload seeds the reference digests cover. */
inline constexpr std::uint64_t kSeedPool = 32;
/** First pooled workload seed (the simulator's default seed). */
inline constexpr std::uint64_t kSeedBase = 42;

/**
 * Workload seed for a benchmark `--seed`: seeds kSeedBase ..
 * kSeedBase + kSeedPool - 1 map to themselves, every other value wraps
 * into that range, so every run has reference digests to be checked
 * against.
 */
std::uint64_t workloadSeed(std::uint64_t bench_seed);

/**
 * Jobs of `workload` under workload seed `seed`, in a fixed order.
 * Throws std::invalid_argument for an unknown workload name.
 */
std::vector<bingo::SweepJob> makeJobs(const std::string &workload,
                                      std::uint64_t seed);

/** "<workload>/<prefetcher>/<seed>": stable, human-readable job id. */
std::string jobLabel(const bingo::SweepJob &job);

/**
 * Simulated instructions the jobs retire by quota: warmup plus
 * measure instructions on every core, summed over jobs.
 */
std::uint64_t quotaInstructions(const std::vector<bingo::SweepJob> &jobs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP

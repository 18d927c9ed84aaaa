/**
 * @file
 * Output-correctness check: a 64-bit digest of every field of a job's
 * RunResult that the sweep journal persists, compared against
 * reference digests recorded from an earlier, trusted build. The
 * simulator is deterministic, so any difference is a wrong result, not
 * noise.
 */

#ifndef PERFBENCH_DIGEST_HPP
#define PERFBENCH_DIGEST_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace perfbench
{

/**
 * FNV-1a digest over the journal-persisted fields of `result`:
 * workload, prefetcher kind, per-core IPC bit patterns, instructions,
 * every LLC/L1D/DRAM counter, prefetcher storage, and the degraded
 * flag and reason.
 */
std::uint64_t resultDigest(const bingo::RunResult &result);

/** One line of a reference file: "<seed> <index> <digest> <label>". */
std::string referenceLine(std::uint64_t seed, std::size_t index,
                          std::uint64_t digest, const std::string &label);

/** Reference digests of one workload, keyed by (seed, job index). */
class Reference
{
  public:
    struct Entry
    {
        std::uint64_t digest = 0;
        std::string label;
    };

    /**
     * Parse a reference file. Throws std::runtime_error when the file
     * cannot be read or a line is malformed.
     */
    static Reference load(const std::string &path);

    /** Parse reference text (the file's contents). */
    static Reference parse(const std::string &text);

    /** The entry for job `index` under `seed`; nullptr when absent. */
    const Entry *find(std::uint64_t seed, std::size_t index) const;

  private:
    std::map<std::pair<std::uint64_t, std::size_t>, Entry> entries_;
};

/** Verdict of checking one sweep against the reference. */
struct CheckResult
{
    std::size_t failed = 0;             ///< Jobs counted as failed.
    std::vector<std::string> problems;  ///< One line per failed job.
};

/**
 * Check every job of a sweep: a job fails when its outcome failed or
 * was degraded, or when its result digest differs from the reference.
 * Throws std::runtime_error when the reference has no entry for a job
 * or names a different job at that index (a stale reference is a
 * benchmark error, not a simulator failure).
 */
CheckResult checkSweep(const Reference &reference, std::uint64_t seed,
                       const std::vector<bingo::SweepJob> &jobs,
                       const std::vector<bingo::JobOutcome> &outcomes);

/** Same check for one job's result. */
bool matchesReference(const Reference &reference, std::uint64_t seed,
                      std::size_t index, const bingo::SweepJob &job,
                      const bingo::RunResult &result);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HPP

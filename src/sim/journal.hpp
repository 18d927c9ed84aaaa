/**
 * @file
 * Crash-safe sweep journal: completed jobs persist their RunResult to
 * one record file per job fingerprint under BINGO_JOURNAL_DIR, written
 * atomically (temp file + rename). A re-run of the same sweep loads
 * the journaled records instead of re-simulating, so a sweep killed
 * halfway resumes from where it died and reproduces the exact tables
 * the uninterrupted run would have printed.
 *
 * The fingerprint hashes the complete identity of a job — workload,
 * every SystemConfig field (including the prefetcher knobs), and the
 * run lengths/seed — so a record can never be replayed against a
 * different experiment. Doubles are stored as their IEEE-754 bit
 * patterns, making a resumed table bit-identical, not just close.
 *
 * Shards: the distributed runner (src/dist) commits each record its
 * workers return by appending it to the coordinator log
 * `<dir>/shards/coordinator.log` (journalLogAppend), and folds the log
 * into the canonical directory with journalMergeShards() when the
 * sweep ends — or when the next sweep starts, if the coordinator died.
 * Because the record serializer is shared (journalEncode is the only
 * writer) and simulations are deterministic, a merged distributed
 * journal is byte-identical to the journal of a single-process run of
 * the same jobs.
 */

#ifndef BINGO_SIM_JOURNAL_HPP
#define BINGO_SIM_JOURNAL_HPP

#include <cstddef>
#include <string>

#include "sim/metrics.hpp"

namespace bingo
{

struct SweepJob;

/**
 * Stable hex fingerprint of a job's full identity (workload + config +
 * options). compare_baseline is excluded: it changes what else the
 * sweep computes, not this job's result.
 */
std::string jobFingerprint(const SweepJob &job);

/** Record file path for `fingerprint` inside journal `dir`. */
std::string journalRecordPath(const std::string &dir,
                              const std::string &fingerprint);

/**
 * Load the journaled result for `fingerprint` from `dir` into `out`.
 * Returns false — never throws — when the record is absent, truncated,
 * garbled, from an old format, or carries a different fingerprint;
 * the caller then simply re-runs the job.
 */
bool journalLoad(const std::string &dir, const std::string &fingerprint,
                 RunResult &out);

/**
 * Persist `result` as the record for `fingerprint`, creating `dir` as
 * needed. Writes a temp file and renames it into place, so a crash
 * mid-write can never leave a half-record that journalLoad would see.
 * Throws std::runtime_error when the directory or file cannot be
 * written.
 */
void journalStore(const std::string &dir, const std::string &fingerprint,
                  const RunResult &result);

/**
 * Serialize `result` into the exact bytes journalStore writes — the
 * single record serializer shared by the journal, the coordinator log,
 * and the coordinator/worker wire protocol, which is what makes
 * "a merged log is byte-identical to a single-process journal" a
 * structural property rather than a hope.
 */
std::string journalEncode(const std::string &fingerprint,
                          const RunResult &result);

/**
 * Parse journalEncode output. Returns false — never throws — when the
 * text is truncated, garbled, from another format version, or carries
 * a fingerprint other than `fingerprint`.
 */
bool journalDecode(const std::string &text,
                   const std::string &fingerprint, RunResult &out);

/** `<dir>/shards`: where the coordinator's append logs live. */
std::string journalShardRoot(const std::string &dir);

/**
 * Append one record to an append-only shard log at `path` (created on
 * first use). Entry format: `rec <fingerprint> <len>\n<record bytes>\n`
 * — the trailing newline is the commit marker journalMergeShards
 * checks when recovering a log whose writer died mid-append. The
 * coordinator commits every result its workers return this way.
 * Throws std::runtime_error when the log cannot be written.
 */
void journalLogAppend(const std::string &path,
                      const std::string &fingerprint,
                      const std::string &record);

/** What journalMergeShards did, for logs and tests. */
struct ShardMergeStats
{
    std::size_t shard_logs = 0;   ///< `shards/*.log` files folded in.
    std::size_t merged = 0;       ///< Records moved into the canonical dir.
    std::size_t deduplicated = 0; ///< Identical duplicates dropped.
    std::size_t corrupt = 0;      ///< Truncated/garbled records skipped.
    std::size_t truncated_tails = 0; ///< Logs whose final record was cut
                                     ///< mid-write; valid prefix kept.
};

/**
 * Fold every record of every `.log` file under `<dir>/shards/`
 * (journalLogAppend output) into the canonical journal `dir`,
 * fingerprint-keyed, record by record:
 *  - a fingerprint absent from the canonical dir is moved in (atomic
 *    temp + rename, byte-for-byte the logged record);
 *  - a duplicate with byte-identical payload is deduplicated —
 *    re-simulation is deterministic;
 *  - a duplicate with a *conflicting* payload throws std::runtime_error
 *    naming the log entry and the canonical file: it means
 *    nondeterminism or cross-config contamination, and must never be
 *    silently resolved;
 *  - a complete entry holding a truncated or garbled record is skipped
 *    with a warning to stderr, never a crash — the job simply re-runs.
 * A log whose final entry was cut mid-write — the appender was
 * kill -9'd — keeps its valid prefix, with a warning naming the log and
 * the byte offset where recovery stopped. Everything before the cut
 * still merges, so a coordinator crash costs at most one in-flight
 * record, never the whole log. Merged logs (and the emptied shards
 * root) are removed. Safe to call when `<dir>/shards` does not exist
 * (returns all-zero stats).
 */
ShardMergeStats journalMergeShards(const std::string &dir);

} // namespace bingo

#endif // BINGO_SIM_JOURNAL_HPP

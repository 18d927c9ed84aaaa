/**
 * @file
 * Tests of journal log merging (journalMergeShards): records the
 * coordinator appended to its log folding into the canonical journal,
 * deduplication of identical duplicates (deterministic re-simulation),
 * the hard error on conflicting duplicates, skip-with-warning on
 * truncated/corrupt records, and prefix recovery of a log whose writer
 * died mid-append.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
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

using test::TempDir;

/** One real (tiny) simulation to get a genuine journal record. */
const RunResult &
realResult()
{
    static const RunResult result = [] {
        ExperimentOptions options;
        options.warmup_instructions = 4000;
        options.measure_instructions = 8000;
        SystemConfig config;
        config.prefetcher.kind = PrefetcherKind::Stride;
        return runWorkload("em3d", config, options);
    }();
    return result;
}

std::string
realFingerprint()
{
    SweepJob job;
    job.workload = "em3d";
    job.config.prefetcher.kind = PrefetcherKind::Stride;
    job.options.warmup_instructions = 4000;
    job.options.measure_instructions = 8000;
    return jobFingerprint(job);
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** `<dir>/shards/coordinator.log`, where the coordinator commits. */
std::string
coordinatorLog(const TempDir &dir)
{
    return journalShardRoot(dir.path()) + "/coordinator.log";
}

TEST(JournalMerge, MissingShardsDirectoryIsANoop)
{
    TempDir dir("merge_absent");
    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_logs, 0u);
    EXPECT_EQ(stats.merged, 0u);
    EXPECT_EQ(stats.deduplicated, 0u);
    EXPECT_EQ(stats.corrupt, 0u);
}

TEST(JournalMerge, IdenticalDuplicatesAcrossShardsDeduplicate)
{
    // A job whose record reaches the log twice — re-simulation is
    // deterministic, so the payloads are byte-identical.
    TempDir dir("merge_dedup");
    const std::string fp = realFingerprint();
    const std::string rec = journalEncode(fp, realResult());
    journalLogAppend(coordinatorLog(dir), fp, rec);
    journalLogAppend(coordinatorLog(dir), fp, rec);

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_logs, 1u);
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.deduplicated, 1u);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dir.path(), fp, restored));
}

TEST(JournalMerge, DuplicateOfExistingCanonicalRecordDeduplicates)
{
    TempDir dir("merge_dedup_canon");
    const std::string fp = realFingerprint();
    journalStore(dir.path(), fp, realResult());
    journalLogAppend(coordinatorLog(dir), fp,
                     journalEncode(fp, realResult()));

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.merged, 0u);
    EXPECT_EQ(stats.deduplicated, 1u);
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dir.path())));
}

TEST(JournalMerge, ConflictingDuplicateIsAHardErrorNamingBothPaths)
{
    // Same fingerprint, different (but decodable) payload: that means
    // nondeterminism or cross-config contamination and must never be
    // silently resolved.
    TempDir dir("merge_conflict");
    const std::string fp = realFingerprint();
    journalStore(dir.path(), fp, realResult());

    RunResult tampered = realResult();
    tampered.instructions += 1;
    journalLogAppend(coordinatorLog(dir), fp, journalEncode(fp, tampered));

    try {
        journalMergeShards(dir.path());
        FAIL() << "conflicting duplicate must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(journalRecordPath(dir.path(), fp)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(coordinatorLog(dir)), std::string::npos)
            << what;
    }
}

TEST(JournalMerge, TruncatedShardRecordIsSkippedOthersMerge)
{
    TempDir dir("merge_corrupt");
    const std::string fp = realFingerprint();
    const std::string good = journalEncode(fp, realResult());

    // Three complete log entries: a record truncated mid-write, a good
    // one of the same fingerprint, and pure garbage under another name.
    journalLogAppend(coordinatorLog(dir), fp,
                     good.substr(0, good.size() / 2));
    journalLogAppend(coordinatorLog(dir), fp, good);
    journalLogAppend(coordinatorLog(dir),
                     "deadbeefdeadbeefdeadbeefdeadbeef",
                     "not a journal record at all\n");

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.corrupt, 2u);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dir.path(), fp, restored));
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dir.path())));
}

// --- The append-only coordinator log (journalLogAppend): how worker
// results reach the canonical journal, and what survives when the
// appender is kill -9'd mid-write.

TEST(JournalMerge, ShardLogRecordsFoldInAndTheLogIsRemoved)
{
    TempDir dir("merge_log");
    const std::string fp = realFingerprint();
    const std::string rec = journalEncode(fp, realResult());
    const std::string fp2 = "deadbeef01";
    const std::string rec2 = journalEncode(fp2, realResult());
    const std::string log = coordinatorLog(dir);
    journalLogAppend(log, fp, rec);
    journalLogAppend(log, fp2, rec2);

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_logs, 1u);
    EXPECT_EQ(stats.merged, 2u);
    EXPECT_EQ(stats.truncated_tails, 0u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(readFile(journalRecordPath(dir.path(), fp)), rec);
    EXPECT_EQ(readFile(journalRecordPath(dir.path(), fp2)), rec2);
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dir.path())));
}

TEST(JournalMerge, TruncatedLogTailKeepsTheValidPrefix)
{
    // The appender died mid-append: the commit newline of the last
    // entry never landed. Everything before the cut still merges; the
    // torn tail is dropped with a warning, never a crash.
    TempDir dir("merge_logcut");
    const std::string fp = realFingerprint();
    const std::string rec = journalEncode(fp, realResult());
    const std::string rec2 = journalEncode("deadbeef01", realResult());
    const std::string log = coordinatorLog(dir);
    journalLogAppend(log, fp, rec);
    journalLogAppend(log, "deadbeef01", rec2);
    std::string bytes = readFile(log);
    bytes.resize(bytes.size() - 5);  // Cut into the second entry.
    writeFile(log, bytes);

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_logs, 1u);
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.truncated_tails, 1u);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dir.path(), fp, restored));
    EXPECT_FALSE(journalLoad(dir.path(), "deadbeef01", restored));
    // The damaged log does not outlive the merge (its prefix did).
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dir.path())));
}

TEST(JournalMerge, EncodeDecodeRoundTripsBitExactly)
{
    const std::string fp = realFingerprint();
    const std::string bytes = journalEncode(fp, realResult());
    RunResult decoded;
    ASSERT_TRUE(journalDecode(bytes, fp, decoded));
    EXPECT_EQ(journalEncode(fp, decoded), bytes);

    // Wrong fingerprint, truncation, and garbage all decode to false.
    RunResult reject;
    EXPECT_FALSE(journalDecode(bytes, fp + "00", reject));
    EXPECT_FALSE(
        journalDecode(bytes.substr(0, bytes.size() - 4), fp, reject));
    EXPECT_FALSE(journalDecode("bingo-journal 1\n", fp, reject));
}

} // namespace
} // namespace bingo

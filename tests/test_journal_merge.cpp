/**
 * @file
 * Tests of journal shard merging (journalMergeShards): worker shard
 * records folding into the canonical journal, deduplication of
 * identical duplicates (deterministic re-simulation after a worker
 * death), the hard error on conflicting duplicates, and skip-with-
 * warning on truncated/corrupt shard records.
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

TEST(JournalMerge, MissingShardsDirectoryIsANoop)
{
    TempDir dir("merge_absent");
    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_dirs, 0u);
    EXPECT_EQ(stats.merged, 0u);
    EXPECT_EQ(stats.deduplicated, 0u);
    EXPECT_EQ(stats.corrupt, 0u);
}

TEST(JournalMerge, ShardRecordsMoveIntoCanonicalDirByteForByte)
{
    TempDir dir("merge_basic");
    const std::string fp = realFingerprint();
    journalStore(journalShardDir(dir.path(), 0), fp, realResult());
    const std::string shard_bytes =
        readFile(journalRecordPath(journalShardDir(dir.path(), 0), fp));
    ASSERT_FALSE(shard_bytes.empty());

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_dirs, 1u);
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.deduplicated, 0u);
    EXPECT_EQ(stats.corrupt, 0u);

    // Canonical record is byte-for-byte the shard record, loadable,
    // and the emptied shard tree is gone.
    EXPECT_EQ(readFile(journalRecordPath(dir.path(), fp)), shard_bytes);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dir.path(), fp, restored));
    EXPECT_EQ(restored.ipcSum(), realResult().ipcSum());
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dir.path())));
}

TEST(JournalMerge, IdenticalDuplicatesAcrossShardsDeduplicate)
{
    // A job re-dispatched after a worker death lands in two shards
    // with byte-identical payloads (deterministic re-simulation).
    TempDir dir("merge_dedup");
    const std::string fp = realFingerprint();
    journalStore(journalShardDir(dir.path(), 0), fp, realResult());
    journalStore(journalShardDir(dir.path(), 3), fp, realResult());

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.shard_dirs, 2u);
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
    journalStore(journalShardDir(dir.path(), 1), fp, realResult());

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
    writeFile(journalRecordPath(journalShardDir(dir.path(), 2), fp),
              journalEncode(fp, tampered));

    try {
        journalMergeShards(dir.path());
        FAIL() << "conflicting duplicate must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(journalRecordPath(dir.path(), fp)),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(journalRecordPath(
                      journalShardDir(dir.path(), 2), fp)),
                  std::string::npos)
            << what;
    }
}

TEST(JournalMerge, TruncatedShardRecordIsSkippedOthersMerge)
{
    TempDir dir("merge_corrupt");
    const std::string fp = realFingerprint();
    const std::string good = journalEncode(fp, realResult());

    // w0 holds a record truncated mid-write; w1 holds a good one of
    // the same fingerprint plus pure garbage under another name.
    writeFile(journalRecordPath(journalShardDir(dir.path(), 0), fp),
              good.substr(0, good.size() / 2));
    writeFile(journalRecordPath(journalShardDir(dir.path(), 1), fp),
              good);
    writeFile(journalShardDir(dir.path(), 1) +
                  "/deadbeefdeadbeefdeadbeefdeadbeef.run",
              "not a journal record at all\n");

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.corrupt, 2u);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dir.path(), fp, restored));
    EXPECT_FALSE(
        std::filesystem::exists(journalShardRoot(dir.path())));
}

// --- Append-only shard logs (journalLogAppend): how stdio/remote
// workers' results reach the canonical journal, and what survives when
// the appender is kill -9'd mid-write.

TEST(JournalMerge, ShardLogRecordsFoldInAndTheLogIsRemoved)
{
    TempDir dir("merge_log");
    const std::string fp = realFingerprint();
    const std::string rec = journalEncode(fp, realResult());
    const std::string fp2 = "deadbeef01";
    const std::string rec2 = journalEncode(fp2, realResult());
    const std::string log =
        journalShardRoot(dir.path()) + "/coordinator.log";
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
    const std::string log =
        journalShardRoot(dir.path()) + "/coordinator.log";
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

TEST(JournalMerge, LogDuplicateOfAShardRecordDeduplicates)
{
    // The same result can reach the merge twice — once from a worker
    // shard, once from the coordinator log — after a worker loses its
    // link mid-report and the job is re-dispatched to a stdio worker.
    // Identical bytes deduplicate; they must never conflict.
    TempDir dir("merge_logdup");
    const std::string fp = realFingerprint();
    const std::string rec = journalEncode(fp, realResult());
    journalStore(journalShardDir(dir.path(), 0), fp, realResult());
    journalLogAppend(journalShardRoot(dir.path()) + "/coordinator.log",
                     fp, rec);

    const ShardMergeStats stats = journalMergeShards(dir.path());
    EXPECT_EQ(stats.merged, 1u);
    EXPECT_EQ(stats.deduplicated, 1u);
    EXPECT_EQ(readFile(journalRecordPath(dir.path(), fp)), rec);
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

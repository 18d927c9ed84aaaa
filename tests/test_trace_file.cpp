/**
 * @file
 * Tests for the on-disk trace format and its replaying source.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "common/rng.hpp"
#include "workload/trace_file.hpp"

namespace bingo
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test case and process: ctest runs the cases
        // of this fixture concurrently.
        path_ = ::testing::TempDir() + "bingo_trace_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".bin";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

TEST_F(TraceFileTest, RoundTrip)
{
    const std::vector<TraceRecord> records = {
        {0x400, 0x1000, InstrType::Load},
        {0x404, 0x2040, InstrType::Store},
        {0x408, 0, InstrType::Alu},
        {0x40c, 0, InstrType::Branch},
    };
    writeTrace(path_, records);
    const std::vector<TraceRecord> read = readTrace(path_);
    ASSERT_EQ(read.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(read[i].pc, records[i].pc);
        EXPECT_EQ(read[i].addr, records[i].addr);
        EXPECT_EQ(static_cast<int>(read[i].type),
                  static_cast<int>(records[i].type));
    }
}

TEST_F(TraceFileTest, SourceReplaysCyclically)
{
    writeTrace(path_, {{0x1, 0x100, InstrType::Load},
                       {0x2, 0, InstrType::Alu}});
    FileTraceSource source(path_);
    EXPECT_EQ(source.size(), 2u);
    EXPECT_EQ(source.next().pc, 0x1u);
    EXPECT_EQ(source.next().pc, 0x2u);
    EXPECT_EQ(source.next().pc, 0x1u);  // Wrapped.
}

TEST_F(TraceFileTest, MissingFileThrows)
{
    EXPECT_THROW(readTrace("/nonexistent/path/trace.bin"),
                 std::runtime_error);
}

TEST_F(TraceFileTest, TruncatedRecordThrows)
{
    writeTrace(path_, {{0x1, 0x100, InstrType::Load}});
    // Append garbage shorter than a record.
    std::FILE *f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc(0x42, f);
    std::fclose(f);
    EXPECT_THROW(readTrace(path_), std::runtime_error);
}

TEST_F(TraceFileTest, CorruptTypeThrows)
{
    writeTrace(path_, {{0x1, 0x100, InstrType::Load}});
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16, SEEK_SET);
    std::fputc(0x7f, f);  // Invalid InstrType.
    std::fclose(f);
    EXPECT_THROW(readTrace(path_), std::runtime_error);
}

TEST_F(TraceFileTest, EmptyTraceRejected)
{
    writeTrace(path_, {});
    EXPECT_THROW(FileTraceSource{path_}, std::runtime_error);
    EXPECT_THROW(FileTraceSource{std::vector<TraceRecord>{}},
                 std::runtime_error);
}

TEST_F(TraceFileTest, DistinctMessagesForEachCorruption)
{
    // Empty file.
    writeTrace(path_, {});
    try {
        readTrace(path_);
        FAIL() << "expected a reject for the empty trace";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("empty trace file"),
                  std::string::npos)
            << e.what();
    }

    // Size not a multiple of the 17-byte record.
    writeTrace(path_, {{0x1, 0x100, InstrType::Load}});
    {
        std::FILE *f = std::fopen(path_.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputc(0x42, f);
        std::fclose(f);
    }
    try {
        readTrace(path_);
        FAIL() << "expected a reject for the truncated trace";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("truncated trace file"), std::string::npos)
            << what;
        EXPECT_NE(what.find("17"), std::string::npos) << what;
    }

    // Out-of-range instruction type byte.
    writeTrace(path_, {{0x1, 0x100, InstrType::Load}});
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 16, SEEK_SET);
        std::fputc(0x7f, f);
        std::fclose(f);
    }
    try {
        readTrace(path_);
        FAIL() << "expected a reject for the corrupt type byte";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("out-of-range instruction type"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("127"), std::string::npos) << what;
    }
}

TEST_F(TraceFileTest, InMemoryConstructor)
{
    FileTraceSource source(
        std::vector<TraceRecord>{{0x9, 0x900, InstrType::Load}});
    EXPECT_EQ(source.next().addr, 0x900u);
}

TEST_F(TraceFileTest, TypedErrorCarriesPathAndOffset)
{
    // Empty file: the violation is at offset 0.
    writeTrace(path_, {});
    try {
        readTrace(path_);
        FAIL() << "expected TraceFormatError for the empty trace";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.path(), path_);
        EXPECT_EQ(e.byteOffset(), 0u);
    }

    // Corrupt type byte of record 2: offset 2*17 + 16 = 50.
    writeTrace(path_, {{0x1, 0x100, InstrType::Load},
                       {0x2, 0x200, InstrType::Store},
                       {0x3, 0x300, InstrType::Alu}});
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 50, SEEK_SET);
        std::fputc(0xee, f);
        std::fclose(f);
    }
    try {
        readTrace(path_);
        FAIL() << "expected TraceFormatError for the corrupt record";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.path(), path_);
        EXPECT_EQ(e.byteOffset(), 50u);
        EXPECT_NE(std::string(e.what()).find("byte offset 50"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(TraceFileTest, TruncationReportsStartOfIncompleteRecord)
{
    // 3 whole records + 9 stray bytes: the incomplete record starts
    // at 3 * 17 = 51.
    writeTrace(path_, {{0x1, 0x100, InstrType::Load},
                       {0x2, 0x200, InstrType::Store},
                       {0x3, 0x300, InstrType::Alu}});
    {
        std::FILE *f = std::fopen(path_.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        for (int i = 0; i < 9; ++i)
            std::fputc(0x55, f);
        std::fclose(f);
    }
    try {
        readTrace(path_);
        FAIL() << "expected TraceFormatError for the truncated trace";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), 51u);
    }
}

TEST_F(TraceFileTest, FuzzedTracesNeverCrashTheReader)
{
    // Deterministic fuzz: random lengths and contents must either
    // parse (every record well-formed by construction of the check)
    // or raise a typed error with an in-bounds offset — never crash,
    // hang, or return out-of-range instruction types.
    Rng rng(0xF022ED);
    for (int round = 0; round < 200; ++round) {
        const std::size_t len = static_cast<std::size_t>(
            rng.below(6 * 17 + 16));
        {
            std::FILE *f = std::fopen(path_.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            for (std::size_t i = 0; i < len; ++i)
                std::fputc(static_cast<int>(rng.next() & 0xFF), f);
            std::fclose(f);
        }
        try {
            const std::vector<TraceRecord> records = readTrace(path_);
            EXPECT_EQ(records.size() * 17, len);
            for (const TraceRecord &rec : records) {
                EXPECT_LE(static_cast<unsigned>(rec.type),
                          static_cast<unsigned>(InstrType::Branch));
            }
        } catch (const TraceFormatError &e) {
            EXPECT_EQ(e.path(), path_);
            EXPECT_LE(e.byteOffset(), len);
        }
    }
}

TEST_F(TraceFileTest, BitFlippedPayloadStillParsesOrFailsTyped)
{
    // Flipping bits in pc/addr payload bytes must never be fatal —
    // those fields accept any 64-bit value; only the type byte can
    // make a record invalid.
    const std::vector<TraceRecord> records = {
        {0x400, 0x1000, InstrType::Load},
        {0x404, 0x2040, InstrType::Store},
        {0x408, 0, InstrType::Branch},
    };
    Rng rng(0xB17F11);
    for (int round = 0; round < 100; ++round) {
        writeTrace(path_, records);
        const long byte =
            static_cast<long>(rng.below(17 * records.size()));
        {
            std::FILE *f = std::fopen(path_.c_str(), "rb+");
            ASSERT_NE(f, nullptr);
            std::fseek(f, byte, SEEK_SET);
            const int old = std::fgetc(f);
            ASSERT_NE(old, EOF);
            std::fseek(f, byte, SEEK_SET);
            std::fputc(old ^ (1 << rng.below(8)), f);
            std::fclose(f);
        }
        const bool type_byte = byte % 17 == 16;
        try {
            const std::vector<TraceRecord> read = readTrace(path_);
            ASSERT_EQ(read.size(), records.size());
        } catch (const TraceFormatError &e) {
            // Only a type-byte flip may reject, and it must name the
            // flipped byte.
            EXPECT_TRUE(type_byte) << "byte " << byte << ": "
                                   << e.what();
            EXPECT_EQ(e.byteOffset(),
                      static_cast<std::uint64_t>(byte));
        }
    }
}

TEST_F(TraceFileTest, LengthLyingHeaderlessGarbageRejected)
{
    // 17 bytes of 0xFF parse as one record with type 255: must be the
    // typed out-of-range error at offset 16, not a crash or a bogus
    // record.
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        for (int i = 0; i < 17; ++i)
            std::fputc(0xFF, f);
        std::fclose(f);
    }
    try {
        readTrace(path_);
        FAIL() << "expected TraceFormatError for all-0xFF garbage";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), 16u);
        EXPECT_NE(std::string(e.what()).find("255"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace bingo

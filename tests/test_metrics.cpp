/**
 * @file
 * Tests for derived metrics, the area model, and prefetcher
 * configuration/storage accounting.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/config.hpp"
#include "sim/area_model.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

RunResult
resultWith(std::uint64_t misses, std::uint64_t useful,
           std::uint64_t useless, std::vector<double> ipc,
           std::uint64_t instructions = 1000000)
{
    RunResult r;
    r.llc.demand_misses = misses;
    r.llc.useful_prefetches = useful;
    r.llc.useless_prefetches = useless;
    r.core_ipc = std::move(ipc);
    r.instructions = instructions;
    return r;
}

TEST(Metrics, CoverageAndOverprediction)
{
    const RunResult base = resultWith(1000, 0, 0, {1.0});
    const RunResult pf = resultWith(300, 700, 150, {1.5});
    const PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_DOUBLE_EQ(m.coverage, 0.7);
    EXPECT_DOUBLE_EQ(m.uncovered, 0.3);
    EXPECT_DOUBLE_EQ(m.overprediction, 0.15);
    EXPECT_NEAR(m.accuracy, 700.0 / 850.0, 1e-12);
}

TEST(Metrics, NegativeCoverageClampsToZero)
{
    const RunResult base = resultWith(100, 0, 0, {1.0});
    const RunResult pf = resultWith(150, 0, 50, {0.9});
    const PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_DOUBLE_EQ(m.coverage, 0.0);
    EXPECT_DOUBLE_EQ(m.uncovered, 1.0);
}

TEST(Metrics, ZeroBaselineMissesIsSafe)
{
    const RunResult base = resultWith(0, 0, 0, {1.0});
    const RunResult pf = resultWith(0, 0, 0, {1.0});
    const PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_DOUBLE_EQ(m.coverage, 0.0);
    EXPECT_DOUBLE_EQ(m.accuracy, 0.0);
}

TEST(Metrics, SpeedupIsThroughputRatio)
{
    const RunResult base = resultWith(0, 0, 0, {1.0, 1.0});
    const RunResult pf = resultWith(0, 0, 0, {1.5, 1.5});
    EXPECT_DOUBLE_EQ(speedup(base, pf), 1.5);
    EXPECT_DOUBLE_EQ(base.ipcSum(), 2.0);
}

TEST(Metrics, MpkiDefinition)
{
    const RunResult r = resultWith(6700, 0, 0, {1.0}, 1000000);
    EXPECT_DOUBLE_EQ(r.llcMpki(), 6.7);
}

TEST(AreaModel, BaseAreaComposition)
{
    AreaModel area;
    SystemConfig config;
    const double expected = 4 * area.core_mm2 + 8 * area.llc_mm2_per_mb +
                            area.interconnect_mm2;
    EXPECT_NEAR(area.baseArea(config), expected, 1e-9);
}

TEST(AreaModel, DensityImprovementBelowSpeedup)
{
    AreaModel area;
    SystemConfig config;
    config.prefetcher.kind = PrefetcherKind::Bingo;
    const double density = area.densityImprovement(1.60, config);
    EXPECT_LT(density, 1.60);
    // But only slightly: the paper reports <1% drop for Bingo.
    EXPECT_GT(density, 1.55);
}

TEST(AreaModel, ZeroStoragePrefetcherKeepsFullSpeedup)
{
    AreaModel area;
    SystemConfig config;
    config.prefetcher.kind = PrefetcherKind::None;
    EXPECT_DOUBLE_EQ(area.densityImprovement(1.5, config), 1.5);
}

TEST(PrefetcherConfig, BingoStorageNearPaperBudget)
{
    // The paper: 16K-entry history table -> 119 KB total.
    PrefetcherConfig config;
    config.kind = PrefetcherKind::Bingo;
    const double kb = static_cast<double>(config.storageBytes()) / 1024;
    EXPECT_GT(kb, 100.0);
    EXPECT_LT(kb, 140.0);
}

TEST(PrefetcherConfig, MultiTableCostsMoreThanUnified)
{
    PrefetcherConfig unified;
    unified.kind = PrefetcherKind::Bingo;
    PrefetcherConfig multi;
    multi.kind = PrefetcherKind::BingoMulti;
    multi.num_events = 2;
    EXPECT_GT(multi.storageBytes() * 2, unified.storageBytes() * 3)
        << "two full tables should cost well over 1.5x the unified one";
    multi.num_events = 5;
    EXPECT_GT(multi.storageBytes(), 2 * unified.storageBytes());
}

TEST(PrefetcherConfig, ShhPrefetchersAreTiny)
{
    // The storage ordering the paper's Fig. 9 discussion relies on:
    // SHH metadata is orders of magnitude smaller than PPH tables.
    PrefetcherConfig bop;
    bop.kind = PrefetcherKind::Bop;
    PrefetcherConfig spp;
    spp.kind = PrefetcherKind::Spp;
    PrefetcherConfig vldp;
    vldp.kind = PrefetcherKind::Vldp;
    PrefetcherConfig bingo;
    bingo.kind = PrefetcherKind::Bingo;
    EXPECT_LT(bop.storageBytes(), 2048u);
    EXPECT_LT(spp.storageBytes(), 8 * 1024u);
    EXPECT_LT(vldp.storageBytes(), 4 * 1024u);
    EXPECT_GT(bingo.storageBytes(), 50 * vldp.storageBytes());
}

TEST(PrefetcherConfig, NamesMatchFigures)
{
    EXPECT_EQ(prefetcherName(PrefetcherKind::Bop), "BOP");
    EXPECT_EQ(prefetcherName(PrefetcherKind::Spp), "SPP");
    EXPECT_EQ(prefetcherName(PrefetcherKind::Vldp), "VLDP");
    EXPECT_EQ(prefetcherName(PrefetcherKind::Ampm), "AMPM");
    EXPECT_EQ(prefetcherName(PrefetcherKind::Sms), "SMS");
    EXPECT_EQ(prefetcherName(PrefetcherKind::Bingo), "Bingo");
    EXPECT_EQ(prefetcherName(PrefetcherKind::None), "None");
}

TEST(Report, TableRendersAllCells)
{
    TextTable table({"A", "Bee"});
    table.addRow({"1", "2"});
    table.addRow({"longer", "x"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| A "), std::string::npos);
    EXPECT_NE(out.find("| longer"), std::string::npos);
    EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Report, CsvEscapesSpecials)
{
    TextTable table({"name", "value"});
    table.addRow({"plain", "1"});
    table.addRow({"with,comma", "quote\"inside"});
    const std::string csv = table.renderCsv();
    EXPECT_NE(csv.find("name,value\n"), std::string::npos);
    EXPECT_NE(csv.find("plain,1\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Report, CsvWriteHonoursEnv)
{
    TextTable table({"a"});
    table.addRow({"1"});
    {
        test::EnvVar unset("BINGO_CSV_DIR", "");
        EXPECT_FALSE(table.maybeWriteCsv("nope"));
    }
    const test::TempDir dir("csv");
    std::filesystem::create_directories(dir.path());
    test::EnvVar csv_dir("BINGO_CSV_DIR", dir.path());
    EXPECT_TRUE(table.maybeWriteCsv("bingo_csv_test"));
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmtPercent(0.123), "12.3%");
    EXPECT_EQ(fmtRatio(1.5), "1.50x");
    EXPECT_EQ(fmtDouble(3.14159, 3), "3.142");
}

} // namespace
} // namespace bingo

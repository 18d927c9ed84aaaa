/**
 * @file
 * Tests for the workload generators: determinism, registry coverage,
 * record validity, class construction, interleaving, and the memory
 * behaviour knobs the evaluation depends on.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "workload/generator.hpp"
#include "workload/patterns.hpp"
#include "workload/server_apps.hpp"
#include "workload/spec_kernels.hpp"

namespace bingo
{
namespace
{

TEST(WorkloadRegistry, TenTableIIWorkloads)
{
    const auto &names = workloadNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "Data Serving");
    EXPECT_EQ(names.back(), "Mix 5");
    for (const std::string &name : names)
        EXPECT_FALSE(workloadDescription(name).empty()) << name;
}

TEST(WorkloadRegistry, TwelveSpecKernels)
{
    EXPECT_EQ(specKernelNames().size(), 12u);
    for (const std::string &name : specKernelNames()) {
        auto kernel = makeSpecKernel(name, 1);
        ASSERT_NE(kernel, nullptr) << name;
        // Produces well-formed records.
        for (int i = 0; i < 1000; ++i) {
            const TraceRecord rec = kernel->next();
            if (rec.type == InstrType::Load ||
                rec.type == InstrType::Store) {
                EXPECT_NE(rec.pc, 0u);
            }
        }
    }
}

TEST(WorkloadRegistry, UnknownNamesThrow)
{
    EXPECT_THROW(makeWorkload("No Such App", 0, 1),
                 std::invalid_argument);
    EXPECT_THROW(makeSpecKernel("fortranify", 1),
                 std::invalid_argument);
}

TEST(Workloads, DeterministicPerSeed)
{
    for (const std::string &name : workloadNames()) {
        auto a = makeWorkload(name, 0, 7);
        auto b = makeWorkload(name, 0, 7);
        for (int i = 0; i < 2000; ++i) {
            const TraceRecord ra = a->next();
            const TraceRecord rb = b->next();
            ASSERT_EQ(ra.pc, rb.pc) << name << " record " << i;
            ASSERT_EQ(ra.addr, rb.addr) << name << " record " << i;
            ASSERT_EQ(static_cast<int>(ra.type),
                      static_cast<int>(rb.type));
        }
    }
}

TEST(Workloads, SeedsChangeTheStream)
{
    auto a = makeWorkload("Data Serving", 0, 1);
    auto b = makeWorkload("Data Serving", 0, 2);
    int differences = 0;
    for (int i = 0; i < 2000; ++i) {
        if (a->next().addr != b->next().addr)
            ++differences;
    }
    EXPECT_GT(differences, 100);
}

TEST(Workloads, CoresUseDisjointHeaps)
{
    auto a = makeWorkload("Data Serving", 0, 7);
    auto b = makeWorkload("Data Serving", 1, 7);
    std::set<Addr> pages_a;
    std::set<Addr> pages_b;
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord ra = a->next();
        const TraceRecord rb = b->next();
        if (ra.type == InstrType::Load || ra.type == InstrType::Store)
            pages_a.insert(ra.addr >> 30);
        if (rb.type == InstrType::Load || rb.type == InstrType::Store)
            pages_b.insert(rb.addr >> 30);
    }
    for (Addr page : pages_a)
        EXPECT_EQ(pages_b.count(page), 0u);
}

/** Memory-op density must be sane for every workload. */
class WorkloadDensityTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDensityTest, MemoryFractionInRange)
{
    auto source = makeWorkload(GetParam(), 0, 42);
    int mem = 0;
    const int total = 50000;
    for (int i = 0; i < total; ++i) {
        const TraceRecord rec = source->next();
        mem += rec.type == InstrType::Load ||
               rec.type == InstrType::Store;
    }
    const double fraction = static_cast<double>(mem) / total;
    EXPECT_GT(fraction, 0.002) << GetParam();
    EXPECT_LT(fraction, 0.6) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDensityTest,
                         ::testing::ValuesIn(workloadNames()));

/**
 * FNV-1a over what the simulated machine can observe of a stream:
 * every record's type and dependence flag, plus pc and address of
 * loads, stores and branches. Non-memory pc and address are never
 * read by the model, so they are left out.
 */
std::uint64_t
streamDigest(TraceSource &source, std::size_t instructions)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](std::uint64_t value, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            hash ^= (value >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    std::vector<TraceRecord> batch(4096);
    for (std::size_t done = 0; done < instructions;
         done += batch.size()) {
        source.nextBatch(batch.data(), batch.size());
        for (const TraceRecord &rec : batch) {
            mix(static_cast<std::uint64_t>(rec.type), 1);
            mix(rec.dependent ? 1 : 0, 1);
            if (rec.type != InstrType::Alu) {
                mix(rec.pc, 8);
                mix(rec.addr, 8);
            }
        }
    }
    return hash;
}

struct GoldenStream
{
    const char *workload;
    CoreId core;
    std::uint64_t seed;
    std::uint64_t digest;
};

/**
 * Digests of the first 2^18 instructions of every registered stream,
 * recorded from the record-at-a-time generators that predate the
 * run-length trace pipeline. They pin the generators to an
 * independent reference rather than to themselves.
 */
constexpr GoldenStream kGoldenStreams[] = {
    {"Data Serving", 0, 7, 0x4d4fd3757cee80aa},
    {"Data Serving", 1, 7, 0x3faf90d4e0d8e481},
    {"Data Serving", 2, 7, 0xba8d4ccce55948aa},
    {"Data Serving", 3, 7, 0x4064c0620d160132},
    {"SAT Solver", 0, 7, 0xd82f1f176b27fc16},
    {"SAT Solver", 1, 7, 0x29e3096c78e1f277},
    {"SAT Solver", 2, 7, 0xccbfbbd960a6e225},
    {"SAT Solver", 3, 7, 0x2a6f467377bc8394},
    {"Streaming", 0, 7, 0x48764db6def733ac},
    {"Streaming", 1, 7, 0x489ea30a799f637b},
    {"Streaming", 2, 7, 0xceb3e210af98bcf9},
    {"Streaming", 3, 7, 0xe964e77ebddff47e},
    {"Zeus", 0, 7, 0xc9a4d91878ee52b2},
    {"Zeus", 1, 7, 0x67eb36f1998bd095},
    {"Zeus", 2, 7, 0xca59bbfaae9feda5},
    {"Zeus", 3, 7, 0x965caf57fd4b0d4a},
    {"em3d", 0, 7, 0x9bd7347670da569c},
    {"em3d", 1, 7, 0xcb381cb612726661},
    {"em3d", 2, 7, 0x230498f4cd2cbd41},
    {"em3d", 3, 7, 0x74fb21bfae0ba6b7},
    {"Mix 1", 0, 7, 0x6b38bbfe0edc4f3e},
    {"Mix 1", 1, 7, 0x9dfeaffb0bbf3c8f},
    {"Mix 1", 2, 7, 0x1087fd47b7f55d77},
    {"Mix 1", 3, 7, 0xa09dc0beece09b0b},
    {"Mix 2", 0, 7, 0x6b38bbfe0edc4f3e},
    {"Mix 2", 1, 7, 0x70d45aa4140653a5},
    {"Mix 2", 2, 7, 0x2c512a2999aacc86},
    {"Mix 2", 3, 7, 0x0fd288d79b574006},
    {"Mix 3", 0, 7, 0x506edb45987dc777},
    {"Mix 3", 1, 7, 0x9dfeaffb0bbf3c8f},
    {"Mix 3", 2, 7, 0xd29f5098adeab1b6},
    {"Mix 3", 3, 7, 0x6f230025d72e576e},
    {"Mix 4", 0, 7, 0xa4a3e93ae7b759ba},
    {"Mix 4", 1, 7, 0x9dfeaffb0bbf3c8f},
    {"Mix 4", 2, 7, 0x1087fd47b7f55d77},
    {"Mix 4", 3, 7, 0xf9d3b381ad9e2ac0},
    {"Mix 5", 0, 7, 0x6a8bc56093cdfb35},
    {"Mix 5", 1, 7, 0xaaf6c4b9e469b2d4},
    {"Mix 5", 2, 7, 0x11cd900ec8d020e7},
    {"Mix 5", 3, 7, 0x6f230025d72e576e},
    {"Markov Chase", 0, 7, 0xda815f368e5b3206},
    {"Markov Chase", 1, 7, 0x8d542fc9fe8ea6e3},
    {"Markov Chase", 2, 7, 0xd3fd03f616807119},
    {"Markov Chase", 3, 7, 0xb042e881cb4550a4},
    {"Data Serving", 0, 42, 0x7c98778d2157aa6c},
    {"Data Serving", 1, 42, 0xf4da97e57cbc339a},
    {"Data Serving", 2, 42, 0x88dd4d6ce504fcf8},
    {"Data Serving", 3, 42, 0x616e663b45350a25},
    {"SAT Solver", 0, 42, 0x3c57b2a10cfcd295},
    {"SAT Solver", 1, 42, 0x5d1f03d3288bf03f},
    {"SAT Solver", 2, 42, 0xff7ab747a6bbe6d9},
    {"SAT Solver", 3, 42, 0xadce87455c467d14},
    {"Streaming", 0, 42, 0xc37756a49c438455},
    {"Streaming", 1, 42, 0x90c27a7113386f02},
    {"Streaming", 2, 42, 0x4d4101a907f8fd19},
    {"Streaming", 3, 42, 0x58ace34533288ddf},
    {"Zeus", 0, 42, 0x138642d411c3fd19},
    {"Zeus", 1, 42, 0x3f75840ac062ddcb},
    {"Zeus", 2, 42, 0xb6eebec05e0af3e9},
    {"Zeus", 3, 42, 0x024b9e89251958d2},
    {"em3d", 0, 42, 0x0fb3c436db9e8f82},
    {"em3d", 1, 42, 0x89423f75ef258b6a},
    {"em3d", 2, 42, 0x517e36dd79a93356},
    {"em3d", 3, 42, 0xdbdd44435da645fb},
    {"Mix 1", 0, 42, 0xd89e7941ea5fce11},
    {"Mix 1", 1, 42, 0x23552591a9616a5e},
    {"Mix 1", 2, 42, 0x93d97e0560bccaed},
    {"Mix 1", 3, 42, 0x4615ebf85c5ac1f1},
    {"Mix 2", 0, 42, 0xd89e7941ea5fce11},
    {"Mix 2", 1, 42, 0x25112f2621ae4666},
    {"Mix 2", 2, 42, 0x82ce25c4c69d3885},
    {"Mix 2", 3, 42, 0x3333e248dcdd14a1},
    {"Mix 3", 0, 42, 0x58ba24d2a8216037},
    {"Mix 3", 1, 42, 0x23552591a9616a5e},
    {"Mix 3", 2, 42, 0x627add40520a445a},
    {"Mix 3", 3, 42, 0xb05a13f07de84e09},
    {"Mix 4", 0, 42, 0x94d66a246435c89e},
    {"Mix 4", 1, 42, 0x23552591a9616a5e},
    {"Mix 4", 2, 42, 0x93d97e0560bccaed},
    {"Mix 4", 3, 42, 0x75d7ae32321e6a3a},
    {"Mix 5", 0, 42, 0xd74f9a172957baed},
    {"Mix 5", 1, 42, 0xa340d95cd712c563},
    {"Mix 5", 2, 42, 0x22e2585fc72b2c3f},
    {"Mix 5", 3, 42, 0xb05a13f07de84e09},
    {"Markov Chase", 0, 42, 0x4f8dc0a0aee061e7},
    {"Markov Chase", 1, 42, 0x98a540312a1efd17},
    {"Markov Chase", 2, 42, 0x4fc4fab20cf56e25},
    {"Markov Chase", 3, 42, 0x00195fb86db7f4e5},
};

TEST(Workloads, StreamsMatchGoldenDigests)
{
    constexpr std::size_t kInstructions = std::size_t{1} << 18;
    std::vector<std::string> names = workloadNames();
    names.insert(names.end(), temporalWorkloadNames().begin(),
                 temporalWorkloadNames().end());
    std::map<std::tuple<std::string, CoreId, std::uint64_t>,
             std::uint64_t>
        golden;
    for (const GoldenStream &g : kGoldenStreams)
        golden[{g.workload, g.core, g.seed}] = g.digest;

    std::string table;
    bool all_match = true;
    for (const std::uint64_t seed : {7ULL, 42ULL}) {
        for (const std::string &name : names) {
            for (CoreId core = 0; core < 4; ++core) {
                auto source = makeWorkload(name, core, seed);
                const std::uint64_t digest =
                    streamDigest(*source, kInstructions);
                const auto it = golden.find({name, core, seed});
                const bool match =
                    it != golden.end() && it->second == digest;
                EXPECT_TRUE(match) << name << " core " << core
                                   << " seed " << seed;
                all_match = all_match && match;
                char line[128];
                std::snprintf(line, sizeof(line),
                              "    {\"%s\", %u, %" PRIu64
                              ", 0x%016" PRIx64 "},\n",
                              name.c_str(), core, seed, digest);
                table += line;
            }
        }
    }
    EXPECT_EQ(golden.size(), names.size() * 4 * 2);
    if (!all_match)
        std::printf("Computed digests:\n%s", table.c_str());
}

TEST(RecordClasses, TriggerSharedPerSite)
{
    Rng rng(3);
    auto classes =
        RecordClass::makeClasses(6, 2, kBlocksPerRegion, 4, 10, rng);
    ASSERT_EQ(classes.size(), 6u);
    // Classes 0,2,4 share site 0; classes 1,3,5 share site 1.
    EXPECT_EQ(classes[0].field_pcs[0], classes[2].field_pcs[0]);
    EXPECT_EQ(classes[0].field_offsets[0], classes[4].field_offsets[0]);
    EXPECT_NE(classes[0].field_pcs[0], classes[1].field_pcs[0]);
}

TEST(RecordClasses, FieldOffsetsDistinct)
{
    Rng rng(5);
    auto classes =
        RecordClass::makeClasses(8, 4, kBlocksPerRegion, 6, 14, rng);
    for (const RecordClass &cls : classes) {
        std::set<unsigned> unique(cls.field_offsets.begin(),
                                  cls.field_offsets.end());
        EXPECT_EQ(unique.size(), cls.field_offsets.size());
        EXPECT_EQ(cls.field_offsets.size(), cls.field_pcs.size());
        EXPECT_GE(cls.field_offsets.size(), 6u);
        EXPECT_LE(cls.field_offsets.size(), 14u);
        for (unsigned off : cls.field_offsets)
            EXPECT_LT(off, kBlocksPerRegion);
    }
}

TEST(RecordClasses, SameSiteClassesShareBaseSchema)
{
    Rng rng(7);
    auto classes =
        RecordClass::makeClasses(4, 2, kBlocksPerRegion, 5, 12, rng);
    // Classes 0 and 2 share site 0: their first min_fields offsets
    // (trigger + base) must coincide.
    for (std::size_t f = 0; f < 4; ++f) {
        EXPECT_EQ(classes[0].field_offsets[f],
                  classes[2].field_offsets[f]);
    }
}

TEST(Interleaver, StrictModeRoundRobins)
{
    struct Tagged : TraceSource
    {
        explicit Tagged(Addr tag) : tag(tag) {}
        TraceRecord
        next() override
        {
            return TraceRecord{tag, 0, InstrType::Alu};
        }
        Addr tag;
    };
    std::vector<std::unique_ptr<TraceSource>> subs;
    subs.push_back(std::make_unique<Tagged>(1));
    subs.push_back(std::make_unique<Tagged>(2));
    InterleavedSource inter(std::move(subs), 1, 1, 42,
                            /*strict=*/true);
    // Strict alternation with run length 1: tags alternate exactly.
    Addr prev = inter.next().pc;
    for (int i = 0; i < 20; ++i) {
        const Addr cur = inter.next().pc;
        EXPECT_NE(cur, prev);
        prev = cur;
    }
}

TEST(Interleaver, RandomModeCoversAllSources)
{
    struct Tagged : TraceSource
    {
        explicit Tagged(Addr tag) : tag(tag) {}
        TraceRecord
        next() override
        {
            return TraceRecord{tag, 0, InstrType::Alu};
        }
        Addr tag;
    };
    std::vector<std::unique_ptr<TraceSource>> subs;
    for (Addr t = 1; t <= 4; ++t)
        subs.push_back(std::make_unique<Tagged>(t));
    InterleavedSource inter(std::move(subs), 2, 5, 42);
    std::set<Addr> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(inter.next().pc);
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Patterns, RecordStoreRevisitsReproduceFootprints)
{
    RecordStoreParams params;
    params.base = 1ULL << 42;
    params.num_regions = 64;
    params.hot_regions = 64;
    params.hot_fraction = 1.0;
    params.scan_fraction = 0.0;
    params.field_skip_prob = 0.0;
    params.extra_field_prob = 0.0;
    params.store_prob = 0.0;
    params.stack_accesses = 0;
    params.max_fields = 10;

    RecordStoreApp app(params, 7);
    // With noise disabled, each region's footprint is fixed: the union
    // of offsets over many revisits stays within one class layout.
    std::map<Addr, std::set<unsigned>> footprints;
    for (int i = 0; i < 200000; ++i) {
        const TraceRecord rec = app.next();
        if (rec.type != InstrType::Load)
            continue;
        footprints[regionNumber(rec.addr)].insert(
            regionOffset(rec.addr));
    }
    EXPECT_GT(footprints.size(), 30u);
    for (const auto &[region, offsets] : footprints) {
        EXPECT_LE(offsets.size(), params.max_fields)
            << "region " << region;
    }
}

TEST(Patterns, PointerChaseEmitsDependentLoads)
{
    PointerChaseParams params;
    params.base = 1ULL << 42;
    params.hot_visit_prob = 0.0;
    PointerChaseApp app(params, 3);
    int dependent = 0;
    int loads = 0;
    for (int i = 0; i < 5000; ++i) {
        const TraceRecord rec = app.next();
        if (rec.type == InstrType::Load) {
            ++loads;
            dependent += rec.dependent;
        }
    }
    EXPECT_GT(dependent, loads / 2);
}

TEST(Patterns, StreamIsMonotoneWithinSegments)
{
    StreamParams params;
    params.base = 1ULL << 42;
    params.skip_prob = 0.0;
    params.store_prob = 0.0;
    StreamApp app(params, 3);
    Addr prev = 0;
    int backward = 0;
    int loads = 0;
    for (int i = 0; i < 20000; ++i) {
        const TraceRecord rec = app.next();
        if (rec.type != InstrType::Load)
            continue;
        ++loads;
        if (prev != 0 && rec.addr < prev)
            ++backward;  // Only at segment seeks.
        prev = rec.addr;
    }
    EXPECT_LT(backward, loads / 10);
}

} // namespace
} // namespace bingo

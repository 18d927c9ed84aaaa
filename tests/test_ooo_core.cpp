/**
 * @file
 * Tests for the out-of-order core model: retire width, load latency
 * exposure, LSQ and ROB occupancy limits, dependent-load
 * serialization, measurement bookkeeping, and independence from how
 * the trace source cuts its op stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>

#include "core/ooo_core.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace bingo
{
namespace
{

using test::FakeLower;
using test::ScriptedSource;
using test::alu;
using test::load;

class CoreTest : public ::testing::Test
{
  protected:
    /** Run `cycles` cycles of one core over `script`. */
    std::unique_ptr<OooCore>
    makeCore(std::vector<TraceRecord> script, Cycle mem_latency = 50,
             CoreConfig config = CoreConfig{})
    {
        source_ = std::make_unique<ScriptedSource>(std::move(script));
        lower_ = std::make_unique<FakeLower>(events_, mem_latency);
        CacheConfig l1;
        l1.size_bytes = 4 * 1024;
        l1.ways = 4;
        l1.mshr_entries = 8;
        l1_ = std::make_unique<Cache>("L1", l1, events_, *lower_);
        return std::make_unique<OooCore>(0, config, *l1_, *source_);
    }

    void
    run(OooCore &core, Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            events_.runDue(c);
            core.step(c);
        }
    }

    EventQueue events_;
    std::unique_ptr<ScriptedSource> source_;
    std::unique_ptr<FakeLower> lower_;
    std::unique_ptr<Cache> l1_;
};

TEST_F(CoreTest, AluOnlyRetiresAtFullWidth)
{
    auto core = makeCore({});
    core->startMeasurement(4000, 0);
    run(*core, 1100);
    EXPECT_TRUE(core->measurementDone());
    // 4000 instructions at width 4 take ~1001 cycles (1-cycle ramp).
    EXPECT_NEAR(core->ipc(), 4.0, 0.1);
}

TEST_F(CoreTest, LoadMissStallsRetirement)
{
    std::vector<TraceRecord> script = {load(0x400, 0x1000)};
    for (int i = 0; i < 100; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), /*mem_latency=*/200);
    core->startMeasurement(101, 0);
    run(*core, 1000);
    ASSERT_TRUE(core->measurementDone());
    // The load's ~200-cycle miss dominates: 101 instructions can only
    // retire after its data returns.
    EXPECT_GT(core->completionCycle(), 200u);
}

TEST_F(CoreTest, IndependentLoadsOverlap)
{
    // Eight independent loads to distinct blocks: completion near one
    // latency, not eight.
    std::vector<TraceRecord> script;
    for (int i = 0; i < 8; ++i)
        script.push_back(load(0x400, 0x1000 + i * kBlockSize));
    auto core = makeCore(std::move(script), 200);
    core->startMeasurement(8, 0);
    run(*core, 4000);
    ASSERT_TRUE(core->measurementDone());
    EXPECT_LT(core->completionCycle(), 2 * 210u);
}

TEST_F(CoreTest, DependentLoadsSerialize)
{
    // Four chained loads: completion ~4 latencies.
    std::vector<TraceRecord> script;
    script.push_back(load(0x400, 0x1000));
    for (int i = 1; i < 4; ++i) {
        script.push_back(
            load(0x400, 0x1000 + i * kBlockSize, /*dependent=*/true));
    }
    auto core = makeCore(std::move(script), 200);
    core->startMeasurement(4, 0);
    run(*core, 4000);
    ASSERT_TRUE(core->measurementDone());
    EXPECT_GT(core->completionCycle(), 4 * 200u);
}

TEST_F(CoreTest, DependentLoadOnCompletedPredecessorIssuesNow)
{
    // If the previous load already finished, a dependent load must not
    // wait forever.
    std::vector<TraceRecord> script;
    script.push_back(load(0x400, 0x1000));
    for (int i = 0; i < 400; ++i)
        script.push_back(alu());
    script.push_back(load(0x400, 0x2000, /*dependent=*/true));
    auto core = makeCore(std::move(script), 50);
    core->startMeasurement(402, 0);
    run(*core, 2000);
    EXPECT_TRUE(core->measurementDone());
}

TEST_F(CoreTest, StoresRetireWithoutWaiting)
{
    std::vector<TraceRecord> script = {test::store(0x400, 0x1000)};
    for (int i = 0; i < 20; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), 500);
    core->startMeasurement(21, 0);
    run(*core, 200);
    // All 21 instructions retire long before the store's 500-cycle
    // write completes.
    EXPECT_TRUE(core->measurementDone());
    EXPECT_LT(core->completionCycle(), 100u);
}

TEST_F(CoreTest, LsqLimitsOutstandingMemOps)
{
    CoreConfig config;
    config.lsq_entries = 2;
    std::vector<TraceRecord> script;
    for (int i = 0; i < 16; ++i)
        script.push_back(load(0x400, 0x1000 + i * kBlockSize));
    auto core = makeCore(std::move(script), 100, config);
    core->startMeasurement(16, 0);
    run(*core, 5000);
    ASSERT_TRUE(core->measurementDone());
    // 16 loads at <=2 outstanding and 100-cycle latency: at least
    // 8 serialized rounds.
    EXPECT_GT(core->completionCycle(), 700u);
    EXPECT_GT(core->stats().lsq_full_cycles, 0u);
}

TEST_F(CoreTest, RobLimitsInFlightInstructions)
{
    CoreConfig config;
    config.rob_entries = 8;
    // A long-latency load followed by many ALUs: the ROB fills behind
    // the load.
    std::vector<TraceRecord> script = {load(0x400, 0x1000)};
    for (int i = 0; i < 100; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), 300, config);
    core->startMeasurement(101, 0);
    run(*core, 2000);
    EXPECT_GT(core->stats().rob_full_cycles, 0u);
}

TEST_F(CoreTest, L1HitIsFast)
{
    std::vector<TraceRecord> script = {
        load(0x400, 0x1000),  // Miss: warms the block.
        load(0x400, 0x1000),  // Hit.
    };
    auto core = makeCore(std::move(script), 100);
    core->startMeasurement(2, 0);
    run(*core, 1000);
    ASSERT_TRUE(core->measurementDone());
    // Both loads complete around one miss latency: the second hits or
    // merges.
    EXPECT_LT(core->completionCycle(), 150u);
    EXPECT_EQ(core->stats().loads, 2u);
}

TEST_F(CoreTest, MeasurementCountsExactly)
{
    auto core = makeCore({});
    core->startMeasurement(100, 0);
    run(*core, 100);
    EXPECT_TRUE(core->measurementDone());
    EXPECT_GE(core->measuredInstructions(), 100u);
    // Restarting the measurement resets the counters.
    core->startMeasurement(50, 100);
    EXPECT_FALSE(core->measurementDone());
}

TEST_F(CoreTest, NextWakeIsNextCycleWhenDispatchable)
{
    auto core = makeCore({});
    core->startMeasurement(100, 0);
    events_.runDue(0);
    core->step(0);
    // ALU stream, ROB nearly empty: the core can dispatch every cycle.
    EXPECT_EQ(core->nextWakeCycle(0), 1u);
}

TEST_F(CoreTest, NextWakeNeverOnceMeasurementDone)
{
    auto core = makeCore({});
    core->startMeasurement(10, 0);
    run(*core, 20);
    ASSERT_TRUE(core->measurementDone());
    EXPECT_EQ(core->nextWakeCycle(20), kNeverCycle);
}

TEST_F(CoreTest, NextWakeWaitsOnEventBehindMissWithRobFull)
{
    CoreConfig config;
    config.rob_entries = 4;
    std::vector<TraceRecord> script = {load(0x400, 0x1000)};
    for (int i = 0; i < 50; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), /*mem_latency=*/300,
                         config);
    core->startMeasurement(51, 0);
    run(*core, 5);
    // ROB is full behind the incomplete load at its head: only the
    // fill callback — an event — can unblock the core, so the wake
    // must defer entirely to the event queue.
    EXPECT_GT(core->stats().rob_full_cycles, 0u);
    EXPECT_EQ(core->nextWakeCycle(4), kNeverCycle);
}

TEST_F(CoreTest, NextWakeIsTimedRetirementWhenHeadIsCompleted)
{
    CoreConfig config;
    config.rob_entries = 4;
    config.alu_latency = 20;
    auto core = makeCore({}, 50, config);
    core->startMeasurement(100, 0);
    events_.runDue(0);
    core->step(0);
    // Four ALUs fill the ROB with completion time 20: nothing can
    // happen until the head's timed retirement.
    EXPECT_EQ(core->nextWakeCycle(0), 20u);
}

TEST_F(CoreTest, FastForwardMirrorsSteppedStallWindow)
{
    CoreConfig config;
    config.rob_entries = 4;
    config.alu_latency = 20;

    // Reference: step through the ROB-full window cycle by cycle,
    // including the wake cycle 20 where the head finally retires.
    CoreStats ref_window;
    CoreStats ref_after;
    {
        auto stepped = makeCore({}, 50, config);
        stepped->startMeasurement(100, 0);
        run(*stepped, 20);  // Cycles 0..19: dispatch burst + stall.
        ref_window = stepped->stats();
        events_.runDue(20);
        stepped->step(20);
        ref_after = stepped->stats();
    }

    // Same machine, but the window is applied in one fastForward.
    // (makeCore rebuilt the L1/source, so the first core is gone.)
    auto jumped = makeCore({}, 50, config);
    jumped->startMeasurement(100, 0);
    events_.runDue(0);
    jumped->step(0);
    ASSERT_EQ(jumped->nextWakeCycle(0), 20u);
    jumped->fastForward(19, 19);
    EXPECT_EQ(jumped->stats().cycles, ref_window.cycles);
    EXPECT_EQ(jumped->stats().rob_full_cycles,
              ref_window.rob_full_cycles);
    EXPECT_EQ(jumped->stats().lsq_full_cycles,
              ref_window.lsq_full_cycles);
    EXPECT_EQ(jumped->stats().instructions, ref_window.instructions);

    // It resumes exactly as the stepped core did at the wake cycle.
    events_.runDue(20);
    jumped->step(20);
    EXPECT_EQ(jumped->stats().instructions, ref_after.instructions);
    EXPECT_EQ(jumped->stats().cycles, ref_after.cycles);
}

TEST_F(CoreTest, FastForwardAttributesLsqStalls)
{
    CoreConfig config;
    config.lsq_entries = 2;
    std::vector<TraceRecord> script;
    for (int i = 0; i < 16; ++i)
        script.push_back(load(0x400, 0x1000 + i * kBlockSize));
    auto core = makeCore(std::move(script), /*mem_latency=*/100,
                         config);
    core->startMeasurement(16, 0);
    run(*core, 3);
    // Two loads in flight, a third parked on the full LSQ: freed only
    // by a completion callback, so the wake defers to the event queue.
    EXPECT_EQ(core->nextWakeCycle(2), kNeverCycle);
    const std::uint64_t before = core->stats().lsq_full_cycles;
    core->fastForward(5, 7);
    EXPECT_EQ(core->stats().lsq_full_cycles, before + 5);
}

TEST_F(CoreTest, TypeCountersTrack)
{
    std::vector<TraceRecord> script = {
        load(0x400, 0x1000),
        test::store(0x401, 0x2000),
        TraceRecord{0x402, 0, InstrType::Branch},
        alu(),
    };
    auto core = makeCore(std::move(script));
    core->startMeasurement(4, 0);
    run(*core, 500);
    EXPECT_EQ(core->stats().loads, 1u);
    EXPECT_EQ(core->stats().stores, 1u);
    EXPECT_EQ(core->stats().branches, 1u);
}

/**
 * Op source that honours the TraceSource::nextOps() contract and
 * nothing more: it covers each pull with sub-pulls of odd lengths from
 * its inner source and does not join the runs they split, so runs
 * reach the core cut at every offset and as separate bare ops; then
 * it fills the rest of the core's fetch buffer with garbage.
 */
class ClobberingSource : public TraceSource
{
  public:
    explicit ClobberingSource(std::unique_ptr<TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    TraceRecord next() override { return inner_->next(); }

    std::size_t
    nextOps(TraceOp *out, std::size_t instructions) override
    {
        static constexpr std::size_t kLengths[] = {1, 7, 64, 33, 50, 3};
        ++pulls_;
        std::size_t count = 0;
        for (std::size_t left = instructions; left > 0;) {
            const std::size_t piece =
                std::min(left, kLengths[pieces_++ % std::size(kLengths)]);
            count += inner_->nextOps(out + count, piece);
            left -= piece;
        }
        std::fill(out + count, out + instructions,
                  TraceOp{0xdead, 0xbad000, 7, InstrType::Load, true});
        return count;
    }

    std::size_t pulls() const { return pulls_; }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::size_t pieces_ = 0;
    std::size_t pulls_ = 0;
};

/**
 * Record-only view of a source: hides its op pull, so a core reading
 * it gets the default op pull built on next().
 */
class RecordOnlySource : public TraceSource
{
  public:
    explicit RecordOnlySource(std::unique_ptr<TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    TraceRecord next() override { return inner_->next(); }

  private:
    std::unique_ptr<TraceSource> inner_;
};

/** One L1D demand access as the core issued it. */
struct L1Access
{
    Addr block = 0;
    Addr pc = 0;
    AccessType type = AccessType::Load;
    bool hit = false;
    Cycle cycle = 0;

    bool operator==(const L1Access &other) const = default;
};

/** What one core run over `trace` did, down to each L1D access. */
struct CoreRun
{
    CoreStats stats;
    Cycle completion = 0;
    std::vector<Addr> fetched_blocks;
    std::vector<L1Access> accesses;
};

CoreRun
runCore(TraceSource &trace, std::uint64_t instructions)
{
    EventQueue events;
    FakeLower lower(events, 120);
    CacheConfig l1;
    l1.size_bytes = 4 * 1024;
    l1.ways = 4;
    l1.mshr_entries = 8;
    Cache l1d("L1", l1, events, lower);
    CoreRun out;
    l1d.setAccessHook(
        [&out](const MemAccess &access, bool hit, Cycle now) {
            out.accesses.push_back(
                {access.block, access.pc, access.type, hit, now});
        });
    OooCore core(0, CoreConfig{}, l1d, trace);
    core.startMeasurement(instructions, 0);
    for (Cycle now = 0; !core.measurementDone(); ++now) {
        if (now > instructions * 1000)
            throw std::runtime_error("core made no progress");
        events.runDue(now);
        core.step(now);
    }
    out.stats = core.stats();
    out.completion = core.completionCycle();
    for (const MemAccess &access : lower.fetches)
        out.fetched_blocks.push_back(access.block);
    return out;
}

void
expectSameRun(const CoreRun &a, const CoreRun &b)
{
    EXPECT_EQ(a.completion, b.completion);
    EXPECT_EQ(a.stats.instructions, b.stats.instructions);
    EXPECT_EQ(a.stats.loads, b.stats.loads);
    EXPECT_EQ(a.stats.stores, b.stats.stores);
    EXPECT_EQ(a.stats.branches, b.stats.branches);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.rob_full_cycles, b.stats.rob_full_cycles);
    EXPECT_EQ(a.stats.lsq_full_cycles, b.stats.lsq_full_cycles);
    EXPECT_EQ(a.fetched_blocks, b.fetched_blocks);
    EXPECT_TRUE(a.accesses == b.accesses)
        << a.accesses.size() << " vs " << b.accesses.size()
        << " L1D accesses";
}

TEST(CoreBorrowContract, WindowNeedOnlyLastUntilTheNextCall)
{
    auto plain = makeWorkload("Data Serving", 0, 7);
    ClobberingSource clobbering(makeWorkload("Data Serving", 0, 7));
    const CoreRun reference = runCore(*plain, 200000);
    const CoreRun cut = runCore(clobbering, 200000);
    ASSERT_GT(clobbering.pulls(), 1000u);
    expectSameRun(cut, reference);
}

TEST(CoreOpPull, OpNativeAndRecordOnlySourcesRunIdentically)
{
    for (const char *workload : {"Data Serving", "em3d", "Mix 4"}) {
        SCOPED_TRACE(workload);
        auto native = makeWorkload(workload, 1, 42);
        RecordOnlySource records(makeWorkload(workload, 1, 42));
        const CoreRun a = runCore(*native, 100000);
        const CoreRun b = runCore(records, 100000);
        ASSERT_GT(a.accesses.size(), 1000u);
        expectSameRun(a, b);
    }
}

} // namespace
} // namespace bingo

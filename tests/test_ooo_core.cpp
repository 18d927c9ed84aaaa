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
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
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

TEST_F(CoreTest, NextWakeIsBatchEndForAluStream)
{
    auto core = makeCore({});
    core->startMeasurement(100, 0);
    events_.runDue(0);
    core->step(0);
    // ALU stream: cycle 0 pulled a 64-instruction batch and dispatched
    // 4 of it. The other 60 dispatch 4 a cycle over cycles 1..15, so
    // the next pull is at cycle 16; the quota of 100 cannot retire
    // before cycle 25. Everything in between is private to the core.
    EXPECT_EQ(core->nextWakeCycle(0), 16u);
}

TEST_F(CoreTest, NextWakeIsQuotaRetireWhenItComesFirst)
{
    auto core = makeCore({});
    core->startMeasurement(10, 0);
    events_.runDue(0);
    core->step(0);
    // Ten instructions retire 4 a cycle from cycle 1: the tenth cannot
    // retire before cycle 3, well ahead of the batch end.
    EXPECT_EQ(core->nextWakeCycle(0), 3u);
}

TEST_F(CoreTest, NextWakeIsNextLoadDispatch)
{
    std::vector<TraceRecord> script(9, alu());
    script.push_back(load(0x400, 0x1000));
    auto core = makeCore(std::move(script));
    core->startMeasurement(1000, 0);
    events_.runDue(0);
    core->step(0);
    // Cycle 0 dispatched 4 of the 9 ALUs; cycle 1 takes 4 more and
    // cycle 2 the last one and then the load.
    EXPECT_EQ(core->nextWakeCycle(0), 2u);
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

    // Same machine, but the window is applied in one syncTo.
    // (makeCore rebuilt the L1/source, so the first core is gone.)
    auto jumped = makeCore({}, 50, config);
    jumped->startMeasurement(100, 0);
    events_.runDue(0);
    jumped->step(0);
    ASSERT_EQ(jumped->nextWakeCycle(0), 20u);
    jumped->syncTo(19);
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
    core->syncTo(7);
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

/**
 * Random op stream for the lazy-window oracle: ALU runs of 1 to 600
 * instructions between loads (some dependent), stores and branches,
 * sometimes back to back. Counts the records it hands out.
 */
class RandomOpSource : public TraceSource
{
  public:
    explicit RandomOpSource(std::uint64_t seed) : rng_(seed) {}

    TraceRecord
    next() override
    {
        ++pulled_;
        if (run_left_ > 0) {
            --run_left_;
            return alu();
        }
        run_left_ = rng_.chance(0.2)
                        ? 0
                        : rng_.range(1, rng_.chance(0.5) ? 8 : 600);
        const Addr addr = rng_.below(256) * kBlockSize;
        const Addr pc = 0x400 + rng_.below(16);
        const std::uint64_t kind = rng_.below(10);
        if (kind < 4)
            return load(pc, addr, rng_.chance(0.3));
        if (kind < 6)
            return test::store(pc, addr);
        return TraceRecord{pc, 0, InstrType::Branch};
    }

    std::uint64_t pulled() const { return pulled_; }

  private:
    Rng rng_;
    std::uint64_t run_left_ = 0;
    std::uint64_t pulled_ = 0;
};

/** Memory below the L1D whose fill latency is drawn per fetch. */
class RandomLatencyLower : public MemoryLower
{
  public:
    RandomLatencyLower(EventQueue &events, std::uint64_t seed,
                       Cycle max_latency)
        : events_(events), rng_(seed), max_latency_(max_latency)
    {
    }

    void
    fetch(const MemAccess &, Cycle now, FillCallback done) override
    {
        const Cycle fill = now + rng_.range(1, max_latency_);
        events_.schedule(fill, [done = std::move(done), fill] {
            done(fill);
        });
    }

    void writeback(Addr, CoreId, Cycle) override {}

  private:
    EventQueue &events_;
    Rng rng_;
    Cycle max_latency_;
};

/** Everything one core observably holds after a cycle. */
struct CoreState
{
    CoreStats stats;
    std::uint64_t rob = 0;
    unsigned lsq = 0;
    bool done = false;
    Cycle completion = 0;
    std::uint64_t pulled = 0;
    std::size_t accesses = 0;

    bool
    operator==(const CoreState &o) const
    {
        return stats.instructions == o.stats.instructions &&
               stats.loads == o.stats.loads &&
               stats.stores == o.stats.stores &&
               stats.branches == o.stats.branches &&
               stats.cycles == o.stats.cycles &&
               stats.rob_full_cycles == o.stats.rob_full_cycles &&
               stats.lsq_full_cycles == o.stats.lsq_full_cycles &&
               rob == o.rob && lsq == o.lsq && done == o.done &&
               completion == o.completion && pulled == o.pulled &&
               accesses == o.accesses;
    }
};

std::ostream &
operator<<(std::ostream &os, const CoreState &s)
{
    return os << "instrs " << s.stats.instructions << " loads "
              << s.stats.loads << " stores " << s.stats.stores
              << " branches " << s.stats.branches << " cycles "
              << s.stats.cycles << " rob_full " << s.stats.rob_full_cycles
              << " lsq_full " << s.stats.lsq_full_cycles << " rob "
              << s.rob << " lsq " << s.lsq << " done " << s.done
              << " completion " << s.completion << " pulled " << s.pulled
              << " accesses " << s.accesses;
}

/** One core with its private L1D over a random stream and memory. */
struct RandomMachine
{
    RandomMachine(const CoreConfig &core_config,
                  const CacheConfig &l1_config, std::uint64_t seed,
                  Cycle max_fill)
        : source(seed), lower(events, seed ^ 0x5eed, max_fill),
          l1("L1", l1_config, events, lower),
          core(0, core_config, l1, source)
    {
        l1.setAccessHook([this](const MemAccess &access, bool hit,
                                Cycle now) {
            accesses.push_back({access.block, access.pc, access.type,
                                hit, now});
        });
    }

    CoreState
    state() const
    {
        return CoreState{core.stats(),          core.robOccupancy(),
                         core.lsqOccupancy(),   core.measurementDone(),
                         core.completionCycle(), source.pulled(),
                         accesses.size()};
    }

    EventQueue events;
    RandomOpSource source;
    RandomLatencyLower lower;
    Cache l1;
    OooCore core;
    std::vector<L1Access> accesses;
};

/**
 * The lazy-window oracle: the same random machine run twice, once
 * stepped on every cycle and once stepped only at the core's wakes,
 * with the windows in between applied by syncTo() (directly, and by
 * the completion callbacks). At every cycle the lazy run visits, the
 * synced core must hold exactly the stepped core's counters, ROB and
 * LSQ occupancy, pulled records and L1D accesses; at the end the two
 * L1D access sequences must be identical.
 */
TEST(CoreLazyWindow, MatchesSteppedCoreOnRandomStreams)
{
    Rng pick(2024);
    for (int trial = 0; trial < 60; ++trial) {
        CoreConfig core_config;
        core_config.width = static_cast<unsigned>(pick.range(1, 8));
        core_config.rob_entries = static_cast<unsigned>(pick.range(4, 256));
        core_config.lsq_entries = static_cast<unsigned>(pick.range(1, 64));
        core_config.alu_latency = static_cast<unsigned>(pick.range(1, 20));
        CacheConfig l1_config;
        l1_config.size_bytes = 4 * 1024;
        l1_config.ways = 4;
        l1_config.hit_latency = static_cast<unsigned>(pick.range(1, 8));
        l1_config.mshr_entries = static_cast<unsigned>(pick.range(1, 8));
        const Cycle max_fill = pick.range(1, 400);
        const std::uint64_t quota = pick.range(2000, 30000);
        const std::uint64_t seed = pick.next();
        SCOPED_TRACE("trial " + std::to_string(trial) + ": width " +
                     std::to_string(core_config.width) + " rob " +
                     std::to_string(core_config.rob_entries) + " lsq " +
                     std::to_string(core_config.lsq_entries) +
                     " alu_latency " +
                     std::to_string(core_config.alu_latency));

        RandomMachine stepped(core_config, l1_config, seed, max_fill);
        stepped.core.startMeasurement(quota, 0);
        std::vector<CoreState> reference;
        Cycle end = kNeverCycle;
        for (Cycle now = 0; now <= end; ++now) {
            stepped.events.runDue(now);
            stepped.core.step(now);
            reference.push_back(stepped.state());
            if (end == kNeverCycle && stepped.core.measurementDone())
                end = now + 100;  // Let in-flight requests drain.
            ASSERT_LT(now, quota * 1000) << "stepped core stalled";
        }

        RandomMachine lazy(core_config, l1_config, seed, max_fill);
        lazy.core.startMeasurement(quota, 0);
        Cycle wake = 0;
        std::size_t visits = 0;
        for (Cycle now = 0; now <= end;) {
            lazy.events.runDue(now);
            if (lazy.core.wakeDirty() && now > 0) {
                lazy.core.clearWakeDirty();
                wake = lazy.core.nextWakeCycle(now - 1);
            }
            if (wake <= now) {
                lazy.core.clearWakeDirty();
                lazy.core.step(now);
                wake = lazy.core.nextWakeCycle(now);
                ASSERT_GT(wake, now);
            }
            lazy.core.syncTo(now);
            ++visits;
            ASSERT_EQ(lazy.state(), reference[now]) << "cycle " << now;
            now = std::max(now + 1,
                           std::min({wake, lazy.events.nextEventCycle(),
                                     end + 1}));
        }
        EXPECT_TRUE(lazy.accesses == stepped.accesses);
        // The oracle only means something if windows were skipped.
        EXPECT_LT(visits, reference.size());
    }
}

} // namespace
} // namespace bingo

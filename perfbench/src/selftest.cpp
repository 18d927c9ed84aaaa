/**
 * @file
 * Self-test of the benchmark's own machinery: the result digest sees
 * every journal-persisted field, the reference check counts a changed
 * result as a failed job, the fixed-latency stub completes every fill
 * it is given, and the seed mapping stays inside the reference pool.
 * Prints one line per failed check and exits non-zero if any failed.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache.hpp"
#include "common/event_queue.hpp"
#include "core/ooo_core.hpp"
#include "digest.hpp"
#include "stub_lower.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace
{

using namespace perfbench;
using bingo::CacheStats;
using bingo::Cycle;
using bingo::DramStats;
using bingo::RunResult;

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++g_failures;
    }
}

/** Apply `fn` to each 64-bit counter of a stats struct in turn. */
template <typename Stats, typename Fn>
void
forEachCounter(Stats &stats, Fn &&fn)
{
    static_assert(std::is_trivially_copyable_v<Stats>);
    static_assert(sizeof(Stats) % sizeof(std::uint64_t) == 0);
    for (std::size_t i = 0; i < sizeof(Stats) / sizeof(std::uint64_t);
         ++i) {
        std::uint64_t value = 0;
        auto *word = reinterpret_cast<unsigned char *>(&stats) +
                     i * sizeof(value);
        std::memcpy(&value, word, sizeof(value));
        fn(i, value);
        std::memcpy(word, &value, sizeof(value));
    }
}

RunResult
sampleResult(const std::string &workload)
{
    RunResult r;
    r.workload = workload;
    r.kind = bingo::PrefetcherKind::Bingo;
    r.core_ipc = {0.5, 0.75, 1.25, 1.5};
    r.instructions = 1600000;
    std::uint64_t next = 11;
    const auto fill = [&next](std::size_t, std::uint64_t &v) {
        v = next++;
    };
    forEachCounter(r.llc, fill);
    forEachCounter(r.l1d, fill);
    forEachCounter(r.dram, fill);
    r.prefetch_storage_bytes = 4096;
    return r;
}

void
testDigestCoversEveryField()
{
    const RunResult base = sampleResult("em3d");
    const std::uint64_t digest = resultDigest(base);
    check(resultDigest(sampleResult("em3d")) == digest,
          "digest is deterministic");

    const auto expectChange = [&](const std::string &field,
                                  const RunResult &changed) {
        check(resultDigest(changed) != digest,
              "changing " + field + " changes the digest");
    };
    for (const char *level : {"llc", "l1d", "dram"}) {
        const std::size_t words =
            std::strcmp(level, "dram") == 0
                ? sizeof(DramStats) / sizeof(std::uint64_t)
                : sizeof(CacheStats) / sizeof(std::uint64_t);
        for (std::size_t target = 0; target < words; ++target) {
            RunResult r = base;
            const auto bump = [target](std::size_t i, std::uint64_t &v) {
                if (i == target)
                    ++v;
            };
            if (std::strcmp(level, "llc") == 0)
                forEachCounter(r.llc, bump);
            else if (std::strcmp(level, "l1d") == 0)
                forEachCounter(r.l1d, bump);
            else
                forEachCounter(r.dram, bump);
            expectChange(std::string(level) + " counter " +
                             std::to_string(target),
                         r);
        }
    }
    for (std::size_t core = 0; core < base.core_ipc.size(); ++core) {
        RunResult r = base;
        r.core_ipc[core] += 1e-12;
        expectChange("ipc of core " + std::to_string(core), r);
    }
    RunResult r = base;
    r.workload = "Mix 1";
    expectChange("workload", r);
    r = base;
    r.kind = bingo::PrefetcherKind::Sms;
    expectChange("kind", r);
    r = base;
    r.instructions += 1;
    expectChange("instructions", r);
    r = base;
    r.prefetch_storage_bytes += 1;
    expectChange("storage", r);
    r = base;
    r.degraded = true;
    expectChange("degraded", r);
    r.degraded_reason = "pf0 quarantined";
    const std::uint64_t degraded = resultDigest(r);
    r.degraded_reason = "pf1 quarantined";
    check(resultDigest(r) != degraded,
          "changing the degraded reason changes the digest");
}

void
testCheckSweepCountsChangedResults()
{
    const std::vector<bingo::SweepJob> jobs = makeJobs("memory_bound", 42);
    std::vector<bingo::JobOutcome> outcomes(jobs.size());
    std::string text = "# reference\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        outcomes[i].status = bingo::JobStatus::Ok;
        outcomes[i].result = sampleResult(jobs[i].workload);
        text += referenceLine(42, i, resultDigest(outcomes[i].result),
                              jobLabel(jobs[i])) +
                "\n";
    }
    const Reference reference = Reference::parse(text);
    check(checkSweep(reference, 42, jobs, outcomes).failed == 0,
          "unchanged results pass the check");

    std::vector<bingo::JobOutcome> changed(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        changed[i].status = bingo::JobStatus::Ok;
        changed[i].result = outcomes[i].result;
    }
    changed[2].result.llc.demand_misses += 1;
    const CheckResult result =
        checkSweep(reference, 42, jobs, changed);
    check(result.failed == 1 && result.problems.size() == 1 &&
              result.problems[0].rfind(jobLabel(jobs[2]), 0) == 0,
          "one changed field of one job fails exactly that job");

    changed[2].result = outcomes[2].result;
    changed[1].status = bingo::JobStatus::Degraded;
    check(checkSweep(reference, 42, jobs, changed).failed == 1,
          "a degraded job counts as failed");
    changed[1].status = bingo::JobStatus::Failed;
    check(checkSweep(reference, 42, jobs, changed).failed == 1,
          "a failed job counts as failed");

    bool threw = false;
    try {
        checkSweep(reference, 43, jobs, outcomes);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    check(threw, "a seed without reference digests is an error");
    threw = false;
    std::vector<bingo::SweepJob> others = makeJobs("fig8", 42);
    others.resize(jobs.size());
    try {
        checkSweep(reference, 42, others, outcomes);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    check(threw, "a reference naming other jobs is an error");
}

void
testStubCompletesEveryFill()
{
    constexpr Cycle kLatency = 37;
    bingo::EventQueue events;
    FixedLatencyLower lower(events, kLatency);
    std::vector<Cycle> landed;
    std::vector<Cycle> expected;
    for (Cycle now = 0; now < 5000; now += 3) {
        events.runDue(now);
        bingo::MemAccess access;
        access.block = now * bingo::kBlockSize;
        lower.fetch(access, now,
                    [&landed](Cycle when) { landed.push_back(when); });
        expected.push_back(now + kLatency);
    }
    while (!events.empty())
        events.runDue(events.nextEventCycle());
    check(lower.issued() == expected.size() &&
              lower.completed() == lower.issued(),
          "stub completes every fetch");
    check(landed == expected,
          "stub fills land exactly `latency` cycles after issue");

    // Behind a cache: misses, merges and write-backs all drain.
    bingo::EventQueue cache_events;
    FixedLatencyLower cache_lower(cache_events, kLatency);
    bingo::SystemConfig config;
    bingo::Cache cache("L1D", config.l1d, cache_events, cache_lower);
    std::uint64_t done = 0, accesses = 0;
    for (Cycle now = 0; now < 200000; ++now) {
        cache_events.runDue(now);
        bingo::MemAccess access;
        access.block = ((now * 2654435761ULL) % 8192) * bingo::kBlockSize;
        access.type = now % 3 == 0 ? bingo::AccessType::Store
                                   : bingo::AccessType::Load;
        cache.access(access, now,
                     [&done](Cycle) { ++done; });
        ++accesses;
    }
    while (!cache_events.empty())
        cache_events.runDue(cache_events.nextEventCycle());
    check(cache_lower.issued() > 0 &&
              cache_lower.completed() == cache_lower.issued(),
          "stub completes every fill a cache issues");
    check(done == accesses, "every cache access behind the stub completes");

    // Behind a core: the core retires its whole quota.
    bingo::EventQueue core_events;
    FixedLatencyLower core_lower(core_events, kLatency);
    bingo::Cache l1d("L1D", config.l1d, core_events, core_lower);
    std::unique_ptr<bingo::TraceSource> trace =
        bingo::makeWorkload("em3d", 0, 42);
    bingo::OooCore core(0, config.core, l1d, *trace);
    core.startMeasurement(100000, 0);
    Cycle now = 0;
    for (; !core.measurementDone() && now < 100000000; ++now) {
        core_events.runDue(now);
        core.step(now);
    }
    check(core.measurementDone() &&
              core.measuredInstructions() == 100000,
          "a core above the stub retires its quota");
}

void
testSeedMapping()
{
    for (std::uint64_t s = kSeedBase; s < kSeedBase + kSeedPool; ++s)
        check(workloadSeed(s) == s, "pooled seeds map to themselves");
    for (std::uint64_t s : {0ULL, 1ULL, 7ULL, 41ULL, 74ULL, 1000ULL,
                            4294967295ULL}) {
        const std::uint64_t w = workloadSeed(s);
        check(w >= kSeedBase && w < kSeedBase + kSeedPool,
              "seed " + std::to_string(s) + " maps into the pool");
    }
}

} // namespace

int
main()
{
    testDigestCoversEveryField();
    testCheckSweepCountsChangedResults();
    testStubCompletesEveryFill();
    testSeedMapping();
    if (g_failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
}

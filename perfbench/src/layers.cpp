#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>

#include "cache/cache.hpp"
#include "common/event_queue.hpp"
#include "core/ooo_core.hpp"
#include "mem/dram.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "sim/thread_pool.hpp"
#include "stub_lower.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"
#include "workloads.hpp"

namespace perfbench
{

using bingo::Addr;
using bingo::Cache;
using bingo::CacheConfig;
using bingo::Cycle;
using bingo::EventQueue;
using bingo::MemAccess;
using bingo::PrefetcherKind;
using bingo::RunResult;
using bingo::SweepJob;
using bingo::SystemConfig;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Replay sizes: each recorded stream keeps its last this many entries
// (the end of the run, when caches and predictors are warm), which
// bounds the traced run's memory at a few MB per job in flight.
constexpr std::size_t kL1dRecorded = std::size_t{1} << 17;
constexpr std::size_t kLlcRecorded = std::size_t{1} << 16;
constexpr std::size_t kDramRecorded = std::size_t{1} << 16;
constexpr std::uint64_t kCoreReplayInstrs = std::uint64_t{1} << 17;
constexpr std::size_t kStreamReplayRecords = std::size_t{1} << 18;

/** The prefetchers with per-prefetcher metrics, and their names. */
const std::vector<std::pair<PrefetcherKind, const char *>> &
reportedPrefetchers()
{
    static const std::vector<std::pair<PrefetcherKind, const char *>>
        kinds = {{PrefetcherKind::Bop, "bop"},
                 {PrefetcherKind::Spp, "spp"},
                 {PrefetcherKind::Vldp, "vldp"},
                 {PrefetcherKind::Ampm, "ampm"},
                 {PrefetcherKind::Sms, "sms"},
                 {PrefetcherKind::Bingo, "bingo"}};
    return kinds;
}

/** One recorded cache access. */
struct Access
{
    MemAccess access;
    Cycle cycle = 0;
    bool hit = false;
};

/** One recorded read reaching DRAM. */
struct DramRead
{
    Addr block = 0;
    Cycle cycle = 0;
};

/** Keeps the last `capacity` items pushed and counts all of them. */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : capacity_(capacity)
    {
        items_.reserve(capacity);
    }

    void
    push(const T &item)
    {
        if (items_.size() < capacity_)
            items_.push_back(item);
        else
            items_[total_ % capacity_] = item;
        ++total_;
    }

    /** Visit the retained items, oldest first. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = items_.size();
        const std::size_t start = total_ > n ? total_ % n : 0;
        for (std::size_t i = 0; i < n; ++i)
            fn(items_[(start + i) % n]);
    }

    std::size_t retained() const { return items_.size(); }
    std::uint64_t total() const { return total_; }

  private:
    std::size_t capacity_;
    std::vector<T> items_;
    std::uint64_t total_ = 0;
};

/** Host time spent on `ops` operations of one layer. */
struct Timed
{
    double seconds = 0.0;
    std::uint64_t ops = 0;

    void
    add(const Timed &other)
    {
        seconds += other.seconds;
        ops += other.ops;
    }

    double
    nsPerOp() const
    {
        return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
    }
};

/** Everything the traced pass learns about one job. */
struct JobTrace
{
    std::string error;
    RunResult result;
    bool matches = false;
    double build_s = 0.0;
    double sim_s = 0.0;
    Cycle cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t l1d_accesses = 0;  ///< Whole run, every core.
    std::uint64_t llc_accesses = 0;  ///< Whole run, demand only.
    std::uint64_t dram_reads = 0;    ///< Demand misses + prefetches.
    Timed l1d, llc, dram, prefetch, core;
    std::uint64_t core_l1d_accesses = 0;  ///< L1D work inside `core`.
};

/** Run every pending event, however far in the future. */
void
drain(EventQueue &events)
{
    while (!events.empty())
        events.runDue(events.nextEventCycle());
}

/**
 * Replay recorded demand accesses into fresh caches of `config` above
 * a fixed-latency stub: one cache per core when `per_core`, else one
 * shared cache.
 */
Timed
replayCache(const Ring<Access> &recorded, const CacheConfig &config,
            unsigned cores, bool per_core, Cycle lower_latency)
{
    EventQueue events;
    FixedLatencyLower lower(events, lower_latency);
    std::vector<std::unique_ptr<Cache>> caches;
    for (unsigned c = 0; c < (per_core ? cores : 1); ++c) {
        caches.push_back(
            std::make_unique<Cache>("replay", config, events, lower));
    }
    Cycle now = 0;
    const auto start = Clock::now();
    recorded.forEach([&](const Access &a) {
        now = std::max(now, a.cycle);
        events.runDue(now);
        Cache &cache = per_core ? *caches[a.access.core] : *caches[0];
        cache.access(a.access, now, bingo::FillCallback{});
    });
    drain(events);
    const double seconds = secondsSince(start);
    if (lower.completed() != lower.issued())
        throw std::logic_error("cache replay left fills incomplete");
    return {seconds, recorded.retained()};
}

Timed
replayDram(const Ring<DramRead> &recorded, const bingo::DramConfig &config)
{
    bingo::DramController dram(config);
    Cycle last = 0;
    const auto start = Clock::now();
    recorded.forEach(
        [&](const DramRead &r) { last = dram.read(r.block, r.cycle); });
    const double seconds = secondsSince(start);
    if (last == 0 && recorded.retained() > 0)
        throw std::logic_error("DRAM replay returned no completion");
    return {seconds, recorded.retained()};
}

Timed
replayPrefetcher(const Ring<Access> &recorded,
                 const bingo::PrefetcherConfig &config)
{
    std::unique_ptr<bingo::Prefetcher> prefetcher =
        bingo::makePrefetcher(config);
    std::vector<Addr> out;
    const auto start = Clock::now();
    recorded.forEach([&](const Access &a) {
        bingo::PrefetchAccess pa;
        pa.pc = a.access.pc;
        pa.block = a.access.block;
        pa.core = a.access.core;
        pa.hit = a.hit;
        pa.type = a.access.type;
        pa.cycle = a.cycle;
        out.clear();
        prefetcher->onAccess(pa, out);
    });
    const double seconds = secondsSince(start);
    return {seconds, recorded.retained()};
}

/**
 * Drive core 0 of the job's trace through an OooCore whose L1D sits
 * above a stub with the LLC's hit latency; `l1d_accesses` receives the
 * L1D work included in the returned time.
 */
Timed
replayCore(const SweepJob &job, const SystemConfig &config,
           std::uint64_t &l1d_accesses)
{
    std::unique_ptr<bingo::TraceSource> source =
        bingo::acquireWorkloadSource(job.workload, 0, config.seed,
                                     /*translated=*/true);
    EventQueue events;
    FixedLatencyLower lower(events, config.llc.hit_latency);
    Cache l1d("L1D", config.l1d, events, lower);
    bingo::OooCore core(0, config.core, l1d, *source);
    core.startMeasurement(kCoreReplayInstrs, 0);
    const Cycle limit = kCoreReplayInstrs * 1000;
    const auto start = Clock::now();
    Cycle now = 0;
    for (; !core.measurementDone(); ++now) {
        if (now > limit)
            throw std::runtime_error("core replay made no progress");
        events.runDue(now);
        core.step(now);
    }
    const double seconds = secondsSince(start);
    l1d_accesses = l1d.stats().demand_accesses;
    return {seconds, core.measuredInstructions()};
}

/** Simulate one job with recording hooks, then replay its layers. */
JobTrace
traceJob(const SweepJob &job, std::size_t index, std::uint64_t seed,
         const Reference &reference)
{
    JobTrace trace;
    SystemConfig config = job.config;
    config.seed = job.options.seed;
    config.validate();

    // Declared before the System, so they outlive the hooks that
    // refer to them.
    Ring<Access> l1d(kL1dRecorded);
    Ring<Access> llc(kLlcRecorded);
    Ring<DramRead> dram(kDramRecorded);
    std::vector<Addr> candidates;

    const auto build_start = Clock::now();
    bingo::System system(config, job.workload);
    trace.build_s = secondsSince(build_start);

    for (bingo::CoreId c = 0; c < system.numCores(); ++c) {
        system.l1d(c).setAccessHook(
            [&l1d](const MemAccess &a, bool hit, Cycle now) {
                l1d.push({a, now, hit});
            });
    }
    // Replaces the System's own LLC hook, so it repeats exactly what
    // that hook does for a run without fault injection: train the
    // requesting core's prefetcher and issue its candidates. The
    // result digest check below proves the run is unchanged.
    bingo::System *sys = &system;
    system.llc().setAccessHook([&llc, &dram, &candidates, sys](
                                   const MemAccess &a, bool hit,
                                   Cycle now) {
        llc.push({a, now, hit});
        if (!hit)
            dram.push({a.block, now});
        bingo::Prefetcher *pf = sys->guard(a.core);
        if (pf == nullptr)
            return;
        bingo::PrefetchAccess pa;
        pa.pc = a.pc;
        pa.block = a.block;
        pa.core = a.core;
        pa.hit = hit;
        pa.type = a.type;
        pa.cycle = now;
        candidates.clear();
        pf->onAccess(pa, candidates);
        for (Addr candidate : candidates) {
            const Addr block = bingo::blockAlign(candidate);
            if (block == a.block)
                continue;
            dram.push({block, now});
            sys->llc().prefetch(block, a.pc, a.core, now);
        }
    });

    const auto sim_start = Clock::now();
    system.run(job.options.warmup_instructions,
               job.options.measure_instructions);
    trace.sim_s = secondsSince(sim_start);
    trace.result = bingo::collectResult(system, job.workload);
    trace.matches =
        !trace.result.degraded &&
        matchesReference(reference, seed, index, job, trace.result);
    trace.cycles = system.now();
    trace.skipped = system.skippedCycles();
    trace.l1d_accesses = l1d.total();
    trace.llc_accesses = llc.total();
    trace.dram_reads = dram.total();

    trace.l1d = replayCache(l1d, config.l1d, config.num_cores,
                            /*per_core=*/true, config.llc.hit_latency);
    trace.llc = replayCache(llc, config.llc, config.num_cores,
                            /*per_core=*/false,
                            config.dram.zeroLoadRowMiss());
    trace.dram = replayDram(dram, config.dram);
    if (config.prefetcher.kind != PrefetcherKind::None)
        trace.prefetch = replayPrefetcher(llc, config.prefetcher);
    trace.core = replayCore(job, config, trace.core_l1d_accesses);
    return trace;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Median of `values`; 0 when empty. */
double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Paper Table II baseline LLC MPKI; 0 for a workload it omits. */
double
paperMpki(const std::string &workload)
{
    static const std::map<std::string, double> table = {
        {"Data Serving", 6.7}, {"SAT Solver", 1.7}, {"Streaming", 3.9},
        {"Zeus", 5.2},         {"em3d", 32.4},      {"Mix 1", 15.7},
        {"Mix 2", 12.5},       {"Mix 3", 12.7},     {"Mix 4", 14.7},
        {"Mix 5", 12.6}};
    const auto it = table.find(workload);
    return it == table.end() ? 0.0 : it->second;
}

/** `values` in layerMetricSpecs() order, with their units. */
std::vector<MetricValue>
inSpecOrder(const std::map<std::string, double> &values)
{
    std::vector<MetricValue> out;
    for (const MetricSpec &spec : layerMetricSpecs()) {
        const auto it = values.find(spec.name);
        if (it != values.end())
            out.push_back({spec.name, spec.unit, it->second});
    }
    if (out.size() != values.size())
        throw std::logic_error("metric without a spec");
    return out;
}

} // namespace

const std::vector<MetricSpec> &
layerMetricSpecs()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"workload.gen_ns_per_record", "ns", "lower"},
            {"workload.records_generated", "count", "lower"},
            {"workload.replay_ns_per_record", "ns", "lower"},
            {"workload.trace_cache_hit_frac", "frac", "higher"},
            {"workload.trace_cache_mb", "MB", "lower"},
            {"core.ns_per_instr", "ns", "lower"},
            {"core.ipc", "instr/cycle", "higher"},
            {"cache.l1d_ns_per_access", "ns", "lower"},
            {"cache.llc_ns_per_access", "ns", "lower"},
            {"cache.l1d_hit_frac", "frac", "higher"},
            {"cache.llc_hit_frac", "frac", "higher"},
            {"cache.llc_mshr_stall_frac", "frac", "lower"},
            {"cache.llc_evictions_per_kinstr", "1/kinstr", "lower"},
            {"mem.dram_ns_per_read", "ns", "lower"},
            {"mem.row_hit_frac", "frac", "higher"},
            {"mem.queue_delay_per_read", "cycles", "lower"},
            {"mem.reads_per_kinstr", "1/kinstr", "lower"},
        };
        static const char *const kPerPrefetcher[][3] = {
            {"ns_per_access", "ns", "lower"},
            {"accuracy", "frac", "higher"},
            {"coverage", "frac", "higher"},
            {"late_frac", "frac", "lower"}};
        for (const auto &[kind, name] : reportedPrefetchers()) {
            for (const auto &metric : kPerPrefetcher) {
                s.push_back({std::string("prefetch.") + name + "." +
                                 metric[0],
                             metric[1], metric[2]});
            }
        }
        const MetricSpec tail[] = {
            {"prefetch.drop_frac", "frac", "lower"},
            {"sim.skipped_cycle_frac", "frac", "higher"},
            {"sim.build_ms", "ms", "lower"},
            {"sim.job_p50_s", "s", "lower"},
            {"sim.job_max_s", "s", "lower"},
            {"sim.pool_idle_frac", "frac", "lower"},
            {"sim.unattributed_frac", "frac", "lower"},
            {"sim.paper_mpki_err", "frac", "lower"},
            {"trace_overhead_frac", "frac", "lower"},
        };
        s.insert(s.end(), std::begin(tail), std::end(tail));
        return s;
    }();
    return specs;
}

std::vector<MetricValue>
sweepLayerMetrics(const std::vector<SweepJob> &jobs,
                  const std::vector<bingo::JobOutcome> &outcomes,
                  double wall_seconds, unsigned threads,
                  const bingo::TraceCacheStats &cache_stats)
{
    std::map<std::string, double> m;
    std::vector<double> job_walls;
    double job_wall_sum = 0.0;
    for (const bingo::JobOutcome &outcome : outcomes) {
        job_walls.push_back(outcome.wall_seconds);
        job_wall_sum += outcome.wall_seconds;
    }
    m["sim.job_p50_s"] = median(job_walls);
    m["sim.job_max_s"] =
        *std::max_element(job_walls.begin(), job_walls.end());
    m["sim.pool_idle_frac"] =
        1.0 - job_wall_sum / (threads * wall_seconds);
    m["workload.records_generated"] =
        static_cast<double>(cache_stats.records_generated);
    m["workload.trace_cache_hit_frac"] =
        ratio(cache_stats.hits, cache_stats.hits + cache_stats.misses);
    m["workload.trace_cache_mb"] = cache_stats.bytes / 1e6;

    double mpki_err = 0.0;
    unsigned mpki_n = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double paper = paperMpki(jobs[i].workload);
        if (jobs[i].config.prefetcher.kind != PrefetcherKind::None ||
            paper == 0.0 || !outcomes[i].ok())
            continue;
        mpki_err +=
            std::abs(outcomes[i].result.llcMpki() - paper) / paper;
        ++mpki_n;
    }
    m["sim.paper_mpki_err"] = ratio(mpki_err, mpki_n);
    return inSpecOrder(m);
}

TracedRun
runTraced(const std::vector<SweepJob> &jobs, std::uint64_t seed,
          unsigned threads, const Reference &reference)
{
    TracedRun run;
    std::map<std::string, double> m;
    bingo::TraceCache &trace_cache = bingo::TraceCache::instance();

    // The jobs with recording hooks, each followed by its layer
    // replays, on the same number of threads as the timed sweep.
    std::vector<JobTrace> traces(jobs.size());
    const auto traced_start = Clock::now();
    {
        bingo::ThreadPool pool(threads);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            pool.submit([&, i] {
                try {
                    traces[i] = traceJob(jobs[i], i, seed, reference);
                } catch (const std::exception &e) {
                    traces[i].error = e.what();
                }
            });
        }
        pool.wait();
    }
    run.wall_seconds = secondsSince(traced_start);
    const std::uint64_t traced_generated =
        trace_cache.stats().records_generated;
    run.attempted = jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!traces[i].error.empty() || !traces[i].matches) {
            ++run.failed;
            run.problems.push_back(
                jobLabel(jobs[i]) + ": traced run " +
                (traces[i].error.empty()
                     ? "result differs from the reference"
                     : traces[i].error));
        }
    }
    if (run.failed > 0)
        return run;

    // Trace generation and replay, per distinct (workload, core, seed)
    // stream of the sweep.
    Timed gen, replay;
    std::set<std::tuple<std::string, bingo::CoreId, std::uint64_t>>
        streams;
    for (const SweepJob &job : jobs) {
        for (bingo::CoreId c = 0; c < job.config.num_cores; ++c)
            streams.emplace(job.workload, c, job.options.seed);
    }
    std::vector<bingo::TraceRecord> buffer(kStreamReplayRecords);
    for (const auto &[workload, core, stream_seed] : streams) {
        {
            auto source = bingo::makeWorkload(workload, core, stream_seed);
            const auto start = Clock::now();
            source->nextBatch(buffer.data(), buffer.size());
            gen.add({secondsSince(start), buffer.size()});
        }
        // The first source fills the shared buffer and keeps it
        // referenced, so the second one times a pure replay.
        auto filler = bingo::acquireWorkloadSource(workload, core,
                                                   stream_seed, true);
        filler->nextBatch(buffer.data(), buffer.size());
        auto source = bingo::acquireWorkloadSource(workload, core,
                                                   stream_seed, true);
        const auto start = Clock::now();
        source->nextBatch(buffer.data(), buffer.size());
        replay.add({secondsSince(start), buffer.size()});
    }
    m["workload.gen_ns_per_record"] = gen.nsPerOp();
    m["workload.replay_ns_per_record"] = replay.nsPerOp();

    // Layer sums over jobs.
    Timed l1d, llc, dram, core;
    std::map<PrefetcherKind, Timed> prefetch;
    std::map<PrefetcherKind, bingo::CacheStats> pf_llc;
    std::vector<double> build_ms;
    double core_l1d = 0.0, sim_s = 0.0, ipc_sum = 0.0, cores = 0.0;
    double skipped = 0.0, cycles = 0.0, instructions = 0.0;
    double l1d_hits = 0.0, l1d_accesses = 0.0;
    double llc_hits = 0.0, llc_accesses = 0.0, llc_misses = 0.0;
    double llc_stalls = 0.0, llc_evictions = 0.0;
    double row_hits = 0.0, row_total = 0.0, dram_reads = 0.0;
    double queue_delay = 0.0, pf_drops = 0.0, pf_requests = 0.0;
    for (const JobTrace &t : traces) {
        const RunResult &r = t.result;
        l1d.add(t.l1d);
        llc.add(t.llc);
        dram.add(t.dram);
        core.add(t.core);
        core_l1d += static_cast<double>(t.core_l1d_accesses);
        if (r.kind != PrefetcherKind::None) {
            prefetch[r.kind].add(t.prefetch);
            bingo::CacheStats &s = pf_llc[r.kind];
            s.useful_prefetches += r.llc.useful_prefetches;
            s.useless_prefetches += r.llc.useless_prefetches;
            s.late_useful_prefetches += r.llc.late_useful_prefetches;
            s.demand_misses += r.llc.demand_misses;
            pf_drops += static_cast<double>(r.llc.prefetch_drops);
            pf_requests += static_cast<double>(r.llc.prefetch_requests);
        }
        build_ms.push_back(t.build_s * 1e3);
        sim_s += t.sim_s;
        ipc_sum += r.ipcSum();
        cores += static_cast<double>(r.core_ipc.size());
        skipped += static_cast<double>(t.skipped);
        cycles += static_cast<double>(t.cycles);
        instructions += static_cast<double>(r.instructions);
        l1d_hits += static_cast<double>(r.l1d.demand_hits);
        l1d_accesses += static_cast<double>(r.l1d.demand_accesses);
        llc_hits += static_cast<double>(r.llc.demand_hits);
        llc_accesses += static_cast<double>(r.llc.demand_accesses);
        llc_misses += static_cast<double>(r.llc.demand_misses);
        llc_stalls += static_cast<double>(r.llc.mshr_stall_fetches);
        llc_evictions += static_cast<double>(r.llc.evictions);
        row_hits += static_cast<double>(r.dram.row_hits);
        row_total += static_cast<double>(
            r.dram.row_hits + r.dram.row_misses + r.dram.row_conflicts);
        dram_reads += static_cast<double>(r.dram.reads);
        queue_delay += static_cast<double>(r.dram.queue_delay_cycles);
    }

    const double l1d_ns = l1d.nsPerOp();
    const double core_ns =
        ratio(core.seconds * 1e9 - core_l1d * l1d_ns,
              static_cast<double>(core.ops));
    m["core.ns_per_instr"] = core_ns;
    m["core.ipc"] = ratio(ipc_sum, cores);
    m["cache.l1d_ns_per_access"] = l1d_ns;
    m["cache.llc_ns_per_access"] = llc.nsPerOp();
    m["cache.l1d_hit_frac"] = ratio(l1d_hits, l1d_accesses);
    m["cache.llc_hit_frac"] = ratio(llc_hits, llc_accesses);
    m["cache.llc_mshr_stall_frac"] = ratio(llc_stalls, llc_misses);
    m["cache.llc_evictions_per_kinstr"] =
        ratio(llc_evictions * 1e3, instructions);
    m["mem.dram_ns_per_read"] = dram.nsPerOp();
    m["mem.row_hit_frac"] = ratio(row_hits, row_total);
    m["mem.queue_delay_per_read"] = ratio(queue_delay, dram_reads);
    m["mem.reads_per_kinstr"] = ratio(dram_reads * 1e3, instructions);
    for (const auto &[kind, name] : reportedPrefetchers()) {
        const std::string prefix = std::string("prefetch.") + name + ".";
        const bingo::CacheStats &s = pf_llc[kind];
        const double useful = static_cast<double>(s.useful_prefetches);
        m[prefix + "ns_per_access"] = prefetch[kind].nsPerOp();
        m[prefix + "accuracy"] = ratio(
            useful, useful + static_cast<double>(s.useless_prefetches));
        m[prefix + "coverage"] = ratio(
            useful, useful + static_cast<double>(s.demand_misses));
        m[prefix + "late_frac"] = ratio(
            static_cast<double>(s.late_useful_prefetches), useful);
    }
    m["prefetch.drop_frac"] = ratio(pf_drops, pf_requests);
    m["sim.skipped_cycle_frac"] = ratio(skipped, cycles);
    m["sim.build_ms"] = median(build_ms);

    // Host time the replays account for, scaled from the recorded
    // windows to whole runs, against the traced simulations' time.
    double attributed = static_cast<double>(traced_generated) *
                        gen.nsPerOp() * 1e-9;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobTrace &t = traces[i];
        const double instrs = static_cast<double>(
            quotaInstructions({jobs[i]}));
        double ns = instrs * (core_ns + replay.nsPerOp()) +
                    static_cast<double>(t.l1d_accesses) * l1d_ns +
                    static_cast<double>(t.llc_accesses) *
                        (llc.nsPerOp() +
                         prefetch[t.result.kind].nsPerOp()) +
                    static_cast<double>(t.dram_reads) * dram.nsPerOp();
        attributed += ns * 1e-9;
    }
    m["sim.unattributed_frac"] = 1.0 - ratio(attributed, sim_s);

    run.metrics = inSpecOrder(m);
    return run;
}

} // namespace perfbench

/**
 * @file
 * Top-level simulated system: cores x private L1Ds x shared LLC x DRAM,
 * with one prefetcher per core attached at the LLC (paper Section V:
 * "every core has its own prefetcher ... all methods are triggered upon
 * LLC accesses and prefetch directly into the LLC").
 */

#ifndef BINGO_SIM_SYSTEM_HPP
#define BINGO_SIM_SYSTEM_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "chaos/chaos.hpp"
#include "chaos/guarded_prefetcher.hpp"
#include "chaos/shadow_memory.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/periodic_gate.hpp"
#include "core/ooo_core.hpp"
#include "mem/dram.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/translation.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/generator.hpp"

namespace bingo
{

class TraceReadPlan;

/** A complete simulated machine running one workload. */
class System
{
  public:
    /**
     * Build the system for `workload` (a Table II name). Trace sources
     * are created per core from `config.seed`.
     */
    System(const SystemConfig &config, const std::string &workload);

    /** Build the system around caller-provided per-core sources. */
    System(const SystemConfig &config,
           std::vector<std::unique_ptr<TraceSource>> sources);

    /**
     * Announce to `plan` the trace streams System(config, workload)
     * will acquire, one per core.
     */
    static void planTraceReaders(const SystemConfig &config,
                                 const std::string &workload,
                                 TraceReadPlan &plan);

    /**
     * Simulate `warmup_instructions` per core (warming caches and
     * predictor tables), reset all statistics, then simulate
     * `measure_instructions` per core. Cores that reach their quota
     * keep running until every core has finished, preserving
     * contention, as in ChampSim.
     */
    void run(std::uint64_t warmup_instructions,
             std::uint64_t measure_instructions);

    /**
     * Incremental-run driver, part one: arm the same warmup/measure
     * sequence run() executes, without driving it. Pair with
     * advance() — run() is exactly beginRun() followed by advance()
     * to completion, and the phase machinery walks identical state
     * transitions however the advance() calls are sliced, so results
     * are bit-identical to a monolithic run(). This is what lets the
     * batched sweep runner interleave several Systems on one worker
     * thread (sim/experiment.hpp, BINGO_BATCH).
     */
    void beginRun(std::uint64_t warmup_instructions,
                  std::uint64_t measure_instructions);

    /**
     * Drive the run armed by beginRun() through at most
     * `max_iterations` main-loop iterations (one iteration is one
     * stepped or one fast-forwarded stretch of the clock). Returns
     * true once the whole run — warmup and measure — has completed;
     * further calls are no-ops that keep returning true.
     */
    bool advance(std::uint64_t max_iterations);

    /** True once the beginRun() run has completed (or none began). */
    bool runDone() const { return stage_ == RunStage::Done; }

    const SystemConfig &config() const { return config_; }
    Cycle now() const { return now_; }

    OooCore &core(CoreId i) { return *cores_[i]; }
    const OooCore &core(CoreId i) const { return *cores_[i]; }
    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }
    Cache &l1d(CoreId i) { return *l1ds_[i]; }
    DramController &dram() { return *dram_; }
    const DramController &dram() const { return *dram_; }

    /**
     * Per-core prefetcher *model*; nullptr when kind is None. Models
     * are wrapped in a GuardedPrefetcher for fault isolation — this
     * returns the wrapped model so tests and event-study benches keep
     * seeing the concrete type.
     */
    Prefetcher *prefetcher(CoreId i)
    {
        return guards_[i] != nullptr ? guards_[i]->inner()
                                     : prefetchers_[i].get();
    }

    /** The quarantine wrapper of core `i`; nullptr when kind is None. */
    chaos::GuardedPrefetcher *guard(CoreId i) { return guards_[i]; }

    /** True when any core's prefetcher was quarantined mid-run. */
    bool anyQuarantined() const;

    /**
     * Human-readable quarantine verdict, e.g.
     * "pf0: Bingo: chaos-injected prefetcher fault @cycle 1234".
     * Empty when no prefetcher is quarantined.
     */
    std::string quarantineReport() const;

    /** The run's fault plan; nullptr unless config.chaos.enabled. */
    chaos::ChaosEngine *chaosEngine() { return chaos_.get(); }
    const chaos::ChaosEngine *chaosEngine() const
    {
        return chaos_.get();
    }

    /** The functional shadow model; nullptr unless BINGO_CHECK. */
    chaos::ShadowMemory *shadow() { return shadow_.get(); }

    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /**
     * Watchdog: arm a wall-clock deadline checked periodically during
     * run(). When the deadline passes, the simulation throws
     * SimError("watchdog", ...) carrying each core's instruction
     * progress, so a hung run is reported instead of wedging its
     * worker thread forever.
     */
    void setDeadline(std::chrono::steady_clock::time_point deadline);

    /**
     * Run the BINGO_CHECK structural invariants of every component
     * (caches, MSHRs, DRAM) once, regardless of the env switch.
     */
    void checkInvariants() const;

    /**
     * Opt into telemetry: attach the prefetch lifecycle tracker to
     * the LLC and register every component's probes. Must be called
     * before run(). A system without telemetry pays exactly one
     * null-pointer branch at each observation site.
     */
    void enableTelemetry(const telemetry::Options &options);

    /** The run's telemetry; nullptr unless enableTelemetry'd. */
    telemetry::Telemetry *telemetry() { return telemetry_.get(); }
    const telemetry::Telemetry *telemetry() const
    {
        return telemetry_.get();
    }

    /** Current counter values in epoch-snapshot form. */
    telemetry::EpochSnapshot telemetrySnapshot() const;

    /**
     * Enable or disable event-driven cycle skipping. On (the default
     * unless the BINGO_NO_SKIP environment variable is set), the run
     * loop fast-forwards through windows in which every core is
     * provably stalled and no event is due, applying the skipped
     * cycles' bookkeeping in bulk; results are bit-identical to the
     * stepped loop. Off is the escape hatch for debugging and for the
     * CI equivalence diff.
     */
    void setCycleSkipping(bool enabled) { skip_enabled_ = enabled; }

    /**
     * Test seam: override the BINGO_NO_SKIP-derived default that
     * build() installs into every subsequently constructed System
     * (the env variable is latched on first read, so tests that need
     * both modes in one process cannot use setenv). std::nullopt
     * restores the environment-derived default. Not thread-safe;
     * call only while no sweep is running.
     */
    static void setCycleSkippingDefault(std::optional<bool> enabled);

    /** Whether the fast-forward path is active. */
    bool cycleSkippingEnabled() const { return skip_enabled_; }

    /** Cycles the run loop jumped over instead of stepping. */
    std::uint64_t skippedCycles() const { return skipped_cycles_; }

  private:
    /**
     * Wire up memory hierarchy, cores and chaos around `sources`.
     * `pre_translated` marks streams already carrying physical
     * addresses (acquired from the trace cache's translated mode), so
     * no per-replay translation wrapper is layered on; it is only
     * ever set when trace-site chaos is off.
     */
    void build(std::vector<std::unique_ptr<TraceSource>> sources,
               bool pre_translated = false);

    /** Stage of the beginRun()/advance() state machine. */
    enum class RunStage : std::uint8_t
    {
        Idle,     ///< No run armed yet.
        Warmup,   ///< Driving the warmup phase.
        Measure,  ///< Driving the measurement phase.
        Done      ///< Run complete; advance() is a no-op.
    };

    /** Advance until every core's measurement quota is met. */
    void runPhase(std::uint64_t instructions, const char *phase);

    /** Arm one phase: reset cores/gates/telemetry for `instructions`. */
    void beginPhase(std::uint64_t instructions, const char *phase);

    /**
     * Drive the armed phase through at most `budget` loop iterations;
     * true when every core has met its quota. Gate/progress state
     * persists in members between calls, hoisted into locals for the
     * duration of the loop.
     */
    bool advancePhase(std::uint64_t budget);

    /** Close the armed phase (final checks, telemetry epoch end). */
    void finishPhase();

    /** Reset measurement-window stats and arm the measure phase. */
    void beginMeasurePhase();

    /** True when every core has retired its measurement quota. */
    bool allMeasurementsDone() const;

    /** Close the telemetry epoch when its boundary was crossed. */
    void sampleEpochIfDue();

    /** Throw the watchdog SimError with per-core progress. */
    [[noreturn]] void reportWatchdogExpiry() const;

    /**
     * Throw when the fast-forward path proves no component can ever
     * make progress again (live cores, no pending events, idle DRAM) —
     * the condition the stepped loop would spin on forever.
     */
    [[noreturn]] void reportDeadlock() const;

    SystemConfig config_;
    EventQueue events_;
    AddressTranslator translator_{0};
    /// Declared before sources_: ChaosTraceSources hold a counter
    /// pointer into the engine, so the engine must outlive them
    /// (members destroy in reverse declaration order).
    std::unique_ptr<chaos::ChaosEngine> chaos_;
    std::unique_ptr<chaos::ShadowMemory> shadow_;
    std::unique_ptr<DramController> dram_;
    std::unique_ptr<DramLower> dram_lower_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<CacheLower> llc_lower_;
    std::vector<std::unique_ptr<TraceSource>> sources_;
    std::vector<std::unique_ptr<Cache>> l1ds_;
    std::vector<std::unique_ptr<OooCore>> cores_;
    std::vector<std::unique_ptr<Prefetcher>> prefetchers_;
    /// Non-owning view of prefetchers_ as quarantine wrappers
    /// (nullptr where kind is None).
    std::vector<chaos::GuardedPrefetcher *> guards_;
    std::vector<Addr> candidate_buffer_;
    Cycle now_ = 0;
    std::chrono::steady_clock::time_point deadline_{};
    bool deadline_armed_ = false;
    bool skip_enabled_ = true;           ///< See setCycleSkipping().
    std::uint64_t skipped_cycles_ = 0;   ///< Jumped, never stepped.
    /// Cached OooCore::nextWakeCycle() per core, valid until the
    /// core's wakeDirty flag reports a completion landed.
    std::vector<Cycle> core_wake_;
    std::unique_ptr<telemetry::Telemetry> telemetry_;
    // --- beginRun()/advance() state, persisted between slices ---
    RunStage stage_ = RunStage::Idle;
    std::uint64_t measure_instrs_ = 0;   ///< For the measure phase.
    bool phase_checks_ = false;          ///< BINGO_CHECK this phase.
    bool phase_pausing_ = false;         ///< Watchdog/check pauses on.
    std::optional<PeriodicGate> check_gate_;
    std::optional<PeriodicGate> epoch_gate_;
    std::size_t done_cores_ = 0;         ///< Cores past their quota.
};

} // namespace bingo

#endif // BINGO_SIM_SYSTEM_HPP

/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * A first-order OoO model in the ChampSim tradition: instructions enter
 * a ROB at the dispatch width, loads issue to the L1D immediately on
 * dispatch (modelling full out-of-order issue within the window,
 * bounded by LSQ and L1 MSHR capacity), and instructions retire in
 * order at the retire width once complete. This captures the
 * behaviours the paper's evaluation depends on: memory-level
 * parallelism limited by ROB/LSQ occupancy, and stalls when the window
 * fills behind a long-latency miss — exactly what prefetching relieves.
 */

#ifndef BINGO_CORE_OOO_CORE_HPP
#define BINGO_CORE_OOO_CORE_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "common/sim_check.hpp"
#include "common/types.hpp"

namespace bingo
{

/**
 * Append `op` after the `count` ops in `out`, folding it into a bare
 * run that ends them, so runs split across pieces come back together.
 * Returns the new op count.
 */
inline std::size_t
appendOp(TraceOp *out, std::size_t count, const TraceOp &op)
{
    if (count > 0 && out[count - 1].type == InstrType::Alu) {
        TraceOp &last = out[count - 1];
        const std::uint32_t alu = last.alu + op.alu;
        last = op;
        last.alu = alu;
        return count;
    }
    out[count] = op;
    return count + 1;
}

/**
 * Read position inside a stored op sequence that a pull may end in
 * the middle of: the ALU instructions of the current op already handed
 * out.
 */
class OpCursor
{
  public:
    /**
     * Append ops from `src[0, avail)` to `out` (holding `count` ops)
     * until `instructions` more are covered or `src` runs out, and
     * lower `instructions` by what was covered. An op longer than
     * what is left is split: its leading ALU instructions go out as a
     * bare run and the rest stays for the next call. Returns how many
     * ops of `src` were used up.
     */
    std::size_t
    take(const TraceOp *src, std::size_t avail, TraceOp *out,
         std::size_t &count, std::size_t &instructions)
    {
        std::size_t used = 0;
        while (used < avail && instructions > 0) {
            TraceOp op = src[used];
            op.alu -= skip_;
            if (op.instructions() > instructions) {
                // Only a run can straddle the cut: the op has at
                // least `instructions` ALU instructions left.
                const auto run = static_cast<std::uint32_t>(instructions);
                count = appendOp(out, count, TraceOp{0, 0, run});
                skip_ += run;
                instructions = 0;
                break;
            }
            count = appendOp(out, count, op);
            instructions -= op.instructions();
            skip_ = 0;
            ++used;
        }
        return used;
    }

  private:
    std::uint32_t skip_ = 0;
};

/**
 * Pull-based instruction stream feeding a core.
 *
 * A stream can be read two ways. nextOps() is the pipeline's own: it
 * hands out TraceOps, so a run of non-memory instructions costs one
 * op however long it is; the core, the trace cache and every
 * generator-side layer move the stream this way. next() and
 * nextBatch() expand the same stream into one TraceRecord per
 * instruction, for trace files, tests and tools that want records.
 * Sources are infinite: generators run forever and file replay wraps.
 *
 * Sources that store records (trace files, test scripts) implement
 * next() only and inherit an op pull built on it. Sources that store
 * ops derive from OpTraceSource, which expands records from
 * nextOps().
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next instruction of this core's trace. */
    virtual TraceRecord next() = 0;

    /**
     * Fill `out` with the next `count` records: exactly the sequence
     * `count` next() calls would produce.
     */
    virtual void
    nextBatch(TraceRecord *out, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            out[i] = next();
    }

    /**
     * Write ops covering exactly the next `instructions` instructions
     * to `out` and return how many were written. A run that crosses
     * the cut is split; the rest opens the next pull. `out` must hold
     * `instructions` ops (every op covers at least one instruction),
     * and `instructions` must be below 2^32. Whatever storage the
     * source used is its own again once the call returns.
     */
    virtual std::size_t
    nextOps(TraceOp *out, std::size_t instructions)
    {
        std::size_t count = 0;
        for (std::size_t i = 0; i < instructions; ++i) {
            const TraceRecord rec = next();
            count = appendOp(out, count,
                             rec.type == InstrType::Alu
                                 ? TraceOp{0, 0, 1}
                                 : TraceOp{rec.pc, rec.addr, 0, rec.type,
                                           rec.dependent});
        }
        return count;
    }
};

/**
 * Base of the sources whose native unit is the op: next() and
 * nextBatch() expand records from nextOps(), with non-memory
 * instructions at pc 0.
 */
class OpTraceSource : public TraceSource
{
  public:
    TraceRecord
    next() override
    {
        TraceOp op;
        nextOps(&op, 1);
        return record(op);
    }

    void
    nextBatch(TraceRecord *out, std::size_t count) override
    {
        // Raw storage: nextOps() writes every op it returns, so the
        // buffer needs no per-call initialization.
        constexpr std::size_t kPiece = 256;
        alignas(TraceOp) std::byte raw[kPiece * sizeof(TraceOp)];
        TraceOp *ops = reinterpret_cast<TraceOp *>(raw);
        while (count > 0) {
            const std::size_t piece = count < kPiece ? count : kPiece;
            const std::size_t n = nextOps(ops, piece);
            for (std::size_t i = 0; i < n; ++i) {
                out = std::fill_n(out, ops[i].alu, TraceRecord{});
                if (ops[i].type != InstrType::Alu)
                    *out++ = record(ops[i]);
            }
            count -= piece;
        }
    }

    std::size_t nextOps(TraceOp *out,
                        std::size_t instructions) override = 0;

  private:
    /** The record of `op`'s explicit instruction (a bare one if none). */
    static TraceRecord
    record(const TraceOp &op)
    {
        return TraceRecord{op.pc, op.addr, op.type, op.dependent};
    }
};

/** Counters exported by a core. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t cycles = 0;
    std::uint64_t rob_full_cycles = 0;
    std::uint64_t lsq_full_cycles = 0;
};

/** One simulated out-of-order core. */
class OooCore
{
  public:
    OooCore(CoreId id, const CoreConfig &config, Cache &l1d,
            TraceSource &trace);

    /** Advance one cycle: retire, then dispatch. */
    void step(Cycle now);

    /**
     * Earliest cycle after `now` at which step() may touch state
     * outside the core's private window, given the core's state at
     * the end of cycle `now` and no completion callback in between
     * (the run loop bounds the jump by the event queue separately,
     * and a callback that can move the wake flags wakeDirty()). It is
     * the earliest of:
     *  - the cycle dispatch reaches the next Load/Store (it issues to
     *    the L1D or is held at a full LSQ) or the end of the fetched
     *    op batch (the next nextOps() pull);
     *  - the cycle retirement could reach the measurement quota;
     *  - the cycle the ROB fills behind an in-flight head;
     *  - while stalled (ROB full, or a memory op held at a full LSQ),
     *    the head's timed retirement; kNeverCycle when only a
     *    callback can unblock the core, or once the quota is met.
     * Before it, non-memory runs and branches dispatch exactly
     * `width` per cycle and retire in order, or the core stalls:
     * private bookkeeping that syncTo() applies lazily. Conservative
     * by contract: never later than the true wake. Defined inline
     * below: the run loop evaluates it after every step.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /**
     * Apply the cycles after the last stepped or synced one through
     * `through` (no-op when the cursor is already there), exactly as
     * step() would have. The run loop skips stepping a core whose
     * nextWakeCycle() lies ahead, so the core catches up lazily:
     * step() syncs before acting, a completion callback that can move
     * the wake syncs before mutating state (any other one only stamps
     * a completion cycle, which the window reads as such), and the
     * run loop syncs every core before it reads their counters. Only
     * valid for cycles before the wake; crossing it throws SimError.
     */
    void
    syncTo(Cycle through)
    {
        if (through > now_)
            applyWindow(through);
    }

    /**
     * True when a completion callback landed since the last step that
     * may have moved the wake earlier: the cached nextWakeCycle()
     * bound no longer holds and the run loop must re-derive it.
     */
    bool wakeDirty() const { return wake_dirty_; }
    void clearWakeDirty() { wake_dirty_ = false; }

    /**
     * Begin a measurement interval of `instructions` retired
     * instructions starting now. Also clears the core's counters.
     */
    void startMeasurement(std::uint64_t instructions, Cycle now);

    /** True once the measurement quota has been retired. */
    bool measurementDone() const { return measurement_done_; }

    /** Cycle at which the measurement quota was reached. */
    Cycle completionCycle() const { return completion_cycle_; }

    /** Instructions retired during the measurement interval. */
    std::uint64_t measuredInstructions() const
    {
        return stats_.instructions;
    }

    /** Measured IPC (valid once measurementDone()). */
    double ipc() const;

    const CoreStats &stats() const { return stats_; }
    CoreId id() const { return id_; }

    /** Instructions in the ROB. */
    std::uint64_t robOccupancy() const { return rob_tail_ - rob_head_; }

    /** Memory instructions holding an LSQ entry. */
    unsigned lsqOccupancy() const { return lsq_used_; }

    /** Register counters and window-occupancy probes ("core<id>."). */
    void registerTelemetry(telemetry::Registry &registry) const;

  private:
    /// The typed completion record dispatches LoadFill/StoreRelease
    /// completions straight into completeLoad()/completeStore().
    friend class Completion;

    /// What a ROB slot holds besides its completion cycle; only load
    /// and branch dispatch write it.
    struct RobSlot
    {
        std::uint64_t seq = 0;
        /// Dependent loads waiting for this load's data before issuing.
        std::vector<std::pair<std::uint64_t, MemAccess>> deferred;
    };

    void retire(Cycle now);
    void dispatch(Cycle now);

    /**
     * syncTo() past the cursor: a core-local replay of retire() and
     * dispatch() restricted to what can happen before the wake, with
     * stall stretches counted at once.
     */
    void applyWindow(Cycle through);

    /**
     * Instructions dispatch can take from the fetched batch before it
     * reaches a Load/Store or the batch end: the run and branches
     * ahead of the next stop.
     */
    std::uint64_t runBudget() const;

    /** `count / width`: a shift for the usual power-of-two width. */
    std::uint64_t
    perWidth(std::uint64_t count) const
    {
        return width_shift_ >= 0 ? count >> width_shift_
                                 : count / config_.width;
    }

    /** Throw: a lazily applied cycle reached past the core's wake. */
    [[noreturn]] void windowOverrun(Cycle now, const char *what) const;

    /**
     * Fill arrived for ROB sequence `seq`: mark the slot complete,
     * free its LSQ entry and release any dependent loads. Defined
     * inline below — it is the LoadFill branch of the typed completion
     * dispatch, invoked once per load miss/hit from the cache layer.
     */
    void completeLoad(std::uint64_t seq, Cycle when);

    /**
     * Store write-completion: free the LSQ entry modelling the store
     * buffer. The StoreRelease branch of the typed completion
     * dispatch; inline below.
     */
    void completeStore(Cycle when);

    /** Send a load to the L1D, completing its ROB slot on fill. */
    void issueLoad(std::uint64_t seq, const MemAccess &access,
                   Cycle now);

    CoreId id_;
    CoreConfig config_;
    /// log2 of the width when it is a power of two, else -1.
    int width_shift_ = -1;
    Cache &l1d_;
    TraceSource &trace_;

    /// Instructions read ahead from the trace in one nextOps() call.
    /// Chaos trace corruption draws per instruction pulled, so this
    /// granularity is part of every fault schedule.
    static constexpr std::size_t kFetchBatch = 64;

    /// ROB storage, sized to the next power of two above the
    /// configured capacity so slot indexing is a mask instead of a
    /// modulo (three hot paths index per instruction). Occupancy is
    /// still bounded by rob_capacity_, so FIFO distance never exceeds
    /// the storage span and seq & rob_mask_ cannot alias live slots.
    std::vector<RobSlot> rob_;
    /// Per slot, the cycle the instruction's result is ready;
    /// kNeverCycle while it is in flight. Kept apart from rob_ so that
    /// retirement and run dispatch, which touch nothing else, walk a
    /// dense array.
    std::vector<Cycle> rob_done_;
    std::uint64_t rob_mask_ = 0;      ///< rob_.size() - 1.
    std::uint64_t rob_capacity_ = 0;  ///< Configured logical capacity.
    std::uint64_t rob_head_ = 0;  ///< Sequence number of oldest entry.
    std::uint64_t rob_tail_ = 0;  ///< Sequence number of next entry.
    unsigned lsq_used_ = 0;
    std::uint64_t last_load_seq_ = 0;
    bool has_last_load_ = false;
    /// Fetched ops; dispatch lowers the head op's `alu` as it
    /// dispatches the run in place.
    std::array<TraceOp, kFetchBatch> fetch_ops_;
    std::uint32_t fetch_pos_ = 0;  ///< Next undispatched op.
    std::uint32_t fetch_end_ = 0;  ///< One past the last fetched op.
    /// The explicit memory instruction of fetch_ops_[fetch_pos_]
    /// reached dispatch and the LSQ blocked it.
    bool record_held_ = false;

    /// A completion callback arrived since the last step (see
    /// wakeDirty()). Starts true so a fresh core is always stepped.
    bool wake_dirty_ = true;

    CoreStats stats_;
    std::uint64_t measure_target_ = 0;
    Cycle measure_start_cycle_ = 0;
    Cycle completion_cycle_ = 0;
    bool measurement_done_ = false;
    Cycle now_ = 0;
};

inline std::uint64_t
OooCore::runBudget() const
{
    std::uint64_t run = 0;
    for (std::uint32_t i = fetch_pos_; i < fetch_end_; ++i) {
        const TraceOp &op = fetch_ops_[i];
        run += op.alu;
        if (op.type == InstrType::Branch)
            ++run;
        else if (op.type != InstrType::Alu || op.alu == 0)
            return run;  // A Load/Store (or a malformed empty op).
    }
    return run;
}

inline Cycle
OooCore::nextWakeCycle(Cycle now) const
{
    // A finished core only reacts to in-flight completions, which live
    // in the event queue.
    if (measurement_done_)
        return kNeverCycle;

    const std::uint64_t occupied = rob_tail_ - rob_head_;
    // kNeverCycle for an empty ROB or an in-flight head: nothing
    // retires until a callback, which re-derives the wake.
    const Cycle head_done =
        occupied > 0 ? rob_done_[rob_head_ & rob_mask_] : kNeverCycle;
    const bool lsq_held =
        record_held_ && lsq_used_ >= config_.lsq_entries;
    if (occupied >= rob_capacity_ || lsq_held) {
        // Stalled: dispatch waits for the head's retirement (and a held
        // memory op for a callback). A head that retires next cycle
        // frees the ROB at once, so that core flows on below.
        if (head_done == kNeverCycle || head_done > now + 1)
            return head_done;
    }

    Cycle wake = kNeverCycle;
    if (!lsq_held) {
        // Dispatch takes at most `width` per cycle, so it cannot reach
        // past `reach` instructions before cycle now + 1 + reach /
        // width. Behind an in-flight head nothing retires, so the ROB
        // fills after its free slots: a stall edge.
        std::uint64_t reach = runBudget();
        if (occupied > 0 && head_done == kNeverCycle)
            reach = std::min<std::uint64_t>(reach,
                                            rob_capacity_ - occupied);
        wake = now + 1 + perWidth(reach);
    }
    if (head_done != kNeverCycle || occupied == 0) {
        // Retirement, at most `width` per cycle from the head's
        // completion on, cannot reach the quota sooner.
        const std::uint64_t left = measure_target_ - stats_.instructions;
        const Cycle first =
            occupied == 0 ? now + 1 : std::max(head_done, now + 1);
        wake = std::min(wake, first + perWidth(left == 0 ? 0 : left - 1));
    }
    return wake;
}

inline void
OooCore::issueLoad(std::uint64_t seq, const MemAccess &access,
                   Cycle now)
{
    l1d_.access(access, now, Completion::loadFill(this, seq));
}

inline void
OooCore::completeLoad(std::uint64_t seq, Cycle when)
{
    // Fired from the event queue at cycle `when`. The completion cycle
    // is itself a timestamp a lazy window reads correctly, so the core
    // syncs first (applying the window under the pre-event state) and
    // re-derives its wake only where the event can change either: a
    // freed LSQ entry releases a held memory op, and completing the
    // ROB head resumes retirement. (The head cannot have moved since
    // the wake was derived while it was in flight.)
    if (record_held_ || seq == rob_head_) {
        if (when != 0)
            syncTo(when - 1);
        wake_dirty_ = true;
    }
    RobSlot &slot = rob_[seq & rob_mask_];
    if (slot.seq != seq)
        throw SimError("core" + std::to_string(id_), when,
                       "load completion for ROB sequence " +
                           std::to_string(seq) +
                           " found slot holding sequence " +
                           std::to_string(slot.seq));
    rob_done_[seq & rob_mask_] = when < now_ + 1 ? now_ + 1 : when;
    if (lsq_used_ == 0)
        throw SimError("core" + std::to_string(id_), when,
                       "load completion with no LSQ entry held");
    --lsq_used_;
    if (!slot.deferred.empty()) {
        // Release the pointer chasers waiting on this load's data.
        const auto waiting = std::move(slot.deferred);
        slot.deferred.clear();
        const Cycle issue = when < now_ ? now_ : when;
        for (const auto &[dep_seq, access] : waiting)
            issueLoad(dep_seq, access, issue);
    }
}

inline void
OooCore::completeStore(Cycle when)
{
    // Only a held memory op notices the freed LSQ slot; account the
    // window before it against the pre-release block reason.
    if (record_held_) {
        if (when != 0)
            syncTo(when - 1);
        wake_dirty_ = true;
    }
    if (lsq_used_ == 0)
        throw SimError("core" + std::to_string(id_), when,
                       "store completion with no LSQ entry held");
    --lsq_used_;
}

} // namespace bingo

#endif // BINGO_CORE_OOO_CORE_HPP

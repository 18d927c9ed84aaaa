#include "core/ooo_core.hpp"

#include <stdexcept>

#include "common/sim_check.hpp"
#include "telemetry/registry.hpp"

namespace bingo
{

namespace
{

std::uint64_t
nextPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

OooCore::OooCore(CoreId id, const CoreConfig &config, Cache &l1d,
                 TraceSource &trace)
    : id_(id), config_(config), l1d_(l1d), trace_(trace),
      rob_(nextPow2(config.rob_entries)),
      rob_mask_(rob_.size() - 1), rob_capacity_(config.rob_entries)
{
    if (config.rob_entries == 0 || config.width == 0)
        throw std::invalid_argument(
            "OooCore: rob_entries and width must be nonzero");
}

void
OooCore::step(Cycle now)
{
    // Lazily account any window the run loop skipped stepping this
    // core across (it was provably blocked throughout — callbacks
    // that changed that synced and flagged wakeDirty() already).
    if (now > now_ + 1)
        syncTo(now - 1);
    now_ = now;
    // A core that reached its quota idles (in-flight memory requests
    // still drain via callbacks): every statistic then covers exactly
    // the measurement interval, and a finished core neither pollutes
    // the shared LLC nor inflates aggregate miss counts while slower
    // cores complete.
    if (measurement_done_)
        return;
    ++stats_.cycles;
    retire(now);
    dispatch(now);
}

void
OooCore::fastForward(std::uint64_t cycles, Cycle last)
{
    // step() records its cycle even for a finished core (completion
    // callbacks clamp against it), so the cursor always moves.
    now_ = last;
    if (measurement_done_ || cycles == 0)
        return;
    // The skipped step() calls would each have counted one stall
    // cycle under the block reason that held for the whole window:
    // dispatch() checks ROB occupancy before the LSQ, so mirror that
    // priority.
    stats_.cycles += cycles;
    if (rob_tail_ - rob_head_ >= rob_capacity_)
        stats_.rob_full_cycles += cycles;
    else if (record_held_ && lsq_used_ >= config_.lsq_entries)
        stats_.lsq_full_cycles += cycles;
}

void
OooCore::retire(Cycle now)
{
    unsigned retired = 0;
    while (retired < config_.width && rob_head_ != rob_tail_) {
        RobSlot &slot = rob_[rob_head_ & rob_mask_];
        // kNeverCycle (in flight) is > now by construction, so one
        // compare covers both "incomplete" and "not ready yet".
        if (slot.done > now)
            break;
        ++rob_head_;
        ++retired;
        // The measurement interval counts exactly measure_target_
        // instructions; retirement continues afterwards (the core keeps
        // contending) without advancing the counters.
        if (!measurement_done_) {
            ++stats_.instructions;
            if (stats_.instructions >= measure_target_) {
                measurement_done_ = true;
                completion_cycle_ = now;
            }
        }
    }
}

void
OooCore::dispatch(Cycle now)
{
    unsigned dispatched = 0;
    bool noted_rob_full = false;
    bool noted_lsq_full = false;

    while (dispatched < config_.width) {
        const std::uint64_t occupied = rob_tail_ - rob_head_;
        if (occupied >= rob_capacity_) {
            if (!noted_rob_full) {
                ++stats_.rob_full_cycles;
                noted_rob_full = true;
            }
            break;
        }
        if (fetch_pos_ == fetch_end_) {
            fetch_end_ = static_cast<std::uint32_t>(
                trace_.nextOps(fetch_ops_.data(), kFetchBatch));
            fetch_pos_ = 0;
        }
        TraceOp &op = fetch_ops_[fetch_pos_];

        // A run of non-memory instructions dispatches as far as width
        // and ROB space allow in one pass: per slot only the
        // completion cycle is written. Equivalent to dispatching them
        // one by one: they touch neither the LSQ nor the
        // dependent-load state, and a slot's `seq` and `deferred` are
        // only ever read for load slots, which rewrite them at
        // dispatch.
        if (op.alu > 0) {
            std::uint64_t take = op.alu;
            if (take > config_.width - dispatched)
                take = config_.width - dispatched;
            if (take > rob_capacity_ - occupied)
                take = rob_capacity_ - occupied;
            const Cycle done = now + config_.alu_latency;
            for (std::uint64_t i = 0; i < take; ++i)
                rob_[(rob_tail_ + i) & rob_mask_].done = done;
            rob_tail_ += take;
            op.alu -= static_cast<std::uint32_t>(take);
            dispatched += static_cast<unsigned>(take);
            if (op.alu == 0 && op.type == InstrType::Alu)
                ++fetch_pos_;
            continue;
        }

        const bool is_mem = op.type == InstrType::Load ||
                            op.type == InstrType::Store;
        if (is_mem && lsq_used_ >= config_.lsq_entries) {
            record_held_ = true;
            if (!noted_lsq_full) {
                ++stats_.lsq_full_cycles;
                noted_lsq_full = true;
            }
            break;
        }
        if (op.type == InstrType::Alu)
            throw SimError("core" + std::to_string(id_), now,
                           "trace op covers no instruction");

        const std::uint64_t seq = rob_tail_++;
        RobSlot &slot = rob_[seq & rob_mask_];
        slot.seq = seq;
        slot.done = kNeverCycle;

        switch (op.type) {
          case InstrType::Alu:  // Rejected above.
            break;
          case InstrType::Branch:
            slot.done = now + config_.alu_latency;
            ++stats_.branches;
            break;
          case InstrType::Load: {
            ++stats_.loads;
            ++lsq_used_;
            slot.deferred.clear();
            MemAccess access;
            access.block = blockAlign(op.addr);
            access.pc = op.pc;
            access.core = id_;
            access.type = AccessType::Load;
            // A dependent load dereferences the previous load's data:
            // hold it until that load completes.
            bool deferred = false;
            if (op.dependent && has_last_load_) {
                RobSlot &prev = rob_[last_load_seq_ & rob_mask_];
                if (prev.seq == last_load_seq_ &&
                    prev.done == kNeverCycle) {
                    prev.deferred.emplace_back(seq, access);
                    deferred = true;
                }
            }
            if (!deferred)
                issueLoad(seq, access, now);
            last_load_seq_ = seq;
            has_last_load_ = true;
            break;
          }
          case InstrType::Store: {
            ++stats_.stores;
            ++lsq_used_;
            // Stores retire without waiting for the write to complete;
            // the LSQ entry models store-buffer pressure until then.
            slot.done = now + config_.alu_latency;
            MemAccess access;
            access.block = blockAlign(op.addr);
            access.pc = op.pc;
            access.core = id_;
            access.type = AccessType::Store;
            l1d_.access(access, now,
                        Completion::storeRelease(this));
            break;
          }
        }
        record_held_ = false;
        ++fetch_pos_;
        ++dispatched;
    }
}

void
OooCore::startMeasurement(std::uint64_t instructions, Cycle now)
{
    stats_ = CoreStats{};
    measure_target_ = instructions;
    measure_start_cycle_ = now;
    completion_cycle_ = 0;
    measurement_done_ = false;
    // The run loop may not have stepped this core for a while (lazy
    // skip of a finished or blocked core): re-base the cursor where a
    // cycle-by-cycle loop would have it, so the fresh counters never
    // absorb a stale gap.
    now_ = now == 0 ? 0 : now - 1;
    wake_dirty_ = true;
}

double
OooCore::ipc() const
{
    const Cycle cycles = completion_cycle_ - measure_start_cycle_;
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(measure_target_) /
           static_cast<double>(cycles);
}

void
OooCore::registerTelemetry(telemetry::Registry &registry) const
{
    registry.probeGroup(
        "core" + std::to_string(id_) + ".",
        [this](std::map<std::string, std::uint64_t> &out) {
            out["instructions"] = stats_.instructions;
            out["loads"] = stats_.loads;
            out["stores"] = stats_.stores;
            out["branches"] = stats_.branches;
            out["cycles"] = stats_.cycles;
            out["rob_full_cycles"] = stats_.rob_full_cycles;
            out["lsq_full_cycles"] = stats_.lsq_full_cycles;
            out["rob_occupancy"] = rob_tail_ - rob_head_;
            out["lsq_occupancy"] = lsq_used_;
        });
}

} // namespace bingo

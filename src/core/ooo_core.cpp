#include "core/ooo_core.hpp"

#include <bit>
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
      rob_done_(rob_.size(), kNeverCycle), rob_mask_(rob_.size() - 1),
      rob_capacity_(config.rob_entries)
{
    if (config.rob_entries == 0 || config.width == 0)
        throw std::invalid_argument(
            "OooCore: rob_entries and width must be nonzero");
    if (std::has_single_bit(config.width))
        width_shift_ = std::countr_zero(config.width);
}

void
OooCore::step(Cycle now)
{
    // Catch up the window the run loop skipped stepping this core
    // across (nothing in it reached past the core's private state;
    // callbacks that could change that synced and flagged
    // wakeDirty()).
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
OooCore::applyWindow(Cycle through)
{
    if (measurement_done_) {
        // step() records its cycle even for a finished core
        // (completion callbacks clamp against it).
        now_ = through;
        return;
    }
    // Before the wake, a cycle only retires timed slots and dispatches
    // non-memory instructions, or stalls. Replay that on local copies
    // of the ROB cursors; which fetched ops the dispatched slots came
    // from is settled once at the end. Only a callback frees an LSQ
    // entry, so a held memory op stays held throughout.
    const bool held = record_held_ && lsq_used_ >= config_.lsq_entries;
    const std::uint64_t width = config_.width;
    const Cycle latency = config_.alu_latency;
    const std::uint64_t first_seq = rob_tail_;
    std::uint64_t head = rob_head_;
    std::uint64_t tail = rob_tail_;
    std::uint64_t rob_full = 0;
    std::uint64_t lsq_full = 0;
    Cycle now = now_ + 1;
    // While the ROB has room at the start of a cycle, dispatch takes
    // `width` or what room is left (dispatch() notes the ROB full when
    // it runs out first).
    for (; !held && now <= through && tail - head < rob_capacity_;
         ++now) {
        const std::uint64_t ready = std::min(width, tail - head);
        std::uint64_t n = 0;
        while (n < ready && rob_done_[(head + n) & rob_mask_] <= now)
            ++n;
        head += n;
        const std::uint64_t take =
            std::min(width, rob_capacity_ - (tail - head));
        for (std::uint64_t i = 0; i < take; ++i)
            rob_done_[(tail + i) & rob_mask_] = now + latency;
        tail += take;
        rob_full += take < width ? 1 : 0;
    }
    if (now <= through) {
        // From here every cycle starts with the ROB full, or dispatch
        // held: a full ROB refills exactly what retires, so the cycles
        // matter only through their retirements. Walk those slot by
        // slot, at most `width` a cycle and none before the slot's
        // completion.
        const Cycle start = now;
        const bool start_full = tail - head >= rob_capacity_;
        Cycle first_retire = through + 1;
        std::uint64_t full_width = 0;  // Cycles that retired `width`.
        std::uint64_t used = 0;        // Retired so far in `now`.
        while (head != tail) {
            const Cycle done = rob_done_[head & rob_mask_];
            if (done > now) {
                if (done > through)
                    break;
                now = done;
                used = 0;
            }
            first_retire = std::min(first_retire, now);
            ++head;
            if (!held)
                rob_done_[tail++ & rob_mask_] = now + latency;
            if (++used == width) {
                ++full_width;
                used = 0;
                if (++now > through)
                    break;
            }
        }
        const std::uint64_t cycles = through + 1 - start;
        if (!held) {
            rob_full += cycles - full_width;  // Refilled short.
        } else {
            // Held: the ROB stays full only until it first retires.
            const std::uint64_t blocked =
                start_full ? first_retire - start : 0;
            rob_full += blocked;
            lsq_full += cycles - blocked;
        }
    }

    const std::uint64_t retired = head - rob_head_;
    if (retired > 0 && stats_.instructions + retired >= measure_target_)
        windowOverrun(through, "the measurement quota");
    // The dispatched slots come from the fetched run and its branches;
    // reaching a Load/Store or the batch end means the wake was late.
    for (std::uint64_t seq = first_seq; seq != tail;) {
        if (fetch_pos_ == fetch_end_)
            windowOverrun(through, "a trace pull");
        TraceOp &op = fetch_ops_[fetch_pos_];
        if (op.alu > 0) {
            const std::uint64_t take =
                std::min<std::uint64_t>(op.alu, tail - seq);
            op.alu -= static_cast<std::uint32_t>(take);
            seq += take;
            if (op.alu == 0 && op.type == InstrType::Alu)
                ++fetch_pos_;
            continue;
        }
        if (op.type != InstrType::Branch)
            windowOverrun(through, "a memory access");
        rob_[seq & rob_mask_].seq = seq;
        ++stats_.branches;
        record_held_ = false;
        ++fetch_pos_;
        ++seq;
    }
    rob_head_ = head;
    rob_tail_ = tail;
    stats_.instructions += retired;
    stats_.cycles += through - now_;
    stats_.rob_full_cycles += rob_full;
    stats_.lsq_full_cycles += lsq_full;
    now_ = through;
}

void
OooCore::windowOverrun(Cycle now, const char *what) const
{
    throw SimError("core" + std::to_string(id_), now,
                   std::string("lazily applied cycles reached ") + what +
                       " before the core's wake");
}

void
OooCore::retire(Cycle now)
{
    unsigned retired = 0;
    while (retired < config_.width && rob_head_ != rob_tail_) {
        // kNeverCycle (in flight) is > now by construction, so one
        // compare covers both "incomplete" and "not ready yet".
        if (rob_done_[rob_head_ & rob_mask_] > now)
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
                rob_done_[(rob_tail_ + i) & rob_mask_] = done;
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
        Cycle &done = rob_done_[seq & rob_mask_];
        slot.seq = seq;
        done = kNeverCycle;

        switch (op.type) {
          case InstrType::Alu:  // Rejected above.
            break;
          case InstrType::Branch:
            done = now + config_.alu_latency;
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
                    rob_done_[last_load_seq_ & rob_mask_] ==
                        kNeverCycle) {
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
            done = now + config_.alu_latency;
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
            out["rob_occupancy"] = robOccupancy();
            out["lsq_occupancy"] = lsqOccupancy();
        });
}

} // namespace bingo

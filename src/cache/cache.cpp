#include "cache/cache.hpp"

#include <algorithm>
#include <bitset>
#include <stdexcept>
#include <unordered_set>

#include "common/sim_check.hpp"
#include "common/simd.hpp"
#include "mem/dram.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/registry.hpp"

namespace bingo
{

Cache::Cache(std::string name, const CacheConfig &config,
             EventQueue &events, MemoryLower &lower)
    : name_(std::move(name)), config_(config), events_(events),
      lower_(lower), num_sets_(config.numSets()),
      way_tags_(num_sets_ * config.ways, kNoTag),
      way_repl_(num_sets_ * config.ways,
                config.replacement == ReplacementKind::Lru ? kInvalidRank
                                                           : 3),
      way_flags_(num_sets_ * config.ways, 0),
      set_filled_(num_sets_, 0),
      mshrs_(config.mshr_entries, name_ + ".mshr")
{
    if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0)
        throw std::invalid_argument(
            name_ + ": size_bytes/ways must give a nonzero "
                    "power-of-two number of sets (got " +
            std::to_string(num_sets_) + ")");
    if (config.ways > kInvalidRank)
        throw std::invalid_argument(name_ + ": at most 255 ways (got " +
                                    std::to_string(config.ways) + ")");
}

void
Cache::touchBlock(std::size_t first, std::size_t way)
{
    if (config_.replacement == ReplacementKind::Lru) {
        // Every way more recent than this one ages by a rank; invalid
        // ways (kInvalidRank) never do. Equivalent to stamping the way
        // with a fresh global tick: the ranks are the stamps' order,
        // MRU first. (`ways` and `rank` are locals so the byte stores
        // cannot alias them, which lets the loop vectorize.)
        const unsigned ways = config_.ways;
        std::uint8_t *rank = way_repl_.data() + first;
        const std::uint8_t old = rank[way - first];
        for (unsigned w = 0; w < ways; ++w)
            rank[w] += rank[w] < old ? 1 : 0;
        rank[way - first] = 0;
    } else if (config_.replacement == ReplacementKind::Srrip) {
        way_repl_[way] = 0;  // Near re-reference on a hit.
    }
}

void
Cache::hitBlock(std::size_t way, const MemAccess &access, Cycle now)
{
    touchBlock(setOf(access.block) * config_.ways, way);
    if (way_flags_[way] & kPrefetched) {
        way_flags_[way] &= ~kPrefetched;
        ++stats_.useful_prefetches;
        if (lifecycle_)
            lifecycle_->onDemandHit(access.block, now);
    }
    if (access.type == AccessType::Store)
        way_flags_[way] |= kDirty;
}

std::uint64_t
Cache::setOf(Addr block) const
{
    return blockNumber(block) & (num_sets_ - 1);
}

std::size_t
Cache::lookup(Addr block) const
{
    // Resident tags are unique per set and kNoTag never matches a
    // block address, so any hit the vector compare reports is THE hit.
    const std::uint64_t first = setOf(block) * config_.ways;
    const std::size_t w = simd::findEqual64(way_tags_.data() + first,
                                            config_.ways, block);
    return w == simd::kNpos ? simd::kNpos : first + w;
}

bool
Cache::contains(Addr block) const
{
    return lookup(block) != simd::kNpos;
}

std::uint64_t
Cache::residentBlocks() const
{
    std::uint64_t n = 0;
    for (const std::uint8_t filled : set_filled_)
        n += filled;
    return n;
}

void
Cache::addEvictionListener(EvictionListener listener)
{
    eviction_listeners_.push_back(std::move(listener));
}

void
Cache::forEachResident(
    const std::function<void(Addr block, bool dirty)> &fn) const
{
    for (std::size_t i = 0; i < way_tags_.size(); ++i) {
        if (way_tags_[i] != kNoTag)
            fn(way_tags_[i], (way_flags_[i] & kDirty) != 0);
    }
}

void
Cache::checkInvariants(Cycle now) const
{
    const auto fail = [&](const std::string &what) {
        throw SimError(name_, now, what);
    };
    if (mshrs_.size() > mshrs_.capacity())
        fail("MSHR occupancy " + std::to_string(mshrs_.size()) +
             " exceeds capacity " + std::to_string(mshrs_.capacity()));
    if (prefetch_queue_.size() > config_.prefetch_queue)
        fail("prefetch queue holds " +
             std::to_string(prefetch_queue_.size()) +
             " entries, bound is " +
             std::to_string(config_.prefetch_queue));

    const bool lru = config_.replacement == ReplacementKind::Lru;
    const bool srrip = config_.replacement == ReplacementKind::Srrip;
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const Addr *tags = way_tags_.data() + set * config_.ways;
        const std::uint8_t *repl = way_repl_.data() + set * config_.ways;
        std::bitset<kInvalidRank + 1> ranks;
        unsigned filled = 0;
        for (unsigned w = 0; w < config_.ways; ++w) {
            const bool valid = tags[w] != kNoTag;
            filled += valid ? 1 : 0;
            // LRU: valid ways hold distinct ranks below the fill count
            // (with the fill-count check below, a permutation of
            // 0..filled-1) and invalid ways kInvalidRank. SRRIP: every
            // RRPV is at most 3.
            if (lru ? (valid ? repl[w] >= set_filled_[set] ||
                                   ranks.test(repl[w])
                             : repl[w] != kInvalidRank)
                    : srrip && repl[w] > 3)
                fail(std::string(lru ? "LRU rank " : "RRPV ") +
                     std::to_string(repl[w]) + " out of place at way " +
                     std::to_string(w) + " of set " +
                     std::to_string(set));
            ranks.set(repl[w]);
            if (!valid)
                continue;
            if (setOf(tags[w]) != set)
                fail("resident block maps to set " +
                     std::to_string(setOf(tags[w])) +
                     " but lives in set " + std::to_string(set));
            for (unsigned v = w + 1; v < config_.ways; ++v) {
                if (tags[v] == tags[w])
                    fail("duplicate resident block in set " +
                         std::to_string(set));
            }
        }
        if (filled != set_filled_[set])
            fail("set " + std::to_string(set) + " holds " +
                 std::to_string(filled) +
                 " valid ways but the fill counter says " +
                 std::to_string(set_filled_[set]));
    }

    std::unordered_set<Addr> in_flight;
    mshrs_.forEach([&](const MshrEntry &entry) {
        if (!in_flight.insert(entry.block).second)
            fail("duplicate in-flight block");
        if (contains(entry.block))
            fail("block is both resident and in flight");
    });
    if (in_flight.size() != mshrs_.size())
        fail("MSHR occupancy count disagrees with live slots");

    // Drain invariant the run loop's fast-forward path relies on:
    // parked demands and queued prefetches only move when a fill
    // releases an MSHR, so either queue being nonempty means a fill
    // event is pending. An empty MSHR file alongside queued work would
    // leave the work stranded with no event to wake it.
    if ((!pending_.empty() || !prefetch_queue_.empty()) &&
        mshrs_.empty())
        fail("parked work (" + std::to_string(pending_.size()) +
             " demands, " + std::to_string(prefetch_queue_.size()) +
             " prefetches) with no in-flight MSHR to drain it");
}

void
Cache::access(const MemAccess &access, Cycle now, FillCallback done)
{
    if (access.type == AccessType::Prefetch)
        throw SimError(name_, now,
                       "prefetch presented to the demand access path");
    ++stats_.demand_accesses;

    if (const std::size_t way = lookup(access.block);
        way != simd::kNpos) {
        ++stats_.demand_hits;
        hitBlock(way, access, now);
        if (hook_)
            hook_(access, true, now);
        const Cycle ready = now + config_.hit_latency;
        events_.schedule(ready,
                         [done = std::move(done), ready] { done(ready); });
        return;
    }

    if (hook_)
        hook_(access, false, now);

    if (MshrEntry *entry = mshrs_.find(access.block)) {
        ++stats_.mshr_merges;
        if (entry->prefetch_origin) {
            // The prefetch was issued in time to overlap part of the
            // miss: covered, but late. Usefulness counts once per
            // block.
            ++stats_.late_prefetch_hits;
            if (!entry->demand_merged) {
                ++stats_.useful_prefetches;
                ++stats_.late_useful_prefetches;
                if (lifecycle_)
                    lifecycle_->onLateMerge(access.block, now);
            }
        } else {
            ++stats_.demand_misses;
        }
        entry->demand_merged = true;
        if (access.type == AccessType::Store)
            entry->store_merged = true;
        entry->callbacks.emplace_back(std::move(done), now);
        return;
    }

    ++stats_.demand_misses;
    if (mshrs_.full()) {
        ++stats_.mshr_stall_fetches;
        PendingFetch pending;
        pending.access = access;
        pending.arrival = now;
        pending.done = std::move(done);
        pending_.push_back(std::move(pending));
        return;
    }

    MshrEntry &entry =
        mshrs_.allocate(access.block, /*prefetch_origin=*/false,
                        access.core, now);
    entry.demand_merged = true;
    entry.store_merged = access.type == AccessType::Store;
    entry.callbacks.emplace_back(std::move(done), now);
    issueFetch(access, mshrs_.slotOf(entry), now);
}

bool
Cache::prefetchMshrAvailable() const
{
    // Leave a quarter of the MSHRs to demand traffic: a prefetcher
    // must not starve the misses it is supposed to hide.
    const std::size_t demand_reserve = config_.mshr_entries / 4;
    return mshrs_.size() + demand_reserve < mshrs_.capacity() &&
           pending_.empty();
}

void
Cache::prefetch(Addr block, Addr pc, CoreId core, Cycle now)
{
    ++stats_.prefetch_requests;
    // Chaos MSHR-occupancy spike: consulted exactly once per prefetch
    // request (so the fault schedule is per-opportunity), applied at
    // the headroom decision below. Demand traffic is never parked by
    // it, and drainPrefetchQueue() sees real occupancy only.
    const bool pressure_spike =
        mshr_pressure_hook_ && mshr_pressure_hook_();
    if (contains(block)) {
        ++stats_.prefetch_drops;
        ++stats_.prefetch_drop_present;
        return;
    }
    if (mshrs_.find(block) != nullptr) {
        ++stats_.prefetch_drops;
        ++stats_.prefetch_drop_inflight;
        return;
    }
    if (pressure_spike || !prefetchMshrAvailable()) {
        // Park in the prefetch queue (bounded); oldest-first issue as
        // MSHRs free up. When the queue is full the request is lost,
        // as in hardware.
        if (prefetch_queue_.size() < config_.prefetch_queue) {
            prefetch_queue_.push_back(QueuedPrefetch{block, pc, core});
        } else {
            ++stats_.prefetch_drops;
            ++stats_.prefetch_drop_mshr;
        }
        return;
    }
    MshrEntry &entry =
        mshrs_.allocate(block, /*prefetch_origin=*/true, core, now);
    if (lifecycle_)
        lifecycle_->onIssue(block, now);
    MemAccess access;
    access.block = block;
    access.pc = pc;
    access.core = core;
    access.type = AccessType::Prefetch;
    issueFetch(access, mshrs_.slotOf(entry), now);
}

void
Cache::drainPrefetchQueue(Cycle now)
{
    while (!prefetch_queue_.empty() && prefetchMshrAvailable()) {
        const QueuedPrefetch qp = prefetch_queue_.front();
        prefetch_queue_.pop_front();
        if (contains(qp.block)) {
            ++stats_.prefetch_drops;
            ++stats_.prefetch_drop_present;
            continue;
        }
        if (mshrs_.find(qp.block) != nullptr) {
            ++stats_.prefetch_drops;
            ++stats_.prefetch_drop_inflight;
            continue;
        }
        MshrEntry &entry = mshrs_.allocate(
            qp.block, /*prefetch_origin=*/true, qp.core, now);
        if (lifecycle_)
            lifecycle_->onIssue(qp.block, now);
        MemAccess access;
        access.block = qp.block;
        access.pc = qp.pc;
        access.core = qp.core;
        access.type = AccessType::Prefetch;
        issueFetch(access, mshrs_.slotOf(entry), now);
    }
}

void
Cache::issueFetch(const MemAccess &access, std::size_t slot, Cycle now)
{
    // Typed completion carrying only the 4-byte slot (the MSHR entry
    // carries the block): issuing a fetch allocates nothing, and the
    // fill dispatches straight back into handleFill().
    // The miss is detected after the tag lookup completes.
    lower_.fetch(access, now + config_.hit_latency,
                 Completion::cacheFill(
                     this, static_cast<std::uint32_t>(slot)));
}

void
Cache::handleFill(std::size_t slot, Cycle fill_cycle)
{
    MshrEntry entry = mshrs_.releaseSlot(slot, fill_cycle);
    const Addr block = entry.block;

    const std::size_t way = victimize(block, entry.core, fill_cycle);
    const std::uint64_t set = setOf(block);
    if (way_tags_[way] == kNoTag)
        ++set_filled_[set];
    way_tags_[way] = block;
    way_flags_[way] =
        (entry.store_merged ? kDirty : 0) |
        (entry.prefetch_origin && !entry.demand_merged ? kPrefetched : 0);
    if (config_.replacement == ReplacementKind::Srrip)
        way_repl_[way] = 2;  // SRRIP inserts at "long" re-reference.
    else
        touchBlock(set * config_.ways, way);  // LRU inserts at MRU.
    if (entry.prefetch_origin) {
        ++stats_.prefetch_fills;
        if (lifecycle_)
            lifecycle_->onFill(block, fill_cycle);
    }

    for (MshrCallback &cb : entry.callbacks) {
        // Latency accrues before the callback runs, exactly where the
        // former capturing wrapper accounted it.
        if (cb.track)
            stats_.demand_miss_latency += fill_cycle - cb.start;
        cb.fn(fill_cycle);
    }
    // Park the callback vector's capacity for the next allocation;
    // with it, a steady-state miss makes no heap round trips at all.
    mshrs_.recycle(std::move(entry));

    // MSHRs freed: replay parked demand fetches. Parked accesses whose
    // block arrived meanwhile (or whose miss is already in flight) are
    // satisfied without consuming an MSHR, so keep draining until a
    // replay actually needs an entry and none is free.
    while (!pending_.empty()) {
        if (const std::size_t hit = lookup(pending_.front().access.block);
            hit != simd::kNpos) {
            PendingFetch replay = std::move(pending_.front());
            pending_.pop_front();
            hitBlock(hit, replay.access, fill_cycle);
            replay.done(fill_cycle);
            continue;
        }
        if (MshrEntry *open = mshrs_.find(pending_.front().access.block)) {
            PendingFetch replay = std::move(pending_.front());
            pending_.pop_front();
            open->demand_merged = true;
            if (replay.access.type == AccessType::Store)
                open->store_merged = true;
            open->callbacks.push_back(std::move(replay.done));
            continue;
        }
        if (mshrs_.full())
            break;
        PendingFetch replay = std::move(pending_.front());
        pending_.pop_front();
        const MemAccess acc = replay.access;
        MshrEntry &fresh =
            mshrs_.allocate(acc.block, /*prefetch_origin=*/false,
                            acc.core, fill_cycle);
        fresh.demand_merged = true;
        fresh.store_merged = acc.type == AccessType::Store;
        fresh.callbacks.push_back(std::move(replay.done));
        issueFetch(acc, mshrs_.slotOf(fresh), fill_cycle);
    }

    drainPrefetchQueue(fill_cycle);
}

std::size_t
Cache::victimize(Addr block, CoreId core, Cycle now)
{
    const std::uint64_t set = setOf(block);
    const std::size_t first = set * config_.ways;
    // Fill order: any invalid way first (sets never un-fill, so the
    // counter lets the steady state skip the scan entirely).
    if (set_filled_[set] < config_.ways) {
        const std::size_t invalid_way =
            simd::findEqual64(way_tags_.data() + first, config_.ways,
                              kNoTag);
        if (invalid_way != simd::kNpos)
            return first + invalid_way;
    }
    std::size_t victim = first;
    switch (config_.replacement) {
      case ReplacementKind::Lru: {
        // The set is full, so its ranks are 0..ways-1: the highest
        // is the least recently used way.
        const std::uint8_t *rank = way_repl_.data() + first;
        victim += static_cast<std::size_t>(
            std::max_element(rank, rank + config_.ways) - rank);
        break;
      }
      case ReplacementKind::Srrip: {
        // Find a distant (rrpv==3) block, aging the set until one
        // appears.
        std::uint8_t *rrpv = way_repl_.data() + first;
        for (;;) {
            const std::uint8_t *distant =
                std::find(rrpv, rrpv + config_.ways, 3);
            if (distant != rrpv + config_.ways) {
                victim += static_cast<std::size_t>(distant - rrpv);
                break;
            }
            for (unsigned w = 0; w < config_.ways; ++w)
                ++rrpv[w];
        }
        break;
      }
      case ReplacementKind::Random:
        // xorshift64 victim pick.
        victim_rng_ ^= victim_rng_ << 13;
        victim_rng_ ^= victim_rng_ >> 7;
        victim_rng_ ^= victim_rng_ << 17;
        victim += victim_rng_ % config_.ways;
        break;
    }
    const Addr tag = way_tags_[victim];
    ++stats_.evictions;
    if (way_flags_[victim] & kPrefetched) {
        ++stats_.useless_prefetches;
        if (lifecycle_)
            lifecycle_->onEvictUnused(tag);
    }
    if (way_flags_[victim] & kDirty) {
        ++stats_.writebacks;
        lower_.writeback(tag, core, now);
    }
    for (EvictionListener &listener : eviction_listeners_)
        listener(tag);
    return victim;
}

void
Cache::registerTelemetry(telemetry::Registry &registry) const
{
    // Probes only: every value is a counter this cache maintains
    // anyway, read live when a snapshot is taken.
    registry.probeGroup(
        name_ + ".",
        [this](std::map<std::string, std::uint64_t> &out) {
            const CacheStats &s = stats_;
            out["demand_accesses"] = s.demand_accesses;
            out["demand_hits"] = s.demand_hits;
            out["demand_misses"] = s.demand_misses;
            out["late_prefetch_hits"] = s.late_prefetch_hits;
            out["mshr_merges"] = s.mshr_merges;
            out["mshr_stall_fetches"] = s.mshr_stall_fetches;
            out["prefetch_requests"] = s.prefetch_requests;
            out["prefetch_drops"] = s.prefetch_drops;
            out["prefetch_drop_present"] = s.prefetch_drop_present;
            out["prefetch_drop_inflight"] = s.prefetch_drop_inflight;
            out["prefetch_drop_mshr"] = s.prefetch_drop_mshr;
            out["prefetch_fills"] = s.prefetch_fills;
            out["useful_prefetches"] = s.useful_prefetches;
            out["useless_prefetches"] = s.useless_prefetches;
            out["late_useful_prefetches"] = s.late_useful_prefetches;
            out["timely_useful_prefetches"] =
                s.timelyUsefulPrefetches();
            out["writebacks"] = s.writebacks;
            out["evictions"] = s.evictions;
            out["demand_miss_latency"] = s.demand_miss_latency;
            out["mshr_occupancy"] = mshrs_.size();
            out["prefetch_queue_depth"] = prefetch_queue_.size();
            out["pending_fetches"] = pending_.size();
            out["resident_blocks"] = residentBlocks();
        });
    mshrs_.registerTelemetry(registry, name_ + ".mshr.");
}

DramLower::DramLower(DramController &dram, EventQueue &events)
    : dram_(dram), events_(events)
{
}

void
DramLower::fetch(const MemAccess &access, Cycle now, FillCallback done)
{
    Cycle completion = dram_.read(access.block, now);
    if (fault_hook_)
        completion = fault_hook_(access, now, completion);
    events_.schedule(completion,
                     [done = std::move(done), completion] {
                         done(completion);
                     });
}

void
DramLower::writeback(Addr block, CoreId, Cycle now)
{
    dram_.write(block, now);
}

void
CacheLower::fetch(const MemAccess &access, Cycle now, FillCallback done)
{
    cache_.access(access, now, std::move(done));
}

void
CacheLower::writeback(Addr, CoreId, Cycle)
{
    // Dirty data written back from the L1 either updates the LLC copy
    // in place (zero-cost in this timing model) or, when the LLC no
    // longer holds the block, is forwarded to memory by the LLC's own
    // writeback path when the line was installed dirty. We deliberately
    // do not allocate on writeback.
}

} // namespace bingo

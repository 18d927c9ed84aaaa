#include "workload/trace_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/sim_check.hpp"
#include "sim/translation.hpp"
#include "workload/generator.hpp"

namespace bingo
{

namespace
{

constexpr std::uint64_t kMebibyte = 1024 * 1024;
constexpr std::uint64_t kDefaultBudgetMb = 512;

/** Live UnplannedTraceReads scopes on this thread. */
thread_local unsigned t_unplanned_scopes = 0;

/**
 * Build one (workload, core, seed) generator chain: the raw workload
 * generator, composed with the seed-derived first-touch translation
 * when the stream is to carry physical addresses. Same composition a
 * System applies at replay time for virtual streams, so the two modes
 * yield bit-identical records to the core.
 */
std::unique_ptr<TraceSource>
makeStream(const std::string &workload, CoreId core,
           std::uint64_t seed, bool translated)
{
    std::unique_ptr<TraceSource> source =
        makeWorkload(workload, core, seed);
    if (translated) {
        source = std::make_unique<TranslatingSource>(
            std::move(source), AddressTranslator(seed));
    }
    return source;
}

/**
 * TraceSource running a private generator through one window of ops
 * covering TraceBuffer::kCommitInstructions instructions, refilled in
 * place. Nothing outlives the window.
 */
class StreamingTraceSource : public OpTraceSource
{
  public:
    /**
     * @param generator The stream's generator; owned.
     * @param total_records Process-wide generated-instruction counter.
     */
    StreamingTraceSource(std::unique_ptr<TraceSource> generator,
                         std::atomic<std::uint64_t> &total_records)
        : generator_(std::move(generator)),
          total_records_(total_records), window_(kWindow)
    {
    }

    std::size_t
    nextOps(TraceOp *out, std::size_t instructions) override
    {
        std::size_t count = 0;
        while (instructions > 0) {
            if (pos_ == end_)
                refill();
            pos_ += cursor_.take(window_.data() + pos_, end_ - pos_, out,
                                 count, instructions);
        }
        return count;
    }

  private:
    static constexpr std::size_t kWindow =
        TraceBuffer::kCommitInstructions;

    /** Generate the next window over the old one. */
    void
    refill()
    {
        end_ = generator_->nextOps(window_.data(), kWindow);
        pos_ = 0;
        total_records_.fetch_add(kWindow, std::memory_order_relaxed);
    }

    std::unique_ptr<TraceSource> generator_;
    std::atomic<std::uint64_t> &total_records_;
    std::vector<TraceOp> window_;
    std::size_t pos_ = 0;  ///< Next unread op of the window.
    std::size_t end_ = 0;  ///< Ops the window holds.
    OpCursor cursor_;
};

} // namespace

TraceBuffer::TraceBuffer(std::unique_ptr<TraceSource> generator,
                         std::atomic<std::uint64_t> *total_bytes,
                         std::atomic<std::uint64_t> *total_records)
    : generator_(std::move(generator)), total_bytes_(total_bytes),
      total_records_(total_records)
{
    // Reserved once: the chunk directory must never reallocate, so
    // readers can index it without taking extend_mutex_.
    chunks_.reserve(kMaxChunks);
}

TraceBuffer::~TraceBuffer()
{
    if (total_bytes_ != nullptr)
        total_bytes_->fetch_sub(bytesReserved(),
                                std::memory_order_relaxed);
}

void
TraceBuffer::extendPast(std::size_t pos)
{
    // One slice is at most one op per instruction; generated here and
    // then copied in, because it may straddle a chunk boundary.
    thread_local std::vector<TraceOp> slice(kCommitInstructions);
    std::lock_guard<std::mutex> lock(extend_mutex_);
    std::size_t committed = committed_.load(std::memory_order_relaxed);
    while (committed <= pos) {
        const std::size_t ops =
            generator_->nextOps(slice.data(), kCommitInstructions);
        for (std::size_t copied = 0; copied < ops;) {
            const std::size_t chunk_idx = committed / kChunkOps;
            if (chunk_idx == chunks_.size()) {
                if (chunks_.size() == kMaxChunks) {
                    throw SimError(
                        "trace_cache", 0,
                        "trace replay position " + std::to_string(pos) +
                            " exceeds the buffer cap of " +
                            std::to_string(kMaxChunks * kChunkOps) +
                            " ops");
                }
                chunks_.push_back(
                    std::make_unique_for_overwrite<std::byte[]>(
                        kChunkOps * sizeof(TraceOp)));
                allocated_chunks_.store(chunks_.size(),
                                        std::memory_order_relaxed);
                if (total_bytes_ != nullptr) {
                    total_bytes_->fetch_add(kChunkOps * sizeof(TraceOp),
                                            std::memory_order_relaxed);
                }
            }
            const std::size_t offset = committed % kChunkOps;
            const std::size_t take =
                std::min(ops - copied, kChunkOps - offset);
            std::memcpy(chunkData(chunk_idx) + offset,
                        slice.data() + copied, take * sizeof(TraceOp));
            copied += take;
            committed += take;
        }
        if (total_records_ != nullptr) {
            total_records_->fetch_add(kCommitInstructions,
                                      std::memory_order_relaxed);
        }
        // Publish the slice's contents before the new count: readers
        // acquire committed_ and may then touch the chunk lock-free.
        committed_.store(committed, std::memory_order_release);
    }
}

const TraceOp *
TraceBuffer::view(std::size_t pos, std::size_t want, std::size_t &got)
{
    std::size_t committed = committed_.load(std::memory_order_acquire);
    if (pos >= committed) {
        extendPast(pos);
        committed = committed_.load(std::memory_order_acquire);
    }
    const std::size_t offset = pos % kChunkOps;
    got = std::min({want, committed - pos, kChunkOps - offset});
    return chunkData(pos / kChunkOps) + offset;
}

std::size_t
TraceStreamKeyHash::operator()(const TraceStreamKey &key) const
{
    std::uint64_t h = mix64(key.seed ^ (std::uint64_t{key.core} << 48) ^
                            (key.translated ? 1ULL << 40 : 0));
    for (const char c : key.workload)
        h = mix64(h ^ static_cast<std::uint64_t>(c));
    return static_cast<std::size_t>(h);
}

TraceCache::TraceCache(std::uint64_t budget_bytes)
    : budget_bytes_(budget_bytes)
{
}

std::uint64_t
parseTraceCacheBudget(const char *value)
{
    if (value == nullptr || *value == '\0')
        return kDefaultBudgetMb * kMebibyte;
    constexpr std::uint64_t kMaxMb = ~std::uint64_t{0} / kMebibyte;
    std::uint64_t mb = 0;
    for (const char *c = value; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9' ||
            mb > (kMaxMb - static_cast<std::uint64_t>(*c - '0')) / 10) {
            throw std::invalid_argument(
                std::string("BINGO_TRACE_CACHE_MB: expected a whole "
                            "number of MB from 0 to ") +
                std::to_string(kMaxMb) + ", got '" + value + "'");
        }
        mb = mb * 10 + static_cast<std::uint64_t>(*c - '0');
    }
    return mb * kMebibyte;
}

TraceCache &
TraceCache::instance()
{
    static TraceCache cache(
        parseTraceCacheBudget(std::getenv("BINGO_TRACE_CACHE_MB")));
    return cache;
}

std::unique_ptr<TraceSource>
TraceCache::acquire(const std::string &workload, CoreId core,
                    std::uint64_t seed, bool translated)
{
    Key key{workload, core, seed, translated};
    const auto streaming = [&] {
        return std::make_unique<StreamingTraceSource>(
            makeStream(workload, core, seed, translated),
            records_generated_);
    };

    std::unique_lock<std::mutex> lock(mutex_);
    // A planned acquire consumes one announced reader; the last one
    // leaves nothing behind in the registry.
    bool last_reader = false;
    if (auto plan = planned_.find(key);
        plan != planned_.end() && t_unplanned_scopes == 0) {
        last_reader = --plan->second == 0;
        if (last_reader)
            planned_.erase(plan);
    }
    if (budget_bytes_ == 0) {
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        return streaming();
    }

    auto it = buffers_.find(key);
    if (it != buffers_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        std::shared_ptr<TraceBuffer> buffer = it->second.buffer;
        if (last_reader) {
            // Live sources keep the buffer alive; it is freed with
            // the last of them rather than held under the budget.
            lru_.erase(it->second.lru_pos);
            buffers_.erase(it);
        } else {
            lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        }
        return std::make_unique<CachedTraceSource>(std::move(buffer));
    }
    if (last_reader) {
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        return streaming();
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    auto buffer = std::make_shared<TraceBuffer>(
        makeStream(workload, core, seed, translated), &bytes_,
        &records_generated_);
    lru_.push_front(key);
    buffers_.emplace(std::move(key), Slot{buffer, lru_.begin()});
    evictOverBudget();
    return std::make_unique<CachedTraceSource>(std::move(buffer));
}

void
TraceCache::evictOverBudget()
{
    // Walk from least recently used; a buffer still referenced by a
    // live source is pinned (use_count > 1) and skipped, so the
    // budget can transiently overshoot while sweeps hold buffers
    // open.
    auto it = lru_.end();
    while (bytes_.load(std::memory_order_relaxed) > budget_bytes_ &&
           it != lru_.begin()) {
        --it;
        auto found = buffers_.find(*it);
        if (found == buffers_.end() ||
            found->second.buffer.use_count() > 1)
            continue;
        buffers_.erase(found);
        it = lru_.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
TraceCache::planReaders(const Key &key, std::uint64_t readers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    planned_[key] += readers;
}

void
TraceCache::cancelReaders(const Key &key, std::uint64_t readers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto plan = planned_.find(key);
    if (plan == planned_.end())
        return;
    if (plan->second <= readers)
        planned_.erase(plan);
    else
        plan->second -= readers;
}

TraceReadPlan::~TraceReadPlan()
{
    for (const auto &[key, readers] : readers_)
        TraceCache::instance().cancelReaders(key, readers);
}

void
TraceReadPlan::addReader(const std::string &workload, CoreId core,
                         std::uint64_t seed, bool translated)
{
    TraceStreamKey key{workload, core, seed, translated};
    TraceCache::instance().planReaders(key, 1);
    ++readers_[std::move(key)];
}

UnplannedTraceReads::UnplannedTraceReads()
{
    ++t_unplanned_scopes;
}

UnplannedTraceReads::~UnplannedTraceReads()
{
    --t_unplanned_scopes;
}

void
TraceCache::setBudgetBytes(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_bytes_ = bytes;
    evictOverBudget();
}

std::uint64_t
TraceCache::budgetBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_bytes_;
}

TraceCacheStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TraceCacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.bypasses = bypasses_.load(std::memory_order_relaxed);
    out.buffers = buffers_.size();
    out.bytes = bytes_.load(std::memory_order_relaxed);
    out.records_generated =
        records_generated_.load(std::memory_order_relaxed);
    return out;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
        auto found = buffers_.find(*it);
        if (found != buffers_.end() &&
            found->second.buffer.use_count() == 1) {
            buffers_.erase(found);
            it = lru_.erase(it);
        } else {
            ++it;
        }
    }
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    bypasses_.store(0, std::memory_order_relaxed);
    records_generated_.store(0, std::memory_order_relaxed);
}

std::unique_ptr<TraceSource>
acquireWorkloadSource(const std::string &workload, CoreId core,
                      std::uint64_t seed, bool translated)
{
    return TraceCache::instance().acquire(workload, core, seed,
                                          translated);
}

} // namespace bingo

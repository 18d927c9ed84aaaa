#include "workload/trace_cache.hpp"

#include <cstdlib>
#include <cstring>

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

/** BINGO_TRACE_CACHE_MB: unset/empty -> default, 0 -> disabled. */
std::uint64_t
budgetFromEnv()
{
    const char *value = std::getenv("BINGO_TRACE_CACHE_MB");
    if (value == nullptr || *value == '\0')
        return kDefaultBudgetMb * kMebibyte;
    char *end = nullptr;
    const unsigned long long mb = std::strtoull(value, &end, 10);
    if (end == value)
        return kDefaultBudgetMb * kMebibyte;
    return static_cast<std::uint64_t>(mb) * kMebibyte;
}

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
 * Non-memory run-length sidecar of one freshly generated slice,
 * computed backward: runs[i] counts the consecutive non-memory
 * records starting at i, saturated at 255. The record past the slice
 * end is unknown (not generated yet), so runs are clipped there —
 * shorter than the true run is always safe for the dispatch fast
 * path.
 */
void
fillRunLengths(const TraceRecord *records, std::uint8_t *runs,
               std::size_t count)
{
    std::uint8_t next = 0;
    for (std::size_t i = count; i-- > 0;) {
        const bool mem = records[i].type == InstrType::Load ||
                         records[i].type == InstrType::Store;
        next = mem ? std::uint8_t{0}
                   : static_cast<std::uint8_t>(next < 255 ? next + 1
                                                          : 255);
        runs[i] = next;
    }
}

/**
 * TraceSource running a private generator through one fixed window of
 * TraceBuffer::kCommitRecords records, refilled in place. The window
 * carries the same non-memory run-length sidecar a TraceBuffer slice
 * does, so dispatch runs and zero-copy borrows work as on a shared
 * replay, but nothing outlives the window: a borrowed run is valid
 * only until the next call on this source.
 */
class StreamingTraceSource : public TraceSource
{
  public:
    /**
     * @param generator The stream's generator; owned.
     * @param total_records Process-wide generated-record counter.
     */
    StreamingTraceSource(std::unique_ptr<TraceSource> generator,
                         std::atomic<std::uint64_t> &total_records)
        : generator_(std::move(generator)),
          total_records_(total_records), window_(kWindow),
          runs_(kWindow)
    {
    }

    TraceRecord
    next() override
    {
        if (pos_ == kWindow)
            refill();
        return window_[pos_++];
    }

    void
    nextBatch(TraceRecord *out, std::size_t count) override
    {
        while (count > 0) {
            if (pos_ == kWindow)
                refill();
            const std::size_t take =
                count < kWindow - pos_ ? count : kWindow - pos_;
            std::memcpy(out, window_.data() + pos_,
                        take * sizeof(TraceRecord));
            out += take;
            pos_ += take;
            count -= take;
        }
    }

    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        if (pos_ == kWindow)
            refill();
        got = want < kWindow - pos_ ? want : kWindow - pos_;
        borrowed_runs_ = runs_.data() + pos_;
        const TraceRecord *run = window_.data() + pos_;
        pos_ += got;
        return run;
    }

    const std::uint8_t *
    borrowRuns() const override
    {
        return borrowed_runs_;
    }

  private:
    static constexpr std::size_t kWindow = TraceBuffer::kCommitRecords;

    /** Generate the next window and its sidecar over the old one. */
    void
    refill()
    {
        generator_->nextBatch(window_.data(), kWindow);
        fillRunLengths(window_.data(), runs_.data(), kWindow);
        pos_ = 0;
        total_records_.fetch_add(kWindow, std::memory_order_relaxed);
    }

    std::unique_ptr<TraceSource> generator_;
    std::atomic<std::uint64_t> &total_records_;
    std::vector<TraceRecord> window_;
    std::vector<std::uint8_t> runs_;
    std::size_t pos_ = kWindow;  ///< Next unread window slot.
    /// Sidecar of the last borrowBatch() window (see borrowRuns()).
    const std::uint8_t *borrowed_runs_ = nullptr;
};

} // namespace

TraceBuffer::TraceBuffer(std::unique_ptr<TraceSource> generator,
                         std::atomic<std::uint64_t> *total_bytes,
                         std::atomic<std::uint64_t> *total_records)
    : generator_(std::move(generator)), total_bytes_(total_bytes),
      total_records_(total_records)
{
    // Reserved once: the chunk directories must never reallocate, so
    // readers can index them without taking extend_mutex_.
    chunks_.reserve(kMaxChunks);
    run_chunks_.reserve(kMaxChunks);
}

TraceBuffer::~TraceBuffer()
{
    if (total_bytes_ != nullptr)
        total_bytes_->fetch_sub(bytesReserved(),
                                std::memory_order_relaxed);
}

void
TraceBuffer::extendTo(std::size_t needed)
{
    std::lock_guard<std::mutex> lock(extend_mutex_);
    std::size_t committed = committed_.load(std::memory_order_relaxed);
    while (committed < needed) {
        const std::size_t chunk_idx = committed / kChunkRecords;
        if (chunk_idx == chunks_.size()) {
            if (chunks_.size() == kMaxChunks) {
                throw SimError(
                    "trace_cache", 0,
                    "trace replay position " + std::to_string(needed) +
                        " exceeds the buffer cap of " +
                        std::to_string(kMaxChunks * kChunkRecords) +
                        " records");
            }
            chunks_.push_back(
                std::make_unique_for_overwrite<std::byte[]>(
                    kChunkRecords * sizeof(TraceRecord)));
            run_chunks_.push_back(
                std::make_unique_for_overwrite<std::uint8_t[]>(
                    kChunkRecords));
            allocated_chunks_.store(chunks_.size(),
                                    std::memory_order_relaxed);
            if (total_bytes_ != nullptr) {
                total_bytes_->fetch_add(kChunkRecords *
                                            (sizeof(TraceRecord) + 1),
                                        std::memory_order_relaxed);
            }
        }
        const std::size_t offset = committed % kChunkRecords;
        const std::size_t remaining = kChunkRecords - offset;
        const std::size_t take =
            remaining < kCommitRecords ? remaining : kCommitRecords;
        generator_->nextBatch(chunkData(chunk_idx) + offset, take);
        fillRunLengths(chunkData(chunk_idx) + offset,
                       runData(chunk_idx) + offset, take);
        committed += take;
        if (total_records_ != nullptr) {
            total_records_->fetch_add(take,
                                      std::memory_order_relaxed);
        }
        // Publish the slice's contents before the new count: readers
        // acquire committed_ and may then touch the chunk lock-free.
        committed_.store(committed, std::memory_order_release);
    }
}

void
TraceBuffer::read(std::size_t pos, TraceRecord *out, std::size_t count)
{
    if (pos + count > committed_.load(std::memory_order_acquire))
        extendTo(pos + count);
    while (count > 0) {
        const std::size_t chunk = pos / kChunkRecords;
        const std::size_t offset = pos % kChunkRecords;
        const std::size_t take = count < kChunkRecords - offset
                                     ? count
                                     : kChunkRecords - offset;
        std::memcpy(out, chunkData(chunk) + offset,
                    take * sizeof(TraceRecord));
        out += take;
        pos += take;
        count -= take;
    }
}

const TraceRecord *
TraceBuffer::view(std::size_t pos, std::size_t want, std::size_t &got,
                  const std::uint8_t **runs)
{
    if (pos + want > committed_.load(std::memory_order_acquire))
        extendTo(pos + want);
    const std::size_t offset = pos % kChunkRecords;
    const std::size_t in_chunk = kChunkRecords - offset;
    got = want < in_chunk ? want : in_chunk;
    const std::size_t chunk = pos / kChunkRecords;
    if (runs != nullptr)
        *runs = runData(chunk) + offset;
    return chunkData(chunk) + offset;
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

TraceCache &
TraceCache::instance()
{
    static TraceCache cache(budgetFromEnv());
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

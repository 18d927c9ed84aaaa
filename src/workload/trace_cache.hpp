/**
 * @file
 * Trace sourcing for Systems: shared buffers for streams a sweep will
 * reread, a bounded private window for every other stream.
 *
 * A stream is fully determined by (workload, core, seed, translated):
 * makeWorkload() derives the per-core base address and generator
 * seeds from the first three, the generators are deterministic, and
 * `translated` composes the seed-derived first-touch translation.
 * Length is not part of the key; a stream is infinite and every reader
 * consumes a prefix.
 *
 * What is retained: only streams some later reader will replay. A
 * sweep (runIndexed in sim/experiment.cpp) walks its job list before
 * dispatch and records, in a TraceReadPlan, how many Systems will
 * acquire each stream. Every planned reader but the last shares one
 * append-only chunked TraceBuffer, as an unplanned acquire always
 * does. The last planned reader shares the buffer if one exists and
 * takes it out of the registry, so its memory goes with the last live
 * source; if no buffer exists, it gets a private streaming source
 * (StreamingTraceSource, trace_cache.cpp), which runs the generator
 * through one kCommitRecords window and keeps nothing. Acquires
 * outside a plan (direct System construction, dist workers,
 * microbenches, and a sweep job's rebuild after a failed attempt; see
 * UnplannedTraceReads) materialize and share.
 *
 * Why: a retained buffer costs its full length in memory that must be
 * page-faulted in, and it pays only when a second reader replays it.
 * On a shared 4-vCPU Xeon VM (GCC 12.2, -O3, 4 sweep threads, median
 * of ten interleaved pairs), a sweep of twelve single-reader jobs
 * (perfbench compute_bound) held about 1 GB of buffers and spent a
 * third of its CPU time in the kernel faulting them in; streaming cut
 * its CPU time from 3.54 s to 2.21 s and its peak RSS from 1074 MB to
 * 58 MB. The Figure 8 sweep, seven readers per stream, still shares
 * every stream and runs at parity; streaming all of its readers
 * instead cost it about 5 % CPU (EXPERIMENTS.md has the tables).
 *
 * Concurrency: generation happens under a per-buffer mutex using the
 * single underlying generator; readers are lock-free (the chunk
 * directory is pre-reserved so it never reallocates, and a
 * release/acquire on the committed-record count publishes chunk
 * contents). The registry and the plan are mutex-protected; sweep
 * worker threads contend only on acquire/extend, not on replay.
 *
 * Budget: BINGO_TRACE_CACHE_MB bounds retained bytes (default 512;
 * 0 disables sharing, and every acquire streams). Eviction is LRU
 * over registered buffers not referenced by any live source; buffers
 * in use are never evicted, so the budget can transiently overshoot
 * while a wide sweep holds many streams open.
 *
 * Determinism: every source yields bit-for-bit the records the
 * generator would, with the same non-memory run-length sidecar, so
 * journals are identical whichever source a System gets; chaos trace
 * corruption wraps *above* this layer (per System), so fault
 * schedules are also unchanged by sharing.
 */

#ifndef BINGO_WORKLOAD_TRACE_CACHE_HPP
#define BINGO_WORKLOAD_TRACE_CACHE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/ooo_core.hpp"

namespace bingo
{

/** Counters exported by the process-wide trace cache. */
struct TraceCacheStats
{
    std::uint64_t hits = 0;        ///< acquire() served from cache.
    std::uint64_t misses = 0;      ///< acquire() built a new buffer.
    std::uint64_t evictions = 0;   ///< Buffers dropped for budget.
    /// acquire() that streamed: caching off, or the last planned
    /// reader of a stream with no buffer.
    std::uint64_t bypasses = 0;
    std::uint64_t buffers = 0;     ///< Buffers currently registered.
    std::uint64_t bytes = 0;       ///< Bytes of live buffers.
    /// Total records produced, by buffers and streaming sources alike.
    std::uint64_t records_generated = 0;
};

/** Identity of one trace stream (see the file comment). */
struct TraceStreamKey
{
    std::string workload;
    CoreId core = 0;
    std::uint64_t seed = 0;
    /// Stream carries physical (post-translation) addresses.
    bool translated = false;

    bool operator==(const TraceStreamKey &other) const = default;
};

struct TraceStreamKeyHash
{
    std::size_t operator()(const TraceStreamKey &key) const;
};

/**
 * Append-only shared buffer of one (workload, core, seed) stream.
 * Readers replay committed records lock-free; extension runs the
 * single underlying generator under a mutex.
 */
class TraceBuffer
{
  public:
    /// Records per chunk: 64 Ki records = 1.5 MB, large enough that
    /// extension cost amortizes, small enough that short test runs
    /// stay cheap.
    static constexpr std::size_t kChunkRecords = std::size_t{1} << 16;
    /// Commit granularity within a chunk: generation runs in slices
    /// this long, so a short run never pays for a whole chunk's worth
    /// of records it will not read (over-generation is capped at one
    /// slice). Divides kChunkRecords evenly. Also the window length
    /// of the private streaming source, so both carry the same
    /// sidecar.
    static constexpr std::size_t kCommitRecords = std::size_t{1} << 12;
    /// Chunk-directory capacity, reserved up front so the directory
    /// never reallocates under readers: 2^14 chunks = 2^30 records.
    static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;

    /**
     * @param generator The stream's sole generator; owned.
     * @param total_bytes Process-wide retained-bytes counter to keep
     *        in step with chunk allocation (may be null).
     * @param total_records Process-wide generated-record counter.
     */
    TraceBuffer(std::unique_ptr<TraceSource> generator,
                std::atomic<std::uint64_t> *total_bytes,
                std::atomic<std::uint64_t> *total_records);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Copy records [pos, pos + count) into `out`, extending first. */
    void read(std::size_t pos, TraceRecord *out, std::size_t count);

    /**
     * Zero-copy read: pointer to the contiguous run starting at
     * `pos`, clipped to `want` records and the owning chunk's end,
     * with `got` receiving the run length. Extends first, so the run
     * is always nonempty. The pointer stays valid for the buffer's
     * lifetime (chunks are never freed while the buffer lives).
     *
     * When `runs` is non-null it receives the window's non-memory
     * run-length sidecar, aligned with the returned records (see
     * TraceSource::borrowRuns for the entry contract). The sidecar is
     * computed once at generation time, so replaying consumers get
     * dispatch-run information for free.
     */
    const TraceRecord *view(std::size_t pos, std::size_t want,
                            std::size_t &got,
                            const std::uint8_t **runs = nullptr);

    /** Bytes of chunk storage owned right now (records + sidecar). */
    std::uint64_t
    bytesReserved() const
    {
        return allocated_chunks_.load(std::memory_order_relaxed) *
               kChunkRecords * (sizeof(TraceRecord) + 1);
    }

    /** Records generated so far (tests/diagnostics). */
    std::size_t
    committedRecords() const
    {
        return committed_.load(std::memory_order_acquire);
    }

  private:
    /**
     * Generate kCommitRecords-long slices until at least `needed`
     * records exist, allocating (uninitialized) chunks as slices
     * cross chunk boundaries.
     */
    void extendTo(std::size_t needed);

    /**
     * Record array of chunk `index`. Chunks are raw byte storage:
     * TraceRecord carries default member initializers, so an array
     * new would zero-fill 1.5 MB per chunk record-by-record; raw
     * storage skips that (every byte below committed_ is generator
     * output before any reader can reach it) and TraceRecord is an
     * implicit-lifetime aggregate, so records come to life as the
     * generator stores them.
     */
    TraceRecord *
    chunkData(std::size_t index) const
    {
        return reinterpret_cast<TraceRecord *>(chunks_[index].get());
    }

    /** Run-length sidecar of chunk `index` (parallel to its records). */
    std::uint8_t *
    runData(std::size_t index) const
    {
        return run_chunks_[index].get();
    }

    std::unique_ptr<TraceSource> generator_;
    std::mutex extend_mutex_;
    std::atomic<std::size_t> committed_{0};
    std::atomic<std::size_t> allocated_chunks_{0};
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    /// Per-chunk non-memory run lengths, one byte per record: entry i
    /// is the number of consecutive non-load/store records starting at
    /// record i (0 for a memory record), saturated at 255 and clipped
    /// at the generation-slice boundary — a conservative lower bound
    /// the dispatch fast path may always trust. Written backward over
    /// each slice right after the generator fills it, published by the
    /// same committed_ release-store as the records.
    std::vector<std::unique_ptr<std::uint8_t[]>> run_chunks_;
    std::atomic<std::uint64_t> *total_bytes_;
    std::atomic<std::uint64_t> *total_records_;
};

/**
 * TraceSource replaying a shared TraceBuffer from a private cursor.
 * Yields exactly the sequence the buffer's generator would.
 */
class CachedTraceSource : public TraceSource
{
  public:
    explicit CachedTraceSource(std::shared_ptr<TraceBuffer> buffer)
        : buffer_(std::move(buffer))
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord record;
        buffer_->read(pos_, &record, 1);
        ++pos_;
        return record;
    }

    void
    nextBatch(TraceRecord *out, std::size_t count) override
    {
        buffer_->read(pos_, out, count);
        pos_ += count;
    }

    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        const TraceRecord *run =
            buffer_->view(pos_, want, got, &runs_);
        pos_ += got;
        return run;
    }

    const std::uint8_t *
    borrowRuns() const override
    {
        return runs_;
    }

  private:
    std::shared_ptr<TraceBuffer> buffer_;
    std::size_t pos_ = 0;
    /// Sidecar of the last borrowBatch() window (see borrowRuns()).
    const std::uint8_t *runs_ = nullptr;
};

/** Process-wide, thread-safe registry of shared trace buffers. */
class TraceCache
{
  public:
    /** The process-wide instance (budget initialized from env). */
    static TraceCache &instance();

    /**
     * Trace source for `workload` on `core` under `seed`: a replay of
     * the shared buffer when caching is on, a private streaming source
     * when it is off (budget 0) or when this is the last reader a
     * TraceReadPlan announced and no buffer exists. The last planned
     * reader of an existing buffer shares it and unregisters it. With
     * `translated` set, records carry physical addresses — the stream
     * is the generator composed with the seed-derived first-touch
     * translation, so it is exactly as deterministic (and as
     * cacheable) as the virtual one, and replay needs no per-record
     * translation pass. Virtual and translated buffers of the same
     * stream are distinct cache entries.
     */
    std::unique_ptr<TraceSource> acquire(const std::string &workload,
                                         CoreId core,
                                         std::uint64_t seed,
                                         bool translated = false);

    /** Retained-bytes budget; 0 disables caching. */
    void setBudgetBytes(std::uint64_t bytes);
    std::uint64_t budgetBytes() const;
    bool enabled() const { return budgetBytes() > 0; }

    TraceCacheStats stats() const;

    /**
     * Drop every unreferenced buffer and zero the counters (tests).
     * Buffers still referenced by live sources survive untouched.
     */
    void clear();

  private:
    friend class TraceReadPlan;

    using Key = TraceStreamKey;

    explicit TraceCache(std::uint64_t budget_bytes);

    struct Slot
    {
        std::shared_ptr<TraceBuffer> buffer;
        /// Position in lru_ (front = most recently acquired).
        std::list<Key>::iterator lru_pos;
    };

    /** Evict LRU unreferenced buffers while over budget (locked). */
    void evictOverBudget();

    /** Announce `readers` more planned acquires of `key`. */
    void planReaders(const Key &key, std::uint64_t readers);
    /** Withdraw up to `readers` planned acquires of `key`. */
    void cancelReaders(const Key &key, std::uint64_t readers);

    mutable std::mutex mutex_;
    std::uint64_t budget_bytes_;
    std::unordered_map<Key, Slot, TraceStreamKeyHash> buffers_;
    std::list<Key> lru_;
    /// Outstanding planned acquires per stream (no zero entries).
    std::unordered_map<Key, std::uint64_t, TraceStreamKeyHash> planned_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> bypasses_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> records_generated_{0};
};

/**
 * The readers one sweep will open, per stream, registered with the
 * trace cache for the guard's lifetime (see TraceCache::acquire).
 * Destruction cancels every reader not yet acquired — a job that
 * failed before building its System, a baseline served from the
 * journal — so nothing outlives the sweep. Plans of overlapping
 * sweeps add up; a cancel withdraws at most what this plan announced,
 * which can only turn a later planned acquire into an unplanned one
 * (shared and retained), never change a record.
 */
class TraceReadPlan
{
  public:
    TraceReadPlan() = default;
    ~TraceReadPlan();

    TraceReadPlan(const TraceReadPlan &) = delete;
    TraceReadPlan &operator=(const TraceReadPlan &) = delete;

    /** One more System will acquire this stream during the sweep. */
    void addReader(const std::string &workload, CoreId core,
                   std::uint64_t seed, bool translated);

  private:
    std::unordered_map<TraceStreamKey, std::uint64_t,
                       TraceStreamKeyHash>
        readers_;
};

/**
 * While alive, acquires on the calling thread are outside every
 * TraceReadPlan: they neither use up a planned reader nor stream as
 * the last one. A plan counts one System per job, so a job's rebuild
 * (a retry, or the solo rerun of a faulted batch member) reads inside
 * this scope; otherwise it would use up a reader counted for another
 * job, and that job's acquire would regenerate and retain the whole
 * stream.
 */
class UnplannedTraceReads
{
  public:
    UnplannedTraceReads();
    ~UnplannedTraceReads();

    UnplannedTraceReads(const UnplannedTraceReads &) = delete;
    UnplannedTraceReads &operator=(const UnplannedTraceReads &) = delete;
};

/**
 * The System-facing entry point: makeWorkload() through the trace
 * cache (streamed, when caching is disabled). With `translated`
 * set, the stream is pre-composed with the seed-derived first-touch
 * translation (see TraceCache::acquire).
 */
std::unique_ptr<TraceSource>
acquireWorkloadSource(const std::string &workload, CoreId core,
                      std::uint64_t seed, bool translated = false);

} // namespace bingo

#endif // BINGO_WORKLOAD_TRACE_CACHE_HPP

/**
 * @file
 * Trace sourcing for Systems: shared op buffers for streams a sweep
 * will reread, a bounded private window for every other stream.
 *
 * A stream is fully determined by (workload, core, seed, translated):
 * makeWorkload() derives the per-core base address and generator
 * seeds from the first three, the generators are deterministic, and
 * `translated` composes the seed-derived first-touch translation.
 * Length is not part of the key; a stream is infinite and every reader
 * consumes a prefix.
 *
 * What is stored: TraceOps (common/types.hpp), one per explicit
 * load, store or branch with the run of non-memory instructions before
 * it folded into a count. Server streams are 87-99.6 % non-memory
 * instructions, so a buffer holds 0.004-0.13 ops of 24 bytes per
 * instruction. Readers pull ops covering exactly the instructions
 * they ask for; a run cut by a pull is split in the reader's cursor,
 * never in the buffer.
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
 * through one kCommitInstructions window and keeps nothing. Acquires
 * outside a plan (direct System construction, dist workers,
 * microbenches, and a sweep job's rebuild after a failed attempt; see
 * UnplannedTraceReads) materialize and share.
 *
 * Why: a retained buffer costs memory that must be page-faulted in,
 * and it pays only when a second reader replays it. With one record
 * per instruction, a sweep of twelve single-reader jobs (perfbench
 * compute_bound) held about 1 GB of buffers, and streaming them cut
 * its CPU time by 38 %; the Figure 8 sweep, seven readers per stream,
 * shares every stream. Holding ops took that sweep's peak RSS from
 * about 430 MB to about 65 MB; streaming all of its readers instead
 * still costs it about 10 % CPU, because each reader then reruns the
 * generators (EXPERIMENTS.md has the tables).
 *
 * Concurrency: generation happens under a per-buffer mutex using the
 * single underlying generator; readers are lock-free (the chunk
 * directory is pre-reserved so it never reallocates, and a
 * release/acquire on the committed-op count publishes chunk
 * contents). The registry and the plan are mutex-protected; sweep
 * worker threads contend only on acquire/extend, not on replay.
 *
 * Budget: BINGO_TRACE_CACHE_MB bounds retained bytes (default 512;
 * 0 disables sharing, and every acquire streams; anything but a whole
 * number of MB is an error). Eviction is LRU over registered buffers
 * not referenced by any live source; buffers in use are never
 * evicted, so the budget can transiently overshoot while a wide sweep
 * holds many streams open.
 *
 * Determinism: every source yields the instruction stream the
 * generator would, so journals are identical whichever source a
 * System gets; chaos trace corruption wraps *above* this layer (per
 * System), so fault schedules are also unchanged by sharing.
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
 * Append-only shared buffer of one (workload, core, seed) stream, held
 * as TraceOps. Readers replay committed ops lock-free; extension runs
 * the single underlying generator under a mutex.
 */
class TraceBuffer
{
  public:
    /// Ops per chunk: 64 Ki ops = 1.5 MB, about two million
    /// instructions of a server workload.
    static constexpr std::size_t kChunkOps = std::size_t{1} << 16;
    /// Generation slice, in instructions: the buffer grows by one
    /// pull of this many instructions at a time, so a short run never
    /// pays for much more stream than it reads. Also the window length
    /// of the private streaming source.
    static constexpr std::size_t kCommitInstructions = std::size_t{1}
                                                       << 12;
    /// Chunk-directory capacity, reserved up front so the directory
    /// never reallocates under readers: 2^14 chunks = 2^30 ops.
    static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;

    /**
     * @param generator The stream's sole generator; owned.
     * @param total_bytes Process-wide retained-bytes counter to keep
     *        in step with chunk allocation (may be null).
     * @param total_records Process-wide generated-instruction counter.
     */
    TraceBuffer(std::unique_ptr<TraceSource> generator,
                std::atomic<std::uint64_t> *total_bytes,
                std::atomic<std::uint64_t> *total_records);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /**
     * Zero-copy read: pointer to the committed ops from op index
     * `pos` on, at most `want` of them and never past the owning
     * chunk's end, with `got` receiving how many. Extends first, so
     * the run is never empty. The pointer stays valid for the
     * buffer's lifetime (chunks are never freed while it lives).
     */
    const TraceOp *view(std::size_t pos, std::size_t want,
                        std::size_t &got);

    /** Bytes of chunk storage owned right now. */
    std::uint64_t
    bytesReserved() const
    {
        return allocated_chunks_.load(std::memory_order_relaxed) *
               kChunkOps * sizeof(TraceOp);
    }

    /** Ops generated so far (tests/diagnostics). */
    std::size_t
    committedOps() const
    {
        return committed_.load(std::memory_order_acquire);
    }

  private:
    /**
     * Generate kCommitInstructions-long slices until more than `pos`
     * ops exist, allocating (uninitialized) chunks as slices cross
     * chunk boundaries.
     */
    void extendPast(std::size_t pos);

    /**
     * Op array of chunk `index`. Chunks are raw byte storage: TraceOp
     * carries default member initializers, so an array new would
     * zero-fill 1.5 MB per chunk op by op; raw storage skips that
     * (every byte below committed_ is generator output before any
     * reader can reach it) and TraceOp is an implicit-lifetime
     * aggregate, so ops come to life as they are stored.
     */
    TraceOp *
    chunkData(std::size_t index) const
    {
        return reinterpret_cast<TraceOp *>(chunks_[index].get());
    }

    std::unique_ptr<TraceSource> generator_;
    std::mutex extend_mutex_;
    std::atomic<std::size_t> committed_{0};
    std::atomic<std::size_t> allocated_chunks_{0};
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::atomic<std::uint64_t> *total_bytes_;
    std::atomic<std::uint64_t> *total_records_;
};

/**
 * TraceSource replaying a shared TraceBuffer from a private cursor.
 * Yields exactly the stream the buffer's generator would.
 */
class CachedTraceSource : public OpTraceSource
{
  public:
    explicit CachedTraceSource(std::shared_ptr<TraceBuffer> buffer)
        : buffer_(std::move(buffer))
    {
    }

    std::size_t
    nextOps(TraceOp *out, std::size_t instructions) override
    {
        std::size_t count = 0;
        while (instructions > 0) {
            std::size_t got = 0;
            const TraceOp *ops = buffer_->view(pos_, instructions, got);
            pos_ += cursor_.take(ops, got, out, count, instructions);
        }
        return count;
    }

  private:
    std::shared_ptr<TraceBuffer> buffer_;
    std::size_t pos_ = 0;  ///< Op index of the next unread op.
    OpCursor cursor_;
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
 * (a retry) reads inside this scope; otherwise it would use up a
 * reader counted for another job, and that job's acquire would
 * regenerate and retain the whole stream.
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
 * BINGO_TRACE_CACHE_MB's value as a budget in bytes: unset or empty
 * means the default of 512 MB, and 0 disables sharing. Anything but
 * decimal digits, or a budget whose byte count does not fit 64 bits,
 * throws std::invalid_argument naming the knob and the value.
 */
std::uint64_t parseTraceCacheBudget(const char *value);

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

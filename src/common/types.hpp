/**
 * @file
 * Fundamental types and address geometry helpers shared by every module.
 *
 * Addresses in the simulator are byte addresses in a flat 64-bit physical
 * address space. A "block" is a cache block (64 B); a "region" (the
 * paper's "page") is a chunk of contiguous blocks that spatial
 * prefetchers train and predict on — 2 KB by default, matching the
 * authors' public ChampSim implementation. The region is deliberately
 * distinct from the OS page (4 KB) used for address-space layout in the
 * workload generators.
 */

#ifndef BINGO_COMMON_TYPES_HPP
#define BINGO_COMMON_TYPES_HPP

#include <cstdint>
#include <cstddef>

namespace bingo
{

using Addr = std::uint64_t;
using Cycle = std::uint64_t;
using CoreId = std::uint32_t;

/**
 * "No such cycle": the value nextEventCycle()/nextWakeCycle()-style
 * queries return when a component holds no future work of its own.
 * Taking min() over candidates leaves it unchanged only when nothing
 * in the system has a scheduled next step.
 */
constexpr Cycle kNeverCycle = ~Cycle{0};

/** log2 of the cache block size (64 B). */
constexpr unsigned kBlockBits = 6;
/** Cache block size in bytes. */
constexpr std::uint64_t kBlockSize = 1ULL << kBlockBits;

/** log2 of the default spatial region size (2 KB). */
constexpr unsigned kRegionBits = 11;
/** Spatial region ("page") size in bytes. */
constexpr std::uint64_t kRegionSize = 1ULL << kRegionBits;
/** Number of cache blocks per spatial region. */
constexpr unsigned kBlocksPerRegion =
    static_cast<unsigned>(kRegionSize / kBlockSize);

/** log2 of the OS page size (4 KB), used by workload address layout. */
constexpr unsigned kOsPageBits = 12;
constexpr std::uint64_t kOsPageSize = 1ULL << kOsPageBits;

/** Byte address -> block address (block-aligned byte address). */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~(kBlockSize - 1);
}

/** Byte address -> block number (address / 64). */
constexpr Addr
blockNumber(Addr addr)
{
    return addr >> kBlockBits;
}

/** Byte address -> region number. */
constexpr Addr
regionNumber(Addr addr)
{
    return addr >> kRegionBits;
}

/** Byte address -> region-aligned byte address. */
constexpr Addr
regionAlign(Addr addr)
{
    return addr & ~(kRegionSize - 1);
}

/** Byte address -> block offset within its region (0..kBlocksPerRegion-1). */
constexpr unsigned
regionOffset(Addr addr)
{
    return static_cast<unsigned>((addr >> kBlockBits) &
                                 (kBlocksPerRegion - 1));
}

/** Kind of memory access as seen by caches and prefetchers. */
enum class AccessType : std::uint8_t
{
    Load,
    Store,
    Prefetch,
};

/** Kind of instruction in a workload trace. */
enum class InstrType : std::uint8_t
{
    Alu,     ///< Non-memory instruction; completes after a short latency.
    Load,    ///< Memory read; completes when data returns.
    Store,   ///< Memory write; retires without waiting for completion.
    Branch,  ///< Consumes a fetch slot; no memory access.
};

/** One record of a workload trace: an instruction and optional address. */
struct TraceRecord
{
    Addr pc = 0;
    Addr addr = 0;   ///< Byte address; meaningful for Load/Store only.
    InstrType type = InstrType::Alu;
    /**
     * Load depends on the previous load of the same core (a pointer
     * dereference): it cannot issue until that load's data returns.
     * This is what makes pointer chasing latency-bound while array
     * sweeps enjoy full memory-level parallelism.
     */
    bool dependent = false;
};

/**
 * The trace pipeline's unit of work: a run of `alu` non-memory
 * instructions followed by at most one explicit Load, Store or Branch.
 * Nothing in the model reads a non-memory instruction's pc or address,
 * so a run travels as one count from the generators to the core, and
 * costs the same at every layer whatever its length. Expanded back to
 * records, the run's instructions carry pc 0.
 */
struct TraceOp
{
    Addr pc = 0;     ///< pc of the explicit instruction.
    Addr addr = 0;   ///< Byte address of an explicit Load/Store.
    std::uint32_t alu = 0;  ///< Non-memory instructions before it.
    /// Type of the explicit instruction; Alu means there is none and
    /// the op is a bare run of `alu` instructions.
    InstrType type = InstrType::Alu;
    bool dependent = false;  ///< As TraceRecord::dependent.

    /** Instructions this op stands for. */
    std::uint64_t
    instructions() const
    {
        return std::uint64_t{alu} + (type != InstrType::Alu ? 1 : 0);
    }
};

static_assert(sizeof(TraceOp) == 24, "TraceOp must stay 24 bytes");

} // namespace bingo

#endif // BINGO_COMMON_TYPES_HPP

/**
 * @file
 * Fixed-latency stand-in for the level below a cache, used by the
 * benchmark's standalone core and cache replays: every fetch completes
 * exactly `latency` cycles after it is issued, through the caller's
 * event queue, so a replay times one layer without the layers below it.
 */

#ifndef PERFBENCH_STUB_LOWER_HPP
#define PERFBENCH_STUB_LOWER_HPP

#include <cstdint>
#include <utility>

#include "cache/cache.hpp"
#include "common/event_queue.hpp"

namespace perfbench
{

class FixedLatencyLower : public bingo::MemoryLower
{
  public:
    FixedLatencyLower(bingo::EventQueue &events, bingo::Cycle latency)
        : events_(events), latency_(latency)
    {
    }

    // Pending fills capture `this`.
    FixedLatencyLower(const FixedLatencyLower &) = delete;
    FixedLatencyLower &operator=(const FixedLatencyLower &) = delete;

    void
    fetch(const bingo::MemAccess &access, bingo::Cycle now,
          bingo::FillCallback done) override
    {
        (void)access;
        ++issued_;
        const bingo::Cycle when = now + latency_;
        events_.schedule(when, [this, done = std::move(done), when] {
            ++completed_;
            done(when);
        });
    }

    void
    writeback(bingo::Addr block, bingo::CoreId core,
              bingo::Cycle now) override
    {
        (void)block;
        (void)core;
        (void)now;
    }

    std::uint64_t issued() const { return issued_; }
    std::uint64_t completed() const { return completed_; }

  private:
    bingo::EventQueue &events_;
    bingo::Cycle latency_;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_STUB_LOWER_HPP

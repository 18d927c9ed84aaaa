/**
 * @file
 * Shared test fixtures: a scriptable trace source, a controllable
 * fake memory level, small builders for common configurations, and
 * scoped environment variables and scratch directories.
 */

#ifndef BINGO_TESTS_TEST_UTIL_HPP
#define BINGO_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "core/ooo_core.hpp"

namespace bingo::test
{

/** TraceSource replaying a fixed script, then padding with ALU ops. */
class ScriptedSource : public TraceSource
{
  public:
    explicit ScriptedSource(std::vector<TraceRecord> script)
        : script_(std::move(script))
    {
    }

    TraceRecord
    next() override
    {
        if (pos_ < script_.size())
            return script_[pos_++];
        return TraceRecord{0x1000, 0, InstrType::Alu};
    }

    /** Whether the script has been fully consumed. */
    bool exhausted() const { return pos_ >= script_.size(); }

  private:
    std::vector<TraceRecord> script_;
    std::size_t pos_ = 0;
};

/**
 * MemoryLower with a fixed latency that remembers every fetch and
 * writeback, for driving a Cache directly.
 */
class FakeLower : public MemoryLower
{
  public:
    explicit FakeLower(EventQueue &events, Cycle latency = 100)
        : events_(events), latency_(latency)
    {
    }

    void
    fetch(const MemAccess &access, Cycle now, FillCallback done) override
    {
        fetches.push_back(access);
        const Cycle fill = now + latency_;
        events_.schedule(fill, [done = std::move(done), fill] {
            done(fill);
        });
    }

    void
    writeback(Addr block, CoreId core, Cycle now) override
    {
        (void)core;
        (void)now;
        writebacks.push_back(block);
    }

    std::vector<MemAccess> fetches;
    std::vector<Addr> writebacks;

  private:
    EventQueue &events_;
    Cycle latency_;
};

/** Load record helper. */
inline TraceRecord
load(Addr pc, Addr addr, bool dependent = false)
{
    return TraceRecord{pc, addr, InstrType::Load, dependent};
}

/** Store record helper. */
inline TraceRecord
store(Addr pc, Addr addr)
{
    return TraceRecord{pc, addr, InstrType::Store};
}

/** ALU record helper. */
inline TraceRecord
alu()
{
    return TraceRecord{0x1000, 0, InstrType::Alu};
}

/**
 * Append the records `ops` stand for to `out`: each op's non-memory
 * run (pc 0), then its explicit instruction.
 */
inline void
appendRecords(const TraceOp *ops, std::size_t count,
              std::vector<TraceRecord> &out)
{
    for (std::size_t i = 0; i < count; ++i) {
        out.insert(out.end(), ops[i].alu, TraceRecord{});
        if (ops[i].type != InstrType::Alu)
            out.push_back(TraceRecord{ops[i].pc, ops[i].addr, ops[i].type,
                                      ops[i].dependent});
    }
}

/** Byte address of block `n` within region `region`. */
inline Addr
regionBlock(Addr region, unsigned offset)
{
    return region * kRegionSize + static_cast<Addr>(offset) * kBlockSize;
}

/** Set an environment variable for one scope, restoring on exit. */
class EnvVar
{
  public:
    EnvVar(const char *name, const std::string &value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            had_old_ = true;
            old_ = old;
        }
        ::setenv(name, value.c_str(), 1);
    }

    ~EnvVar()
    {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_old_ = false;
};

/** Unique per-process scratch directory (removed on destruction). */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(::testing::TempDir() + "bingo_" + tag + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace bingo::test

#endif // BINGO_TESTS_TEST_UTIL_HPP

#include "chaos/shadow_memory.hpp"

#include <cstdio>
#include <string>

#include "cache/cache.hpp"
#include "common/sim_check.hpp"

namespace bingo::chaos
{

namespace
{

std::string
hexBlock(Addr block)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(block));
    return buf;
}

} // namespace

void
ShadowMemory::verifyPrivate(const Cache &cache, CoreId core,
                            Cycle now) const
{
    cache.forEachResident([&](Addr block, bool dirty) {
        if (dirty && !writtenBy(block, core))
            throw SimError(
                "shadow", now,
                cache.name() + " holds dirty block " + hexBlock(block) +
                    " that core " + std::to_string(core) +
                    " never stored to (functional model disagrees "
                    "with the timing hierarchy)");
    });
}

void
ShadowMemory::verifyShared(const Cache &cache, Cycle now) const
{
    cache.forEachResident([&](Addr block, bool dirty) {
        if (dirty && !writtenAny(block))
            throw SimError(
                "shadow", now,
                cache.name() + " holds dirty block " + hexBlock(block) +
                    " that no core ever stored to (functional model "
                    "disagrees with the timing hierarchy)");
    });
}

} // namespace bingo::chaos

#include "telemetry/telemetry.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/env.hpp"

namespace bingo::telemetry
{

namespace
{

/** BINGO_TELEMETRY truthiness: set and not "0" / "" / "false". */
bool
flagSet(const char *value)
{
    if (value == nullptr)
        return false;
    std::string v(value);
    return !v.empty() && v != "0" && v != "false" && v != "off";
}

} // namespace

Options
optionsFromEnv()
{
    Options options;
    options.epoch_instructions =
        envU64("BINGO_EPOCH_INSTRS", options.epoch_instructions);
    // An epoch of no instructions has no boundary to sample at.
    if (options.epoch_instructions == 0)
        throw std::invalid_argument(
            "BINGO_EPOCH_INSTRS=\"0\" is not a positive instruction "
            "count");
    return options;
}

std::string
outputDir()
{
    const char *dir = std::getenv("BINGO_TELEMETRY_DIR");
    return dir != nullptr ? std::string(dir) : std::string();
}

bool
requested()
{
    if (!outputDir().empty())
        return true;
    return flagSet(std::getenv("BINGO_TELEMETRY"));
}

} // namespace bingo::telemetry

/**
 * @file
 * bingo_worker entry point. Two modes:
 *  - `--stdio [--slot <n>] [--fault-epoch <e>]` — one worker of a
 *    distributed sweep, speaking the frame protocol over stdin/stdout.
 *    The coordinator launches it directly for BINGO_DIST_WORKERS and
 *    through a BINGO_DIST_HOSTS command template (typically ssh)
 *    otherwise. fd 1 is re-pointed at stderr so stray prints can never
 *    corrupt the frame stream;
 *  - `--sweep <manifest>` — run/resume a whole sweep described by a
 *    SweepManifest (dist/manifest.hpp), journaling next to it. This is
 *    the coordinator-crash recovery path: point it at the manifest of
 *    the dead coordinator's journal and the sweep finishes.
 * Anything else, including a malformed number, exits 64 with the
 * usage text. See worker.hpp for the protocol loop and EXPERIMENTS.md
 * ("Distributed sweeps" / "Multi-machine sweeps") for the
 * operator-facing picture.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include <unistd.h>

#include "common/env.hpp"
#include "dist/manifest.hpp"
#include "dist/worker.hpp"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --stdio [--slot <n>] [--fault-epoch <e>]\n"
        "       %s --sweep <manifest>\n"
        "Worker process of the distributed sweep runner; the\n"
        "coordinator launches the --stdio form (BINGO_DIST_WORKERS=N\n"
        "locally, BINGO_DIST_HOSTS command templates remotely) and\n"
        "speaks to it over stdin/stdout. <n> and <e> are unsigned\n"
        "decimal integers. The --sweep form runs or resumes a\n"
        "manifest's sweep directly — use it to recover a sweep whose\n"
        "coordinator died.\n",
        argv0, argv0);
    return 64;
}

} // namespace

int
main(int argc, char **argv)
{
    bool stdio = false;
    std::string manifest;
    std::uint64_t slot = 0;
    std::uint64_t fault_epoch = 1;
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--stdio") == 0) {
            stdio = true;
        } else if (has_value && std::strcmp(argv[i], "--slot") == 0) {
            if (!bingo::parseU64(argv[++i], slot) ||
                slot > std::numeric_limits<unsigned>::max())
                return usage(argv[0]);
        } else if (has_value &&
                   std::strcmp(argv[i], "--fault-epoch") == 0) {
            if (!bingo::parseU64(argv[++i], fault_epoch))
                return usage(argv[0]);
        } else if (has_value && std::strcmp(argv[i], "--sweep") == 0) {
            manifest = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    if (!manifest.empty())
        return bingo::dist::runManifestSweep(manifest);
    if (!stdio)
        return usage(argv[0]);

    // Keep private copies of the protocol ends, then point fd 1 at
    // stderr: any printf from the simulator (journal notices,
    // bench-style headers) lands in stderr instead of corrupting the
    // frame stream.
    const int in_fd = ::dup(0);
    const int out_fd = ::dup(1);
    if (in_fd < 0 || out_fd < 0) {
        std::fprintf(stderr, "bingo_worker: cannot dup stdio fds\n");
        return 1;
    }
    ::dup2(2, 1);
    return bingo::dist::workerMain(in_fd, out_fd,
                                   static_cast<unsigned>(slot),
                                   fault_epoch);
}

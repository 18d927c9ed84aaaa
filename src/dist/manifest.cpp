#include "dist/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dist/protocol.hpp"
#include "sim/journal.hpp"
#include "telemetry/export.hpp"

namespace bingo
{
namespace dist
{

namespace
{

constexpr char kManifestTag[] = "bingo-sweep";
constexpr unsigned kManifestVersion = 1;
constexpr std::size_t kMaxJobs = 1u << 20;
constexpr std::size_t kMaxEntry = 1u * 1024u * 1024u;

} // namespace

std::string
encodeManifest(const std::vector<SweepJob> &jobs)
{
    std::ostringstream out;
    out << kManifestTag << ' ' << kManifestVersion << '\n';
    out << "jobs " << jobs.size() << '\n';
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        WireJob wire;
        wire.index = i;
        wire.fingerprint = jobFingerprint(jobs[i]);
        wire.job = jobs[i];
        const std::string entry = encodeJob(wire);
        out << "entry " << entry.size() << '\n' << entry;
    }
    out << "end\n";
    return out.str();
}

bool
decodeManifest(const std::string &text, std::vector<SweepJob> &out)
{
    std::istringstream in(text);
    std::string tag;
    unsigned version = 0;
    std::size_t count = 0;
    std::string keyword;
    if (!(in >> tag >> version) || tag != kManifestTag ||
        version != kManifestVersion)
        return false;
    if (!(in >> keyword >> count) || keyword != "jobs" ||
        count > kMaxJobs)
        return false;
    std::vector<SweepJob> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::size_t size = 0;
        if (!(in >> keyword >> size) || keyword != "entry" ||
            size > kMaxEntry || in.get() != '\n')
            return false;
        std::string entry(size, '\0');
        if (!in.read(entry.data(),
                     static_cast<std::streamsize>(size)))
            return false;
        WireJob wire;
        if (!decodeJob(entry, wire))
            return false;
        jobs.push_back(std::move(wire.job));
    }
    if (!(in >> keyword) || keyword != "end")
        return false;
    out = std::move(jobs);
    return true;
}

std::string
manifestPath(const std::string &journal_dir)
{
    return (std::filesystem::path(journal_dir) / "manifest.sweep")
        .string();
}

void
manifestStore(const std::string &journal_dir,
              const std::vector<SweepJob> &jobs)
{
    std::error_code ec;
    std::filesystem::create_directories(journal_dir, ec);
    if (ec) {
        std::fprintf(stderr,
                     "bingo: cannot create journal dir %s for the "
                     "sweep manifest: %s\n",
                     journal_dir.c_str(), ec.message().c_str());
        return;
    }
    try {
        telemetry::atomicWrite(manifestPath(journal_dir),
                               encodeManifest(jobs));
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "bingo: could not write sweep manifest %s: %s "
                     "(sweep continues; it will not be "
                     "coordinator-crash-resumable)\n",
                     manifestPath(journal_dir).c_str(), e.what());
    }
}

ManifestLoad
manifestLoad(const std::string &path, std::vector<SweepJob> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return ManifestLoad::Unreadable;
    std::ostringstream text;
    text << in.rdbuf();
    return decodeManifest(text.str(), out) ? ManifestLoad::Ok
                                           : ManifestLoad::Undecodable;
}

int
runManifestSweep(const std::string &manifest_path)
{
    std::vector<SweepJob> jobs;
    switch (manifestLoad(manifest_path, jobs)) {
      case ManifestLoad::Ok:
        break;
      case ManifestLoad::Unreadable:
        std::fprintf(stderr, "bingo_worker: cannot read manifest %s\n",
                     manifest_path.c_str());
        return 64;
      case ManifestLoad::Undecodable:
        std::fprintf(stderr,
                     "bingo_worker: undecodable sweep manifest %s\n",
                     manifest_path.c_str());
        return 64;
    }
    const std::string journal_dir =
        std::filesystem::path(manifest_path).parent_path().string();
    // The manifest's own directory is the journal: resume state and
    // new results live next to it, and a rerun after any crash picks
    // both up. Overrides an inherited BINGO_JOURNAL_DIR so the journal
    // the manifest belongs to is always the one used.
    ::setenv("BINGO_JOURNAL_DIR", journal_dir.c_str(), 1);

    std::printf("Manifest sweep: %zu job(s) from %s\n", jobs.size(),
                manifest_path.c_str());
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs);
    std::size_t failed = 0;
    std::size_t skipped = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.status == JobStatus::Failed)
            ++failed;
        else if (outcome.status == JobStatus::Skipped)
            ++skipped;
    }
    std::printf("Manifest sweep: %zu job(s), %zu resumed from the "
                "journal, %zu failed\n",
                outcomes.size(), skipped, failed);
    reportFailures(jobs, outcomes);
    return failed == 0 ? 0 : 1;
}

} // namespace dist
} // namespace bingo

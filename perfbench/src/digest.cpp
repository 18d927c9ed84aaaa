#include "digest.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench
{

using bingo::CacheStats;
using bingo::DramStats;
using bingo::RunResult;

namespace
{

class Fnv1a
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    void u64(std::uint64_t value) { bytes(&value, sizeof(value)); }

    void
    f64(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &value)
    {
        u64(value.size());
        bytes(value.data(), value.size());
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Cache counters in the journal's order. */
void
addCache(Fnv1a &h, const CacheStats &s)
{
    for (std::uint64_t v :
         {s.demand_accesses, s.demand_hits, s.demand_misses,
          s.late_prefetch_hits, s.mshr_merges, s.mshr_stall_fetches,
          s.prefetch_requests, s.prefetch_drops,
          s.prefetch_drop_present, s.prefetch_drop_inflight,
          s.prefetch_drop_mshr, s.prefetch_fills, s.useful_prefetches,
          s.useless_prefetches, s.late_useful_prefetches, s.writebacks,
          s.evictions, s.demand_miss_latency})
        h.u64(v);
}

void
addDram(Fnv1a &h, const DramStats &s)
{
    for (std::uint64_t v :
         {s.reads, s.writes, s.row_hits, s.row_misses, s.row_conflicts,
          s.bus_busy_cycles, s.queue_delay_cycles})
        h.u64(v);
}

/** Sixteen lower-case hex digits. */
std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
    return buf;
}

} // namespace

std::uint64_t
resultDigest(const RunResult &result)
{
    Fnv1a h;
    h.str(result.workload);
    h.u64(static_cast<std::uint64_t>(result.kind));
    h.u64(result.core_ipc.size());
    for (double ipc : result.core_ipc)
        h.f64(ipc);
    h.u64(result.instructions);
    addCache(h, result.llc);
    addCache(h, result.l1d);
    addDram(h, result.dram);
    h.u64(result.prefetch_storage_bytes);
    h.u64(result.degraded ? 1 : 0);
    h.str(result.degraded_reason);
    return h.value();
}

std::string
referenceLine(std::uint64_t seed, std::size_t index, std::uint64_t digest,
              const std::string &label)
{
    return std::to_string(seed) + " " + std::to_string(index) + " " +
           digestHex(digest) + " " + label;
}

Reference
Reference::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return parse(text.str());
    } catch (const std::runtime_error &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

Reference
Reference::parse(const std::string &text)
{
    Reference reference;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::size_t index = 0;
        std::string hex;
        Entry entry;
        if (!(fields >> seed >> index >> hex) || hex.size() != 16 ||
            hex.find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            throw std::runtime_error("malformed reference line " +
                                     std::to_string(line_no));
        entry.digest = std::stoull(hex, nullptr, 16);
        std::getline(fields >> std::ws, entry.label);
        if (!reference.entries_.emplace(std::pair{seed, index}, entry)
                 .second)
            throw std::runtime_error("duplicate reference entry on line " +
                                     std::to_string(line_no));
    }
    return reference;
}

const Reference::Entry *
Reference::find(std::uint64_t seed, std::size_t index) const
{
    const auto it = entries_.find({seed, index});
    return it == entries_.end() ? nullptr : &it->second;
}

bool
matchesReference(const Reference &reference, std::uint64_t seed,
                 std::size_t index, const bingo::SweepJob &job,
                 const RunResult &result)
{
    const Reference::Entry *entry = reference.find(seed, index);
    const std::string label = jobLabel(job);
    if (entry == nullptr)
        throw std::runtime_error("no reference digest for seed " +
                                 std::to_string(seed) + " job " +
                                 std::to_string(index) + " (" + label +
                                 ")");
    if (entry->label != label)
        throw std::runtime_error(
            "stale reference: job " + std::to_string(index) + " is " +
            label + " but the reference names " + entry->label);
    return entry->digest == resultDigest(result);
}

CheckResult
checkSweep(const Reference &reference, std::uint64_t seed,
           const std::vector<bingo::SweepJob> &jobs,
           const std::vector<bingo::JobOutcome> &outcomes)
{
    if (outcomes.size() != jobs.size())
        throw std::logic_error("checkSweep: one outcome per job expected");
    CheckResult check;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const bingo::JobOutcome &outcome = outcomes[i];
        std::string problem;
        if (!outcome.ok())
            problem = "failed: " + outcome.error;
        else if (outcome.status == bingo::JobStatus::Degraded ||
                 outcome.result.degraded)
            problem = "degraded: " + outcome.error;
        else if (!matchesReference(reference, seed, i, jobs[i],
                                   outcome.result))
            problem = "result digest " +
                      digestHex(resultDigest(outcome.result)) +
                      " differs from the reference";
        if (!problem.empty()) {
            ++check.failed;
            check.problems.push_back(jobLabel(jobs[i]) + ": " + problem);
        }
    }
    return check;
}

} // namespace perfbench

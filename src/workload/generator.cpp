#include "workload/generator.hpp"

#include <algorithm>
#include <stdexcept>

namespace bingo
{

InterleavedSource::InterleavedSource(
    std::vector<std::unique_ptr<TraceSource>> sources, unsigned min_run,
    unsigned max_run, std::uint64_t seed, bool strict)
    : sources_(std::move(sources)), min_run_(min_run),
      max_run_(max_run), rng_(seed), strict_(strict)
{
    if (sources_.empty()) {
        throw std::invalid_argument(
            "InterleavedSource needs at least one source");
    }
    if (min_run_ < 1 || max_run_ < min_run_) {
        throw std::invalid_argument(
            "InterleavedSource run bounds must satisfy "
            "1 <= min_run <= max_run");
    }
}

void
InterleavedSource::switchIfDone()
{
    if (remaining_ > 0)
        return;
    current_ = strict_ ? (current_ + 1) % sources_.size()
                       : rng_.below(sources_.size());
    remaining_ = static_cast<unsigned>(rng_.range(min_run_, max_run_));
}

TraceRecord
InterleavedSource::next()
{
    switchIfDone();
    --remaining_;
    return sources_[current_]->next();
}

std::size_t
InterleavedSource::nextOps(TraceOp *out, std::size_t instructions)
{
    // The instruction stream of next(), cut at the same switch
    // points; a run split by a switch is joined back up when the next
    // sub-source's piece begins with non-memory instructions.
    std::size_t count = 0;
    while (instructions > 0) {
        switchIfDone();
        const std::size_t take =
            std::min<std::size_t>(instructions, remaining_);
        TraceOp *piece = out + count;
        const std::size_t got = sources_[current_]->nextOps(piece, take);
        if (count > 0 && out[count - 1].type == InstrType::Alu) {
            count = appendOp(out, count, piece[0]);
            std::copy(piece + 1, piece + got, out + count);
            count += got - 1;
        } else {
            count += got;
        }
        remaining_ -= static_cast<unsigned>(take);
        instructions -= take;
    }
    return count;
}

std::vector<RecordClass>
RecordClass::makeClasses(unsigned count, unsigned trigger_sites,
                         unsigned region_blocks, unsigned min_fields,
                         unsigned max_fields, Rng &rng)
{
    if (min_fields < 1 || max_fields > region_blocks) {
        throw std::invalid_argument(
            "RecordClass fields must satisfy 1 <= min_fields and "
            "max_fields <= region blocks");
    }
    if (trigger_sites < 1) {
        throw std::invalid_argument(
            "RecordClass needs at least one trigger site");
    }

    // One trigger event (PC, offset) per site; classes round-robin
    // over the sites.
    std::vector<std::pair<Addr, unsigned>> sites(trigger_sites);
    for (unsigned s = 0; s < trigger_sites; ++s) {
        sites[s] = {0x410000 + s * 0x40,
                    static_cast<unsigned>(rng.below(region_blocks / 2))};
    }

    // Classes behind one site share a base schema (records of related
    // types share their header fields) and differ in their tail
    // fields. The shared base keeps short-event predictions partially
    // correct; the divergent tails are what the long event is needed
    // for.
    std::vector<std::vector<unsigned>> base_offsets(trigger_sites);
    for (unsigned s = 0; s < trigger_sites; ++s) {
        std::uint64_t used = 1ULL << sites[s].second;
        const unsigned base_fields = min_fields > 1 ? min_fields - 1 : 0;
        for (unsigned f = 0; f < base_fields; ++f) {
            unsigned off;
            do {
                off = static_cast<unsigned>(rng.below(region_blocks));
            } while ((used >> off) & 1);
            used |= 1ULL << off;
            base_offsets[s].push_back(off);
        }
    }

    std::vector<RecordClass> classes(count);
    for (unsigned c = 0; c < count; ++c) {
        RecordClass &cls = classes[c];
        const unsigned site = c % trigger_sites;
        const auto fields = static_cast<unsigned>(
            rng.range(min_fields, max_fields));

        const auto &[trigger_pc, trigger_offset] = sites[site];
        cls.field_offsets.push_back(trigger_offset);
        cls.field_pcs.push_back(trigger_pc);

        std::uint64_t used = 1ULL << trigger_offset;
        for (unsigned off : base_offsets[site]) {
            used |= 1ULL << off;
            cls.field_offsets.push_back(off);
            cls.field_pcs.push_back(0x418000 + site * 0x100 +
                                    off * 4);
        }

        // Tail fields: distinct per-class offsets and PCs.
        while (cls.field_offsets.size() < fields) {
            unsigned off;
            do {
                off = static_cast<unsigned>(rng.below(region_blocks));
            } while ((used >> off) & 1);
            used |= 1ULL << off;
            cls.field_offsets.push_back(off);
            cls.field_pcs.push_back(0x420000 + c * 0x100 + off * 4);
        }
    }
    return classes;
}

} // namespace bingo

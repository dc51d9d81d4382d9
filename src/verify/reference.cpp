#include "verify/reference.h"

#include <algorithm>

#include "cfg/types.h"
#include "support/check.h"

namespace stc::verify {
namespace {

// One executed instruction of the dynamic path.
struct Insn {
  std::uint64_t addr = 0;
  cfg::BlockId block = 0;
  bool control = false;  // last instruction of a branch/call/return block
  bool taken = false;    // last instruction of its block, and the next
                         // block does not start where this one ends
};

// The whole dynamic path, one entry per executed instruction.
std::vector<Insn> instruction_path(const trace::BlockTrace& trace,
                                   const cfg::ProgramImage& image,
                                   const cfg::AddressMap& layout) {
  std::vector<Insn> path;
  bool have_prev = false;
  std::uint64_t prev_end = 0;
  trace::BlockTrace::Cursor cursor(trace);
  while (!cursor.done()) {
    const cfg::BlockId block = cursor.next();
    const cfg::BlockInfo& info = image.block(block);
    const std::uint64_t start = layout.addr(block);
    if (have_prev && start != prev_end) path.back().taken = true;
    for (std::uint32_t i = 0; i < info.insns; ++i) {
      Insn insn;
      insn.addr = start + std::uint64_t{i} * cfg::kInsnBytes;
      insn.block = block;
      insn.control = i + 1 == info.insns && cfg::ends_in_branch(info.kind);
      path.push_back(insn);
    }
    have_prev = true;
    prev_end = start + std::uint64_t{info.insns} * cfg::kInsnBytes;
  }
  return path;
}

// A textbook cache: each set lists its resident line numbers, most recently
// used first. Direct-mapped is the one-way case.
class NaiveCache {
 public:
  explicit NaiveCache(const sim::CacheGeometry& geometry)
      : ways_(geometry.assoc),
        sets_(geometry.size_bytes / (geometry.line_bytes * geometry.assoc)) {
    STC_REQUIRE(!sets_.empty());
  }

  // Looks up line number `line`; a miss fills it, evicting the least
  // recently used line of a full set. Returns true on a hit.
  bool access(std::uint64_t line) {
    ++stats_.accesses;
    std::vector<std::uint64_t>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
    } else {
      ++stats_.misses;
      if (set.size() == ways_) set.pop_back();
    }
    set.insert(set.begin(), line);
    return hit;
  }

  const sim::CacheStats& stats() const { return stats_; }

 private:
  std::size_t ways_;
  std::vector<std::vector<std::uint64_t>> sets_;
  sim::CacheStats stats_;
};

// One SEQ.3 cycle starting at path[next]: fetches from that instruction's
// line and the line after it, at most `params.width` instructions, stopping
// after the first taken transfer or the `params.max_branches`-th control
// transfer, and charges the cycle to `out`. Returns the instructions
// supplied.
std::size_t seq3_cycle(const std::vector<Insn>& path, std::size_t next,
                       const sim::FetchParams& params,
                       std::uint64_t line_bytes, NaiveCache& cache,
                       sim::FetchResult& out) {
  const std::uint64_t line = path[next].addr / line_bytes;
  const std::uint64_t second_line_start = (line + 1) * line_bytes;
  const std::uint64_t fetch_end = (line + 2) * line_bytes;
  std::size_t fetched = 0;
  std::uint32_t transfers = 0;
  bool reached_second_line = false;
  while (fetched < params.width && next + fetched < path.size()) {
    const Insn& insn = path[next + fetched];
    if (insn.addr >= fetch_end) break;
    ++fetched;
    if (insn.addr >= second_line_start) reached_second_line = true;
    if (insn.control) ++transfers;
    if (insn.taken || transfers >= params.max_branches) break;
  }
  out.instructions += fetched;
  ++out.fetch_requests;
  ++out.cycles;
  if (params.perfect_icache) return fetched;
  std::uint32_t missing = cache.access(line) ? 0 : 1;
  if (reached_second_line && !cache.access(line + 1)) ++missing;
  if (missing == 0) return fetched;
  ++out.miss_requests;
  out.lines_missed += missing;
  out.cycles += params.penalty_per_line
                    ? std::uint64_t{params.miss_penalty} * missing
                    : params.miss_penalty;
  return fetched;
}

}  // namespace

ReferenceMissRate reference_missrate(const trace::BlockTrace& trace,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     const sim::CacheGeometry& geometry) {
  ReferenceMissRate out;
  out.per_block.assign(image.num_blocks(), 0);
  NaiveCache cache(geometry);
  const std::uint64_t line_bytes = geometry.line_bytes;
  bool have_prev = false;
  std::uint64_t prev_line = 0;
  for (const Insn& insn : instruction_path(trace, image, layout)) {
    ++out.result.instructions;
    const std::uint64_t first = insn.addr / line_bytes;
    const std::uint64_t last = (insn.addr + cfg::kInsnBytes - 1) / line_bytes;
    for (std::uint64_t line = first; line <= last; ++line) {
      if (have_prev && line == prev_line) continue;
      ++out.result.line_accesses;
      if (!cache.access(line)) {
        ++out.result.misses;
        ++out.per_block[insn.block];
      }
      have_prev = true;
      prev_line = line;
    }
  }
  out.cache = cache.stats();
  return out;
}

ReferenceSeq3 reference_seq3(const trace::BlockTrace& trace,
                             const cfg::ProgramImage& image,
                             const cfg::AddressMap& layout,
                             const sim::FetchParams& params,
                             const sim::CacheGeometry& geometry) {
  STC_REQUIRE(params.width > 0);
  ReferenceSeq3 out;
  NaiveCache cache(geometry);
  const std::vector<Insn> path = instruction_path(trace, image, layout);
  std::size_t next = 0;
  while (next < path.size()) {
    next += seq3_cycle(path, next, params, geometry.line_bytes, cache,
                       out.result);
  }
  out.cache = cache.stats();
  return out;
}

ReferenceTraceCache reference_trace_cache(const trace::BlockTrace& trace,
                                          const cfg::ProgramImage& image,
                                          const cfg::AddressMap& layout,
                                          const sim::FetchParams& params,
                                          const sim::TraceCacheParams& tc,
                                          const sim::CacheGeometry& geometry) {
  STC_REQUIRE(params.width > 0 && tc.width > 0 && tc.entries > 0);
  ReferenceTraceCache out;
  NaiveCache cache(geometry);
  const std::vector<Insn> path = instruction_path(trace, image, layout);
  // Each entry's stored addresses, its start first; empty = invalid.
  std::vector<std::vector<std::uint64_t>> entries(tc.entries);
  const auto entry_of = [&](std::uint64_t addr) -> std::vector<std::uint64_t>& {
    return entries[(addr / cfg::kInsnBytes) % tc.entries];
  };
  bool filling = false;
  std::vector<std::uint64_t> fill;
  std::uint32_t fill_transfers = 0;
  std::size_t next = 0;
  while (next < path.size()) {
    const std::vector<std::uint64_t>& entry = entry_of(path[next].addr);
    bool hit = !entry.empty() && next + entry.size() <= path.size();
    for (std::size_t k = 0; hit && k < entry.size(); ++k) {
      hit = path[next + k].addr == entry[k];
    }
    ++out.result.tc_probes;
    std::size_t supplied = 0;
    if (hit) {
      ++out.result.tc_hits;
      supplied = entry.size();
      out.result.instructions += supplied;
      ++out.result.fetch_requests;
      ++out.result.cycles;
    } else {
      ++out.result.tc_misses;
      if (!filling) {
        filling = true;
        fill.clear();
        fill_transfers = 0;
      }
      supplied = seq3_cycle(path, next, params, geometry.line_bytes, cache,
                            out.result);
    }
    for (std::size_t k = 0; filling && k < supplied; ++k) {
      fill.push_back(path[next + k].addr);
      if (path[next + k].control) ++fill_transfers;
      if (fill.size() >= tc.width || fill_transfers >= tc.max_branches) {
        entry_of(fill.front()) = fill;
        ++out.result.tc_fills;
        filling = false;
      }
    }
    next += supplied;
  }
  out.cache = cache.stats();
  return out;
}

}  // namespace stc::verify

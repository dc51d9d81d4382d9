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
  const std::uint64_t line_bytes = geometry.line_bytes;
  const std::vector<Insn> path = instruction_path(trace, image, layout);
  std::size_t next = 0;
  while (next < path.size()) {
    const std::uint64_t line = path[next].addr / line_bytes;
    const std::uint64_t second_line_start = (line + 1) * line_bytes;
    const std::uint64_t fetch_end = (line + 2) * line_bytes;
    std::uint32_t fetched = 0;
    std::uint32_t transfers = 0;
    bool reached_second_line = false;
    while (fetched < params.width && next < path.size()) {
      const Insn& insn = path[next];
      if (insn.addr >= fetch_end) break;
      ++fetched;
      ++next;
      if (insn.addr >= second_line_start) reached_second_line = true;
      if (insn.control) ++transfers;
      if (insn.taken || transfers >= params.max_branches) break;
    }
    out.result.instructions += fetched;
    ++out.result.fetch_requests;
    ++out.result.cycles;
    if (params.perfect_icache) continue;
    std::uint32_t missing = cache.access(line) ? 0 : 1;
    if (reached_second_line && !cache.access(line + 1)) ++missing;
    if (missing == 0) continue;
    ++out.result.miss_requests;
    out.result.lines_missed += missing;
    out.result.cycles +=
        params.penalty_per_line
            ? std::uint64_t{params.miss_penalty} * missing
            : params.miss_penalty;
  }
  out.cache = cache.stats();
  return out;
}

}  // namespace stc::verify

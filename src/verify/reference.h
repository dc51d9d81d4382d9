// Naive reference model for the Table 3 miss rate and the Table 4 SEQ.3
// fetch unit, alone and behind a trace cache.
//
// The production simulators (src/sim) are fast and come in two engines —
// the per-event interpreter and compiled replay plans — that are checked
// against each other. This model is the third party that keeps both honest:
// it walks the dynamic path one instruction at a time, straight from the
// BlockTrace cursor, the program image and the layout, and applies the
// textbook rules with no pre-resolved tables, no shared fetch pipe and no
// production cache. It is slow on purpose and short enough to trust by
// reading; verify::check_replay_modes compares both engines against it.
//
// Covered configurations: direct-mapped and set-associative caches with
// true LRU replacement (no victim cache), and SEQ.3 with perfect branch
// prediction in all three miss-charging modes (per request, per line,
// perfect I-cache), with or without a direct-mapped trace cache.
#pragma once

#include <cstdint>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/trace_cache.h"
#include "trace/block_trace.h"

namespace stc::verify {

// Table 3: every executed instruction probes the line(s) holding its bytes.
// Consecutive instructions on one line probe once; a line left and
// re-entered probes again. Each miss is charged to the block whose
// instruction probed.
struct ReferenceMissRate {
  sim::MissRateResult result;
  sim::CacheStats cache;                  // victim_hits is always 0
  std::vector<std::uint64_t> per_block;   // misses, indexed by block id
};

ReferenceMissRate reference_missrate(const trace::BlockTrace& trace,
                                     const cfg::ProgramImage& image,
                                     const cfg::AddressMap& layout,
                                     const sim::CacheGeometry& geometry);

// Table 4 SEQ.3 with perfect prediction. Each cycle fetches from the line
// holding the next instruction and the line after it: at most
// `params.width` instructions, stopping after the first taken transfer or
// the `params.max_branches`-th control transfer. Every cycle probes the
// first line, and the second when the group reached it; a cycle with a
// missing line costs `params.miss_penalty` extra cycles (per missing line
// with `penalty_per_line`, never with `perfect_icache`). `geometry` gives
// the line size even when the I-cache is perfect.
struct ReferenceSeq3 {
  sim::FetchResult result;
  sim::CacheStats cache;
};

ReferenceSeq3 reference_seq3(const trace::BlockTrace& trace,
                             const cfg::ProgramImage& image,
                             const cfg::AddressMap& layout,
                             const sim::FetchParams& params,
                             const sim::CacheGeometry& geometry);

// Table 4 SEQ.3 behind a direct-mapped trace cache, perfect prediction.
// Entry (addr / kInsnBytes) mod `tc.entries` holds the addresses of one
// stored trace, its start first. A cycle hits when the entry indexed by the
// next instruction starts there and the next instructions of the path are
// exactly its stored addresses; the hit supplies them all in one cycle with
// no I-cache probe. Any other cycle is a miss and runs reference_seq3's
// cycle, opening a fill at its first instruction unless one is open. Every
// supplied instruction, hit or miss, joins the open fill, which is written
// to the entry of its first address once it holds `tc.width` instructions or
// `tc.max_branches` control transfers. A fill still open when the path ends
// is never written.
struct ReferenceTraceCache {
  sim::FetchResult result;
  sim::CacheStats cache;
};

ReferenceTraceCache reference_trace_cache(const trace::BlockTrace& trace,
                                          const cfg::ProgramImage& image,
                                          const cfg::AddressMap& layout,
                                          const sim::FetchParams& params,
                                          const sim::TraceCacheParams& tc,
                                          const sim::CacheGeometry& geometry);

}  // namespace stc::verify

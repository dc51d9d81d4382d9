// Instruction cache simulator.
//
// Supports the three hardware organizations Table 3 compares against code
// reordering: direct-mapped, 2-way (any power-of-two associativity with true
// LRU), and a fully-associative victim cache bolted onto the main cache.
// Addresses are byte addresses; the cache operates on line granularity.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/program.h"
#include "support/check.h"
#include "support/stats.h"
#include "trace/block_trace.h"

namespace stc::sim {

struct CacheGeometry {
  std::uint32_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 64;  // 16 four-byte instructions (SEQ.3 default)
  std::uint32_t assoc = 1;        // ways; sets = size / (line * assoc)

  std::uint32_t num_sets() const { return size_bytes / (line_bytes * assoc); }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t victim_hits = 0;  // misses rescued by the victim cache

  double miss_ratio() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

class ICache {
 public:
  // victim_lines > 0 attaches a fully-associative LRU victim cache of that
  // many lines; lines evicted from the main cache land there, and a victim
  // hit swaps the line back (counted as a hit in the stats).
  explicit ICache(const CacheGeometry& geometry, std::uint32_t victim_lines = 0);

  const CacheGeometry& geometry() const { return geometry_; }

  // Accesses the line containing `addr`; returns true on hit. On a miss the
  // line is filled (allocate-on-miss).
  bool access(std::uint64_t addr);

  // Probes without side effects (used by tests).
  bool contains(std::uint64_t addr) const;

  // Installs the line containing `addr` without touching the access stats or
  // the observer: prefetches are not demand probes, so the Table 3/4 counter
  // contracts are unaffected. Returns true when the line was already present
  // (main or victim cache; a victim copy is promoted back, as in access());
  // on false the line has been filled, evicting per the normal LRU/victim
  // policy — prefetch pollution is modeled, prefetch hits are not counted.
  bool prefetch_fill(std::uint64_t addr);

  // Verification hook: called once per access() with the line-aligned
  // address and the outcome (true = hit, including victim-cache rescues),
  // after the stats counters have been updated. Lets an external checker
  // recount probes/misses independently of CacheStats.
  using AccessObserver = std::function<void(std::uint64_t line_addr, bool hit)>;
  void set_observer(AccessObserver observer) {
    observer_ = std::move(observer);
  }

  void reset();
  const CacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr / geometry_.line_bytes;
  }

  // Returns true if `line` is in the victim cache, with its slot.
  bool probe_victim(std::uint64_t line, std::uint64_t* slot);

  // The fill path shared by access() misses and prefetch_fill(): installs
  // `line` in the LRU way of the set starting at `base`, stamped with the
  // current lru_clock_. Returns true when the line came out of the victim
  // cache (the evicted line takes its slot); otherwise the evicted line is
  // demoted into the victim cache. Touches no stats.
  bool fill(std::uint64_t line, std::size_t base);

  CacheGeometry geometry_;
  std::uint32_t sets_;
  // tags_[set * assoc + way]; lru_[same index] holds a recency counter.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> lru_;
  std::uint64_t lru_clock_ = 0;

  std::vector<std::uint64_t> victim_tags_;
  std::vector<std::uint64_t> victim_lru_;

  AccessObserver observer_;
  CacheStats stats_;
};

// ---- Table 3 driver --------------------------------------------------------

struct MissRateResult {
  std::uint64_t instructions = 0;
  std::uint64_t line_accesses = 0;
  std::uint64_t misses = 0;

  // The paper's Table 3 metric: i-cache misses per instruction executed,
  // reported as a percentage (e.g. 6.5 for the 8K/orig cell).
  double misses_per_100_insns() const {
    return instructions == 0 ? 0.0
                             : 100.0 * static_cast<double>(misses) /
                                   static_cast<double>(instructions);
  }

  // Registers the raw event counts for machine-readable reporting.
  void export_counters(CounterSet& out) const;
};

// Streams every executed instruction of the trace (under `layout`) through
// the cache, touching each line once per crossing. The trace is decoded one
// chunk at a time into replay_detail::missrate_span (sim/replay.h), so
// memory stays about one chunk plus a per-block table. When
// `per_block_misses` is non-null it is resized to the block count and
// accumulates each miss against the block whose instructions triggered it
// (the paper's per-module miss attribution, Section 4 / tech report
// UPC-DAC-1998-56).
MissRateResult run_missrate(const trace::BlockTrace& trace,
                            const cfg::ProgramImage& image,
                            const cfg::AddressMap& layout, ICache& cache,
                            std::vector<std::uint64_t>* per_block_misses =
                                nullptr);

}  // namespace stc::sim

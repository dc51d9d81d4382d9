#include "sim/icache.h"

#include "sim/replay.h"

namespace stc::sim {

void CacheStats::export_counters(CounterSet& out) const {
  out.add("cache_probes", accesses);
  out.add("cache_misses", misses);
  out.add("victim_hits", victim_hits);
}

void MissRateResult::export_counters(CounterSet& out) const {
  out.add("instructions", instructions);
  out.add("line_probes", line_accesses);
  out.add("cache_misses", misses);
}

ICache::ICache(const CacheGeometry& geometry, std::uint32_t victim_lines)
    : geometry_(geometry) {
  STC_REQUIRE(geometry.line_bytes > 0 &&
              (geometry.line_bytes & (geometry.line_bytes - 1)) == 0);
  STC_REQUIRE(geometry.assoc > 0);
  STC_REQUIRE(geometry.size_bytes % (geometry.line_bytes * geometry.assoc) ==
              0);
  sets_ = geometry.num_sets();
  STC_REQUIRE((sets_ & (sets_ - 1)) == 0);
  tags_.assign(std::size_t{sets_} * geometry.assoc, kInvalidTag);
  lru_.assign(tags_.size(), 0);
  victim_tags_.assign(victim_lines, kInvalidTag);
  victim_lru_.assign(victim_lines, 0);
}

void ICache::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(victim_tags_.begin(), victim_tags_.end(), kInvalidTag);
  std::fill(victim_lru_.begin(), victim_lru_.end(), 0);
  lru_clock_ = 0;
  stats_ = CacheStats{};
}

bool ICache::probe_victim(std::uint64_t line, std::uint64_t* slot) {
  for (std::size_t i = 0; i < victim_tags_.size(); ++i) {
    if (victim_tags_[i] == line) {
      *slot = i;
      return true;
    }
  }
  return false;
}

bool ICache::access(std::uint64_t addr) {
  ++stats_.accesses;
  ++lru_clock_;
  const std::uint64_t line = line_of(addr);
  const std::uint32_t set = static_cast<std::uint32_t>(line & (sets_ - 1));
  const std::size_t base = std::size_t{set} * geometry_.assoc;
  const auto notify = [&](bool hit) {
    if (observer_) observer_(line * geometry_.line_bytes, hit);
    return hit;
  };

  // Main-cache lookup.
  for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
    if (tags_[base + way] == line) {
      lru_[base + way] = lru_clock_;
      return notify(true);
    }
  }

  if (fill(line, base)) {
    ++stats_.victim_hits;
    return notify(true);
  }
  ++stats_.misses;
  return notify(false);
}

bool ICache::prefetch_fill(std::uint64_t addr) {
  const std::uint64_t line = line_of(addr);
  const std::uint32_t set = static_cast<std::uint32_t>(line & (sets_ - 1));
  const std::size_t base = std::size_t{set} * geometry_.assoc;

  // Already resident in the main cache: leave the LRU order alone (a
  // prefetch of a cached line is a no-op, not a demand reference).
  for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
    if (tags_[base + way] == line) return true;
  }
  ++lru_clock_;
  return fill(line, base);
}

bool ICache::fill(std::uint64_t line, std::size_t base) {
  // The LRU way of the set is the fill/eviction slot.
  std::uint32_t victim_way = 0;
  for (std::uint32_t way = 1; way < geometry_.assoc; ++way) {
    if (lru_[base + way] < lru_[base + victim_way]) victim_way = way;
  }
  const std::uint64_t evicted = tags_[base + victim_way];
  tags_[base + victim_way] = line;
  lru_[base + victim_way] = lru_clock_;
  if (victim_tags_.empty()) return false;

  // Victim-cache rescue: the evicted line takes the slot the requested line
  // is promoted from. Otherwise it is demoted into the victim cache's LRU
  // slot.
  std::uint64_t slot = 0;
  const bool rescued = probe_victim(line, &slot);
  if (!rescued) {
    if (evicted == kInvalidTag) return false;
    for (std::size_t i = 1; i < victim_tags_.size(); ++i) {
      if (victim_lru_[i] < victim_lru_[slot]) slot = i;
    }
  }
  victim_tags_[slot] = evicted;
  victim_lru_[slot] = lru_clock_;
  return rescued;
}

bool ICache::contains(std::uint64_t addr) const {
  const std::uint64_t line = line_of(addr);
  const std::uint32_t set = static_cast<std::uint32_t>(line & (sets_ - 1));
  const std::size_t base = std::size_t{set} * geometry_.assoc;
  for (std::uint32_t way = 0; way < geometry_.assoc; ++way) {
    if (tags_[base + way] == line) return true;
  }
  for (std::uint64_t tag : victim_tags_) {
    if (tag == line) return true;
  }
  return false;
}

MissRateResult run_missrate(const trace::BlockTrace& trace,
                            const cfg::ProgramImage& image,
                            const cfg::AddressMap& layout, ICache& cache,
                            std::vector<std::uint64_t>* per_block_misses) {
  MissRateResult result;
  if (per_block_misses != nullptr) {
    per_block_misses->assign(image.num_blocks(), 0);
  }
  ReplayArena arena;
  BlockMetaTable meta;
  meta.build(image, layout, arena);
  // One chunk in memory at a time; the carried state keeps a line that a
  // chunk's first event re-enters from probing twice.
  replay_detail::MissSpanState state;
  std::vector<cfg::BlockId> chunk;
  for (std::size_t c = 0; c < trace.num_chunks(); ++c) {
    chunk.clear();
    decode_checked_chunk(trace, c, meta, chunk);
    replay_detail::missrate_span(chunk.data(), chunk.size(), meta, nullptr,
                                 cache.geometry().line_bytes, cache,
                                 per_block_misses, ReplayKernel::kScalar,
                                 state, result);
  }
  return result;
}

}  // namespace stc::sim

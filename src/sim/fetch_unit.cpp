#include "sim/fetch_unit.h"

#include "sim/replay.h"
#include "support/check.h"

namespace stc::sim {

void FetchResult::export_counters(CounterSet& out) const {
  out.add("instructions", instructions);
  out.add("cycles", cycles);
  out.add("fetch_requests", fetch_requests);
  out.add("miss_requests", miss_requests);
  out.add("lines_missed", lines_missed);
  out.add("tc_hits", tc_hits);
  out.add("tc_misses", tc_misses);
  out.add("tc_fills", tc_fills);
  out.add("tc_probes", tc_probes);
}

FetchPipe::FetchPipe(const trace::BlockTrace& trace,
                     const cfg::ProgramImage& image,
                     const cfg::AddressMap& layout)
    : trace_(&trace) {
  own_meta_.build(image, layout, arena_);
  meta_ = &own_meta_;
  ahead(0);
}

FetchPipe::FetchPipe(const ReplayPlan& plan)
    : events_(plan.slab().data()),
      count_(plan.slab().size()),
      meta_(&plan.meta()) {}

bool FetchPipe::decode_until(std::size_t j) {
  if (trace_ == nullptr) return false;
  while (index_ + j >= buffer_.size()) {
    if (next_chunk_ >= trace_->num_chunks()) return false;
    // Drop the consumed events before growing the buffer.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(index_));
    index_ = 0;
    decode_checked_chunk(*trace_, next_chunk_++, *meta_, buffer_);
    events_ = buffer_.data();
    count_ = buffer_.size();
  }
  return true;
}

bool FetchPipe::peek(std::uint32_t k, Insn& out) {
  std::uint64_t pos = std::uint64_t{offset_} + k;
  std::size_t j = 0;
  for (;; ++j) {
    if (!ahead(j)) return false;
    const std::uint32_t insns = meta_->insns(events_[index_ + j]);
    if (pos < insns) break;
    pos -= insns;
  }
  const cfg::BlockId b = events_[index_ + j];
  out.addr = meta_->addr(b) + pos * cfg::kInsnBytes;
  out.block = b;
  out.block_end = pos + 1 == meta_->insns(b);
  out.is_branch = out.block_end && meta_->ends_in_branch(b);
  out.taken = out.block_end && ahead(j + 1) &&
              meta_->addr(events_[index_ + j + 1]) != meta_->end_addr(b);
  out.kind = meta_->kind(b);
  return true;
}

void FetchPipe::consume(std::uint32_t n) {
  std::uint64_t pos = std::uint64_t{offset_} + n;
  // Advancing to the next event also decodes it, so done() is exact.
  while (ahead(0)) {
    const std::uint32_t insns = meta_->insns(events_[index_]);
    if (pos < insns) break;
    pos -= insns;
    ++index_;
  }
  STC_REQUIRE(pos == 0 || !done());
  offset_ = static_cast<std::uint32_t>(pos);
}

Seq3Cycle seq3_fetch_cycle(FetchPipe& pipe, const FetchParams& params,
                           std::uint32_t line_bytes, Seq3Group* group) {
  Seq3Cycle cycle;
  const std::uint64_t fetch_addr = pipe.addr();
  const std::uint64_t line_base = fetch_addr & ~std::uint64_t{line_bytes - 1};
  const std::uint64_t limit_addr = line_base + 2 * std::uint64_t{line_bytes};
  cycle.line0 = line_base;

  std::uint32_t branches = 0;
  std::uint64_t last_addr = fetch_addr;
  FetchPipe::Insn insn;
  while (cycle.supplied < params.width) {
    if (!pipe.peek(cycle.supplied, insn)) break;
    if (insn.addr >= limit_addr) break;  // beyond the two accessed lines
    ++cycle.supplied;
    last_addr = insn.addr;
    if (group != nullptr) group->insns.push_back(insn);
    if (insn.is_branch) ++branches;
    if (insn.taken) break;               // stop at the first taken transfer
    if (branches >= params.max_branches) break;
  }
  STC_DCHECK(cycle.supplied > 0);
  if (group != nullptr) {
    FetchPipe::Insn next;
    group->has_next = pipe.peek(cycle.supplied, next);
    group->next_addr = group->has_next ? next.addr : 0;
  }
  cycle.touched_line1 = last_addr >= line_base + line_bytes;
  pipe.consume(cycle.supplied);
  return cycle;
}

namespace {

// The simulation proper: both run_seq3 overloads feed it a FetchPipe
// (trace-built or plan-built) and get bit-identical counters.
FetchResult run_seq3_pipe(FetchPipe& pipe, const FetchParams& params,
                          ICache* cache) {
  STC_REQUIRE(params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

  FetchResult result;
  while (!pipe.done()) {
    const Seq3Cycle cycle = seq3_fetch_cycle(pipe, params, line_bytes);
    result.instructions += cycle.supplied;
    ++result.fetch_requests;
    ++result.cycles;
    if (!params.perfect_icache) {
      std::uint32_t missed = cache->access(cycle.line0) ? 0 : 1;
      if (cycle.touched_line1 && !cache->access(cycle.line0 + line_bytes)) {
        ++missed;
      }
      if (missed > 0) {
        ++result.miss_requests;
        result.lines_missed += missed;
        result.cycles += params.penalty_per_line
                             ? std::uint64_t{params.miss_penalty} * missed
                             : params.miss_penalty;
      }
    }
  }
  return result;
}

}  // namespace

FetchResult run_seq3(const trace::BlockTrace& trace,
                     const cfg::ProgramImage& image,
                     const cfg::AddressMap& layout, const FetchParams& params,
                     ICache* cache) {
  FetchPipe pipe(trace, image, layout);
  return run_seq3_pipe(pipe, params, cache);
}

FetchResult run_seq3(const ReplayPlan& plan, const FetchParams& params,
                     ICache* cache) {
  FetchPipe pipe(plan);
  return run_seq3_pipe(pipe, params, cache);
}

}  // namespace stc::sim

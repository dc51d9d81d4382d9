// The naive reference model (verify/reference.h) against counts worked out
// by hand on a tiny program (the trace-cache cases also hold the production
// simulator to them), and the oracle's comparison against it
// reporting a production counter that was tampered with.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/trace_cache.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "trace/block_trace.h"
#include "verify/oracle.h"
#include "verify/reference.h"

namespace stc::verify {
namespace {

// Four blocks placed by hand; with 16-byte lines (four instructions each):
//   b0  4 insns, branch       @0   bytes  0..15  line 0
//   b1  4 insns, fall-through @24  bytes 24..39  lines 1, 2
//   b2  3 insns, return       @64  bytes 64..75  line 4
//   b3  2 insns, branch       @40  bytes 40..47  line 2 (right after b1)
struct HandProgram {
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::AddressMap layout;
};

HandProgram hand_program() {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("m");
  builder.routine("r", mod,
                  {{"b0", 4, cfg::BlockKind::kBranch},
                   {"b1", 4, cfg::BlockKind::kFallThrough},
                   {"b2", 3, cfg::BlockKind::kReturn},
                   {"b3", 2, cfg::BlockKind::kBranch}});
  HandProgram p;
  p.image = builder.build();
  p.layout = cfg::AddressMap("hand", p.image->num_blocks());
  p.layout.set(0, 0);
  p.layout.set(1, 24);
  p.layout.set(2, 64);
  p.layout.set(3, 40);
  return p;
}

trace::BlockTrace make_trace(const std::vector<cfg::BlockId>& events) {
  trace::BlockTrace trace;
  for (const cfg::BlockId b : events) trace.append(b);
  return trace;
}

TEST(ReferenceModelTest, MissRateCountsByHand) {
  const HandProgram p = hand_program();
  // b0 b0 b1 b2 b0 b2: the second b0 stays on line 0 (no probe); b1 probes
  // lines 1 and 2; the rest probe one line each. 22 instructions, 6 probes.
  const trace::BlockTrace trace = make_trace({0, 0, 1, 2, 0, 2});

  // Direct-mapped, two sets: lines 0, 2 and 4 all fight over set 0, so
  // every probe misses.
  const ReferenceMissRate dm =
      reference_missrate(trace, *p.image, p.layout, {32, 16, 1});
  EXPECT_EQ(dm.result.instructions, 22u);
  EXPECT_EQ(dm.result.line_accesses, 6u);
  EXPECT_EQ(dm.result.misses, 6u);
  EXPECT_EQ(dm.cache.accesses, 6u);
  EXPECT_EQ(dm.cache.misses, 6u);
  EXPECT_EQ(dm.per_block, (std::vector<std::uint64_t>{2, 2, 2, 0}));

  // Two ways, one set, true LRU: [0] [1 0] [2 1] [4 2] [0 4], then b2's
  // line 4 is still resident — five misses, b2 charged only once.
  const ReferenceMissRate lru =
      reference_missrate(trace, *p.image, p.layout, {32, 16, 2});
  EXPECT_EQ(lru.result.instructions, 22u);
  EXPECT_EQ(lru.result.line_accesses, 6u);
  EXPECT_EQ(lru.result.misses, 5u);
  EXPECT_EQ(lru.per_block, (std::vector<std::uint64_t>{2, 2, 1, 0}));
}

TEST(ReferenceModelTest, Seq3CountsByHand) {
  const HandProgram p = hand_program();
  // b0 b1 b3 b2 b0 b0. Fetch cycles (16-byte lines):
  //   1: 0..12         stops at b0's taken branch         line 0
  //   2: 24..44        b1 falls into b3; stops at its taken branch
  //                                                       lines 1, 2
  //   3: 64..72        stops at b2's taken return         line 4
  //   4: 0..12         taken branch back to b0            line 0
  //   5: 0..12         end of trace                       line 0
  // Direct-mapped over two sets: cycle 1 misses line 0, cycle 2 misses
  // lines 1 and 2 (evicting 0), cycle 3 misses line 4, cycle 4 misses
  // line 0, cycle 5 hits.
  const trace::BlockTrace trace = make_trace({0, 1, 3, 2, 0, 0});
  const sim::CacheGeometry geometry{32, 16, 1};

  sim::FetchParams params;  // 16 wide, 3 branches, 5-cycle penalty
  const ReferenceSeq3 per_request =
      reference_seq3(trace, *p.image, p.layout, params, geometry);
  EXPECT_EQ(per_request.result.instructions, 21u);
  EXPECT_EQ(per_request.result.fetch_requests, 5u);
  EXPECT_EQ(per_request.result.miss_requests, 4u);
  EXPECT_EQ(per_request.result.lines_missed, 5u);
  EXPECT_EQ(per_request.result.cycles, 5u + 4u * 5u);
  EXPECT_EQ(per_request.cache.accesses, 6u);
  EXPECT_EQ(per_request.cache.misses, 5u);

  params.penalty_per_line = true;
  const ReferenceSeq3 per_line =
      reference_seq3(trace, *p.image, p.layout, params, geometry);
  EXPECT_EQ(per_line.result.cycles, 5u + 5u * 5u);
  EXPECT_EQ(per_line.result.lines_missed, 5u);

  params.perfect_icache = true;
  const ReferenceSeq3 perfect =
      reference_seq3(trace, *p.image, p.layout, params, geometry);
  EXPECT_EQ(perfect.result.cycles, 5u);
  EXPECT_EQ(perfect.result.miss_requests, 0u);
  EXPECT_EQ(perfect.cache.accesses, 0u);
}

TEST(ReferenceModelTest, Seq3StopsAtTheBranchAndWidthLimits) {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("m");
  // Five one-instruction branch blocks laid out back to back from 0.
  builder.routine("r", mod,
                  {{"a", 1, cfg::BlockKind::kBranch},
                   {"b", 1, cfg::BlockKind::kBranch},
                   {"c", 1, cfg::BlockKind::kBranch},
                   {"d", 1, cfg::BlockKind::kBranch},
                   {"e", 1, cfg::BlockKind::kBranch}});
  const auto image = builder.build();
  cfg::AddressMap layout("seq", image->num_blocks());
  for (cfg::BlockId b = 0; b < 5; ++b) layout.set(b, 4 * b);
  const trace::BlockTrace trace = make_trace({0, 1, 2, 3, 4});
  const sim::CacheGeometry geometry{64, 64, 1};

  // All transfers fall through, so only the third branch ends a cycle:
  // a b c, then d e.
  sim::FetchParams params;
  params.perfect_icache = true;
  const ReferenceSeq3 branches =
      reference_seq3(trace, *image, layout, params, geometry);
  EXPECT_EQ(branches.result.instructions, 5u);
  EXPECT_EQ(branches.result.fetch_requests, 2u);

  // Two instructions per cycle: a b, c d, e.
  params.width = 2;
  const ReferenceSeq3 width =
      reference_seq3(trace, *image, layout, params, geometry);
  EXPECT_EQ(width.result.fetch_requests, 3u);
}

// Trace-cache runs over hand_program() with 64-byte lines and a perfect
// I-cache, so only the trace cache decides how many cycles a run takes. The
// path of one b0 b1 b3 b2 round (addresses; * = control transfer):
//   b0 0 4 8 12*   b1 24 28 32 36   b3 40 44*   b2 64 68 72*
// b0, b3 and b2 end in taken transfers; b1 falls into b3.
struct TraceCacheRun {
  ReferenceTraceCache reference;
  sim::FetchResult production;
};

TraceCacheRun run_both(const HandProgram& p, const trace::BlockTrace& trace,
                       const sim::TraceCacheParams& tc) {
  sim::FetchParams params;
  params.perfect_icache = true;
  TraceCacheRun run;
  run.reference = reference_trace_cache(trace, *p.image, p.layout, params, tc,
                                        {1024, 64, 1});
  run.production =
      sim::run_trace_cache(trace, *p.image, p.layout, params, tc, nullptr);
  return run;
}

// The counters both models must agree on, with the hand-computed values.
void expect_tc(const TraceCacheRun& run, std::uint64_t instructions,
               std::uint64_t hits, std::uint64_t misses, std::uint64_t fills) {
  for (const sim::FetchResult& r : {run.reference.result, run.production}) {
    EXPECT_EQ(r.instructions, instructions);
    EXPECT_EQ(r.tc_hits, hits);
    EXPECT_EQ(r.tc_misses, misses);
    EXPECT_EQ(r.tc_fills, fills);
    EXPECT_EQ(r.tc_probes, hits + misses);
    EXPECT_EQ(r.fetch_requests, hits + misses);
    EXPECT_EQ(r.cycles, hits + misses);  // perfect I-cache: no stalls
  }
  EXPECT_EQ(run.reference.cache.accesses, 0u);
}

TEST(ReferenceTraceCacheTest, FillCommitsAtTheBranchLimitAndHitSuppliesIt) {
  const HandProgram p = hand_program();
  // Round 1 misses three times (0..12, 24..44, 64..72); the fill opened at
  // 0 takes all 13 instructions and commits on 72, its third transfer.
  // Round 2 hits at 0 and gets all 13 in one cycle.
  const TraceCacheRun run =
      run_both(p, make_trace({0, 1, 3, 2, 0, 1, 3, 2}), {});
  expect_tc(run, 26, 1, 3, 1);
}

TEST(ReferenceTraceCacheTest, FillCommitsAtTheWidthLimit) {
  const HandProgram p = hand_program();
  sim::TraceCacheParams tc;
  tc.width = 8;
  // Round 1: the fill opened at 0 commits on 36, its eighth instruction
  // (40 and 44 stay out); the miss at 64 opens a fill there.
  // Round 2: 0 hits with 0..36, which also completes the fill at 64 on its
  // eighth instruction (64 68 72 0 4 8 12 24). Then 40 misses and opens a
  // fill; 64 misses because its stored trace runs past the end of the path.
  const TraceCacheRun run =
      run_both(p, make_trace({0, 1, 3, 2, 0, 1, 3, 2}), tc);
  expect_tc(run, 26, 1, 5, 2);
}

TEST(ReferenceTraceCacheTest, IndexCollisionEvicts) {
  const HandProgram p = hand_program();
  sim::TraceCacheParams tc;
  tc.max_branches = 1;  // one trace per block run: 0..12, 24..44, 64..72
  const trace::BlockTrace trace = make_trace({0, 1, 3, 2, 0, 1, 3, 2});
  // 256 entries: round 1 stores three traces, round 2 hits all three.
  expect_tc(run_both(p, trace, tc), 26, 3, 3, 3);
  // 16 entries: 0 and 64 both index entry 0, so each evicts the other and
  // only the trace at 24 survives to hit in round 2.
  tc.entries = 16;
  expect_tc(run_both(p, trace, tc), 26, 1, 5, 5);
}

TEST(ReferenceTraceCacheTest, PathMismatchIsAMiss) {
  const HandProgram p = hand_program();
  // Round 1 stores 0..12 24..44 64..72 at entry 0. Round 2 starts at 0 too
  // but b0 branches to b3 this time (0..12 40 44 64..72): the stored path
  // diverges at its fifth instruction, so the probe misses, and the fill
  // opened there replaces the entry. Round 3 takes round 1's path again and
  // misses on round 2's trace the same way. No probe runs off the path's end.
  const TraceCacheRun run =
      run_both(p, make_trace({0, 1, 3, 2, 0, 3, 2, 0, 1, 3, 2}), {});
  expect_tc(run, 35, 0, 9, 3);
}

// The comparison check_replay_modes runs per engine: clean on honest
// production counters, and a finding for each counter tampered with.
TEST(ReferenceCheckTest, PerturbedProductionCounterIsReported) {
  Rng rng(31337);
  const auto image = testing::random_image(rng, 12);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 2000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);
  const sim::CacheGeometry geometry{1024, 32, 2};

  ReferenceCounters production;
  {
    sim::ICache cache(geometry);
    sim::run_missrate(trace, *image, layout, cache, &production.per_block)
        .export_counters(production.miss);
    cache.stats().export_counters(production.miss);
  }
  {
    sim::ICache cache(geometry);
    sim::run_seq3(trace, *image, layout, sim::FetchParams{}, &cache)
        .export_counters(production.seq3);
    cache.stats().export_counters(production.seq3);
  }
  {
    sim::ICache cache(geometry);
    sim::run_trace_cache(trace, *image, layout, sim::FetchParams{},
                         sim::TraceCacheParams{}, &cache)
        .export_counters(production.tc);
    cache.stats().export_counters(production.tc);
  }
  const ReferenceCounters reference =
      reference_counters(trace, *image, layout, geometry);
  const Report clean =
      check_against_reference(reference, production, *image, "interp");
  ASSERT_TRUE(clean.ok()) << clean.summary();

  ReferenceCounters misses = production;
  misses.miss.add("line_probes", 1);
  const Report r1 =
      check_against_reference(reference, misses, *image, "interp");
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.summary().find("missrate[interp vs reference]: line_probes"),
            std::string::npos)
      << r1.summary();

  ReferenceCounters cycles = production;
  cycles.seq3.add("cycles", 1);
  const Report r2 =
      check_against_reference(reference, cycles, *image, "compiled");
  ASSERT_FALSE(r2.ok());
  EXPECT_NE(r2.summary().find("seq3[compiled vs reference]: cycles"),
            std::string::npos)
      << r2.summary();

  ReferenceCounters fills = production;
  fills.tc.add("tc_fills", 1);
  const Report r4 =
      check_against_reference(reference, fills, *image, "compiled");
  ASSERT_FALSE(r4.ok());
  EXPECT_NE(
      r4.summary().find("trace_cache[compiled vs reference]: tc_fills"),
      std::string::npos)
      << r4.summary();

  // Moving one miss between blocks keeps every total but breaks the
  // attribution.
  ReferenceCounters moved = production;
  ASSERT_GE(moved.per_block.size(), 2u);
  std::size_t from = 0;
  while (from < moved.per_block.size() && moved.per_block[from] == 0) ++from;
  ASSERT_LT(from, moved.per_block.size());
  const std::size_t to = from == 0 ? 1 : 0;
  --moved.per_block[from];
  ++moved.per_block[to];
  const Report r3 =
      check_against_reference(reference, moved, *image, "interp");
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.summary().find("per-block miss attribution diverges at block #" +
                              std::to_string(std::min(from, to))),
            std::string::npos)
      << r3.summary();
}

}  // namespace
}  // namespace stc::verify

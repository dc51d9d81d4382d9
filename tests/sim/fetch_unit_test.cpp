#include "sim/fetch_unit.h"

#include <gtest/gtest.h>

#include "backend/pipeline.h"
#include "cfg/builder.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "verify/oracle.h"

namespace stc::sim {
namespace {

using cfg::BlockKind;

// One routine with parameterizable block shapes laid out at address 0.
struct Fixture {
  explicit Fixture(std::vector<cfg::BlockDef> defs) {
    cfg::ProgramBuilder b;
    const cfg::ModuleId m = b.module("mod");
    r = b.routine("f", m, std::move(defs));
    image = b.build();
    layout = cfg::AddressMap::original(*image);
  }
  std::unique_ptr<cfg::ProgramImage> image;
  cfg::AddressMap layout;
  cfg::RoutineId r = 0;
};

TEST(FetchPipeTest, PeekAndConsume) {
  Fixture f({{"A", 4, BlockKind::kFallThrough}, {"B", 2, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  FetchPipe pipe(t, *f.image, f.layout);
  FetchPipe::Insn insn;
  ASSERT_TRUE(pipe.peek(0, insn));
  EXPECT_EQ(insn.addr, 0u);
  EXPECT_FALSE(insn.block_end);
  ASSERT_TRUE(pipe.peek(3, insn));  // last insn of A
  EXPECT_TRUE(insn.block_end);
  EXPECT_FALSE(insn.is_branch);  // fall-through block
  EXPECT_FALSE(insn.taken);      // B is contiguous
  ASSERT_TRUE(pipe.peek(5, insn));  // last insn of B
  EXPECT_TRUE(insn.is_branch);      // return block
  EXPECT_FALSE(pipe.peek(6, insn));
  pipe.consume(6);
  EXPECT_TRUE(pipe.done());
}

TEST(FetchPipeTest, AddrAdvancesWithinBlock) {
  Fixture f({{"A", 4, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  FetchPipe pipe(t, *f.image, f.layout);
  EXPECT_EQ(pipe.addr(), 0u);
  pipe.consume(1);
  EXPECT_EQ(pipe.addr(), 4u);
  pipe.consume(2);
  EXPECT_EQ(pipe.addr(), 12u);
}

// The trace-built pipe decodes one chunk at a time; the plan-built pipe
// walks the whole slab. Over a trace several chunks long they must yield
// the same instructions, and the simulators on top the same counters.
TEST(FetchPipeTest, ChunkFedMatchesSlabFedAcrossChunks) {
  Rng rng(2718);
  const auto image = testing::random_image(rng, 40);
  const trace::BlockTrace trace = testing::random_trace(*image, rng, 150000);
  const cfg::AddressMap layout = cfg::AddressMap::original(*image);
  ASSERT_GT(trace.num_chunks(), 2u);

  // Some chunk must end in a taken transfer, so the pipe decodes the next
  // chunk to know the last instruction's `taken` flag.
  std::size_t taken_boundaries = 0;
  for (std::size_t c = 0; c + 1 < trace.num_chunks(); ++c) {
    std::vector<cfg::BlockId> tail;
    std::vector<cfg::BlockId> head;
    trace.decode_chunk(c, tail);
    trace.decode_chunk(c + 1, head);
    const cfg::BlockId last = tail.back();
    if (layout.addr(head.front()) != layout.end_addr(*image, last)) {
      ++taken_boundaries;
    }
  }
  ASSERT_GT(taken_boundaries, 0u);

  const backend::BackendParams bp = verify::replay_diff_backend();
  auto built = build_replay_plan(ReplayMode::kCompiled, trace, *image, layout,
                                 64, bp.spec());
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const ReplayPlan& plan = built.value();

  FetchPipe chunked(trace, *image, layout);
  FetchPipe slab(plan);
  std::uint64_t step = 0;
  while (!slab.done()) {
    ASSERT_FALSE(chunked.done());
    ASSERT_EQ(chunked.addr(), slab.addr());
    std::uint32_t available = 0;
    for (std::uint32_t k = 0; k < 48; ++k) {
      FetchPipe::Insn a;
      FetchPipe::Insn b;
      const bool ok = slab.peek(k, b);
      ASSERT_EQ(chunked.peek(k, a), ok) << "step " << step << " k " << k;
      if (!ok) break;
      available = k + 1;
      ASSERT_EQ(a.addr, b.addr);
      ASSERT_EQ(a.block, b.block);
      ASSERT_EQ(a.block_end, b.block_end);
      ASSERT_EQ(a.is_branch, b.is_branch);
      ASSERT_EQ(a.taken, b.taken) << "step " << step << " k " << k;
      ASSERT_EQ(a.kind, b.kind);
    }
    const std::uint32_t n =
        std::min<std::uint32_t>(available, 1 + step % 23);
    chunked.consume(n);
    slab.consume(n);
    ++step;
  }
  EXPECT_TRUE(chunked.done());

  const CacheGeometry geometry{4096, 64, 2};
  const FetchParams params;
  const auto counters = [&](const auto& run) {
    CounterSet out;
    ICache cache(geometry);
    run(cache).export_counters(out);
    cache.stats().export_counters(out);
    return out;
  };
  const auto same = [](const CounterSet& a, const CounterSet& b,
                       const char* what) {
    const verify::Report r = verify::check_counters_equal(a, b, what);
    EXPECT_TRUE(r.ok()) << r.summary();
  };
  same(counters([&](ICache& c) {
         return run_seq3(trace, *image, layout, params, &c);
       }),
       counters([&](ICache& c) { return run_seq3(plan, params, &c); }),
       "seq3");
  const TraceCacheParams tc;
  same(counters([&](ICache& c) {
         return run_trace_cache(trace, *image, layout, params, tc, &c);
       }),
       counters([&](ICache& c) {
         return run_trace_cache(plan, params, tc, &c);
       }),
       "trace_cache");
  const frontend::FrontEndParams perfect;
  const auto backend_counters = [&](const auto& run) {
    ICache cache(geometry);
    const Result<backend::BackendResult> r = run(cache);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    CounterSet out;
    r.value().fetch.export_counters(out);
    r.value().backend.export_counters(out);
    cache.stats().export_counters(out);
    return out;
  };
  same(backend_counters([&](ICache& c) {
         return backend::run_seq3_backend(trace, *image, layout, params,
                                          perfect, bp, &c);
       }),
       backend_counters([&](ICache& c) {
         return backend::run_seq3_backend(plan, params, perfect, bp, &c);
       }),
       "backend");
}

TEST(Seq3Test, SuppliesUpTo16SequentialInstructions) {
  // 20-insn straight-line block: first fetch brings 16, the rest 4.
  Fixture f({{"A", 20, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, nullptr);
  EXPECT_EQ(result.instructions, 20u);
  EXPECT_EQ(result.cycles, 2u);
}

TEST(Seq3Test, StopsAtFirstTakenBranch) {
  Fixture f({{"A", 4, BlockKind::kBranch}, {"B", 4, BlockKind::kReturn}});
  trace::BlockTrace t;
  // A -> A (taken backward branch) then A -> B sequential.
  t.append(0);
  t.append(0);
  t.append(1);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, nullptr);
  // Cycle 1: A (4 insns, taken). Cycle 2: A then B sequential = 8 insns but
  // A ends in a not-taken branch and B in a return: 2 branches < 3 -> one
  // cycle for both.
  EXPECT_EQ(result.instructions, 12u);
  EXPECT_EQ(result.cycles, 2u);
}

TEST(Seq3Test, ThreeBranchLimit) {
  // Four 1-insn branch blocks, all sequential (not taken): the unit may only
  // take 3 branches per cycle.
  Fixture f({{"A", 1, BlockKind::kBranch},
             {"B", 1, BlockKind::kBranch},
             {"C", 1, BlockKind::kBranch},
             {"D", 1, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  t.append(2);
  t.append(3);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, nullptr);
  EXPECT_EQ(result.instructions, 4u);
  EXPECT_EQ(result.cycles, 2u);  // 3 insns (3 branches), then 1
}

TEST(Seq3Test, TwoLineWindowLimitsFetch) {
  // 32 straight-line insns starting at a line boundary with 32B lines:
  // window = 2 lines = 16 insns; width 16 allows it, so geometry matters
  // when the fetch starts mid-line.
  Fixture f({{"A", 8, BlockKind::kFallThrough},  // [0, 32)
             {"B", 24, BlockKind::kReturn}});    // [32, 128)
  trace::BlockTrace t;
  t.append(0);
  t.append(1);
  FetchParams params;
  ICache cache({1024, 32, 1});
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, &cache);
  // Cycle 1: insns at [0,64) = 16 insns (2 lines). Cycle 2: [64,128) = 16.
  EXPECT_EQ(result.instructions, 32u);
  EXPECT_EQ(result.fetch_requests, 2u);
}

TEST(Seq3Test, MissPenaltyAddsStallCycles) {
  Fixture f({{"A", 16, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  t.append(0);  // re-executed: second fetch hits
  FetchParams params;
  params.miss_penalty = 5;
  ICache cache({1024, 64, 1});
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, &cache);
  // Fetch 1: miss (line 0) -> 1 + 5 cycles. Fetch 2: hit -> 1 cycle.
  EXPECT_EQ(result.instructions, 32u);
  EXPECT_EQ(result.cycles, 7u);
  EXPECT_EQ(result.miss_requests, 1u);
}

TEST(Seq3Test, PenaltyPerLineDoublesOnDoubleMiss) {
  // 32B lines; a 16-insn fetch spans two lines -> two cold misses.
  Fixture f({{"A", 16, BlockKind::kReturn}});
  trace::BlockTrace t;
  t.append(0);
  FetchParams params;
  params.penalty_per_line = true;
  ICache cache({1024, 32, 1});
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, &cache);
  EXPECT_EQ(result.lines_missed, 2u);
  EXPECT_EQ(result.cycles, 1u + 10u);
}

TEST(Seq3Test, PerfectIcacheNeverStalls) {
  Fixture f({{"A", 16, BlockKind::kReturn}});
  trace::BlockTrace t;
  for (int i = 0; i < 100; ++i) t.append(0);
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result = run_seq3(t, *f.image, f.layout, params, nullptr);
  EXPECT_EQ(result.cycles, result.fetch_requests);
  EXPECT_DOUBLE_EQ(result.ipc(), 16.0);
}

TEST(Seq3Test, DisplacedFallThroughStopsFetchButIsNotABranch) {
  // A is fall-through but its successor is laid out far away: the transition
  // is taken (stops the fetch) yet contributes no branch instruction.
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  const cfg::RoutineId r = b.routine("f", m,
                                     {{"A", 4, BlockKind::kFallThrough},
                                      {"B", 4, BlockKind::kBranch},
                                      {"C", 4, BlockKind::kReturn}});
  auto image = b.build();
  cfg::AddressMap layout("x", image->num_blocks());
  layout.set(image->block_id(r, "A"), 0);
  layout.set(image->block_id(r, "B"), 512);
  layout.set(image->block_id(r, "C"), 1024);
  trace::BlockTrace t;
  t.append(image->block_id(r, "A"));
  t.append(image->block_id(r, "B"));
  FetchParams params;
  params.perfect_icache = true;
  const FetchResult result = run_seq3(t, *image, layout, params, nullptr);
  EXPECT_EQ(result.instructions, 8u);
  EXPECT_EQ(result.cycles, 2u);  // the displaced transition splits the fetch
}

TEST(Seq3Test, IpcImprovesWithPackedLayout) {
  // Hot path A -> C; orig layout separates them with B.
  cfg::ProgramBuilder b;
  const cfg::ModuleId m = b.module("mod");
  const cfg::RoutineId r = b.routine("f", m,
                                     {{"A", 4, BlockKind::kBranch},
                                      {"B", 8, BlockKind::kBranch},
                                      {"C", 4, BlockKind::kReturn}});
  auto image = b.build();
  trace::BlockTrace t;
  for (int i = 0; i < 50; ++i) {
    t.append(image->block_id(r, "A"));
    t.append(image->block_id(r, "C"));
  }
  FetchParams params;
  params.perfect_icache = true;
  const auto orig = cfg::AddressMap::original(*image);
  cfg::AddressMap packed("packed", image->num_blocks());
  packed.set(image->block_id(r, "A"), 0);
  packed.set(image->block_id(r, "C"), 16);
  packed.set(image->block_id(r, "B"), 128);
  const auto before = run_seq3(t, *image, orig, params, nullptr);
  const auto after = run_seq3(t, *image, packed, params, nullptr);
  EXPECT_GT(after.ipc(), before.ipc());
}

}  // namespace
}  // namespace stc::sim

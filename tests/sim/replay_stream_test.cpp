// Streaming + SIMD replay: the 8-wide sequentiality kernel must match the
// scalar one bit for bit on every span length (vector body and tail alike),
// the miss-rate kernel's line tables must match its meta-derived line
// bounds, spans must compose through the carried state exactly like one
// flat pass, and the streamed entry points over an on-disk trace must
// reproduce the in-memory replay counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/layouts.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "support/rng.h"
#include "testing/synthetic.h"
#include "trace/block_trace.h"
#include "trace/trace_io.h"

namespace stc::sim {
namespace {

class ReplayStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    image_ = testing::random_image(rng, 30);
    wcfg_ = testing::random_wcfg(*image_, rng);
    trace_ = testing::random_trace(*image_, rng, 6000);
    layout_ = core::make_layout(core::LayoutKind::kOrig, wcfg_, 4096, 1024);
    auto plan = build_replay_plan(ReplayMode::kCompiled, trace_, *image_,
                                  layout_, kLineBytes);
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    plan_ = std::make_unique<ReplayPlan>(std::move(plan).take());
    events_.clear();
    trace_.for_each([this](cfg::BlockId b) { events_.push_back(b); });
  }
  void TearDown() override { std::remove(trace_path().c_str()); }

  std::string trace_path() const {
    // Per-test name: ctest runs the suite's tests in parallel processes.
    return ::testing::TempDir() + "/stc_replay_stream_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".trace";
  }
  CacheGeometry geometry() const { return CacheGeometry{2048, kLineBytes, 1}; }

  static constexpr std::uint32_t kLineBytes = 32;
  std::unique_ptr<cfg::ProgramImage> image_;
  profile::WeightedCFG wcfg_;
  trace::BlockTrace trace_;
  cfg::AddressMap layout_;
  std::unique_ptr<ReplayPlan> plan_;
  std::vector<cfg::BlockId> events_;
};

MissRateResult run_miss_span(const ReplayPlan& plan, const CompiledTable* t,
                             const CacheGeometry& geom,
                             const std::vector<cfg::BlockId>& events,
                             std::size_t n, ReplayKernel kernel,
                             std::vector<std::uint64_t>* per_block) {
  ICache cache(geom);
  replay_detail::MissSpanState state;
  MissRateResult result;
  replay_detail::missrate_span(events.data(), n, plan.meta(), t,
                               t ? t->line_bytes() : geom.line_bytes, cache,
                               per_block, kernel, state, result);
  return result;
}

trace::SequentialityStats run_seq_span(const ReplayPlan& plan,
                                       const std::vector<cfg::BlockId>& events,
                                       std::size_t n, ReplayKernel kernel) {
  replay_detail::SeqSpanState state;
  trace::SequentialityStats stats;
  replay_detail::sequentiality_span(events.data(), n, plan.meta(), kernel,
                                    state, stats);
  return stats;
}

// Every span length from empty through several vector widths plus tails.
// The miss rate has one loop with two sources of line bounds: the compiled
// line tables must match the bounds derived from the metadata table,
// per-block miss attribution included. Sequentiality: SIMD == scalar.
TEST_F(ReplayStreamTest, SimdMatchesScalarOnEverySpanLength) {
  ASSERT_GE(events_.size(), 70u);
  for (std::size_t n = 0; n <= 70; ++n) {
    std::vector<std::uint64_t> table_blocks(plan_->meta().size(), 0);
    std::vector<std::uint64_t> meta_blocks(plan_->meta().size(), 0);
    const MissRateResult tables =
        run_miss_span(*plan_, &plan_->compiled(), geometry(), events_, n,
                      ReplayKernel::kScalar, &table_blocks);
    const MissRateResult derived =
        run_miss_span(*plan_, nullptr, geometry(), events_, n,
                      ReplayKernel::kScalar, &meta_blocks);
    ASSERT_EQ(tables.instructions, derived.instructions) << "n=" << n;
    ASSERT_EQ(tables.line_accesses, derived.line_accesses) << "n=" << n;
    ASSERT_EQ(tables.misses, derived.misses) << "n=" << n;
    ASSERT_EQ(table_blocks, meta_blocks) << "n=" << n;
    const trace::SequentialityStats scalar =
        run_seq_span(*plan_, events_, n, ReplayKernel::kScalar);
    const trace::SequentialityStats simd =
        run_seq_span(*plan_, events_, n, ReplayKernel::kSimd);
    ASSERT_EQ(simd.instructions, scalar.instructions) << "n=" << n;
    ASSERT_EQ(simd.dynamic_blocks, scalar.dynamic_blocks) << "n=" << n;
    ASSERT_EQ(simd.taken_transitions, scalar.taken_transitions) << "n=" << n;
  }
}

// Chunked feeding through the carried state == one flat span, at every split
// point around the vector width.
TEST_F(ReplayStreamTest, SpansComposeThroughCarriedState) {
  const std::size_t n = 48;
  ASSERT_GE(events_.size(), n);
  for (const ReplayKernel kernel : {ReplayKernel::kScalar, ReplayKernel::kSimd}) {
    const MissRateResult whole_miss = run_miss_span(
        *plan_, &plan_->compiled(), geometry(), events_, n, kernel, nullptr);
    const trace::SequentialityStats whole_seq =
        run_seq_span(*plan_, events_, n, kernel);
    for (std::size_t split = 0; split <= n; ++split) {
      ICache cache(geometry());
      replay_detail::MissSpanState mstate;
      MissRateResult miss;
      replay_detail::missrate_span(events_.data(), split, plan_->meta(),
                                   &plan_->compiled(), kLineBytes, cache,
                                   nullptr, kernel, mstate, miss);
      replay_detail::missrate_span(events_.data() + split, n - split,
                                   plan_->meta(), &plan_->compiled(),
                                   kLineBytes, cache, nullptr, kernel, mstate,
                                   miss);
      ASSERT_EQ(miss.misses, whole_miss.misses) << "split=" << split;
      ASSERT_EQ(miss.line_accesses, whole_miss.line_accesses)
          << "split=" << split;

      replay_detail::SeqSpanState sstate;
      trace::SequentialityStats seq;
      replay_detail::sequentiality_span(events_.data(), split, plan_->meta(),
                                        kernel, sstate, seq);
      replay_detail::sequentiality_span(events_.data() + split, n - split,
                                        plan_->meta(), kernel, sstate, seq);
      ASSERT_EQ(seq.taken_transitions, whole_seq.taken_transitions)
          << "split=" << split;
      ASSERT_EQ(seq.instructions, whole_seq.instructions) << "split=" << split;
    }
  }
}

// The streamed entry points over an on-disk trace reproduce the in-memory
// replay bit for bit, in both kernels.
TEST_F(ReplayStreamTest, StreamedReplayMatchesInMemory) {
  ASSERT_TRUE(trace_.save(trace_path()).is_ok());
  auto opened = trace::TraceReader::open(trace_path());
  ASSERT_TRUE(opened.is_ok()) << opened.status().to_string();
  const trace::TraceReader reader = std::move(opened).take();

  ICache mem_cache(geometry());
  const MissRateResult mem = replay_missrate(*plan_, mem_cache);
  const trace::SequentialityStats mem_seq = replay_sequentiality(*plan_);

  for (const ReplayKernel kernel : {ReplayKernel::kScalar, ReplayKernel::kSimd}) {
    for (const CompiledTable* tables : {&plan_->compiled(),
                                        static_cast<const CompiledTable*>(
                                            nullptr)}) {
      ICache cache(geometry());
      auto streamed =
          replay_missrate_streamed(reader, plan_->meta(), tables, cache, kernel);
      ASSERT_TRUE(streamed.is_ok()) << streamed.status().to_string();
      EXPECT_EQ(streamed.value().instructions, mem.instructions);
      EXPECT_EQ(streamed.value().line_accesses, mem.line_accesses);
      EXPECT_EQ(streamed.value().misses, mem.misses);
    }
    auto seq = replay_sequentiality_streamed(reader, plan_->meta(), kernel);
    ASSERT_TRUE(seq.is_ok()) << seq.status().to_string();
    EXPECT_EQ(seq.value().instructions, mem_seq.instructions);
    EXPECT_EQ(seq.value().dynamic_blocks, mem_seq.dynamic_blocks);
    EXPECT_EQ(seq.value().taken_transitions, mem_seq.taken_transitions);
  }
}

// A trace naming blocks outside the program image is a clean corrupt-data
// Status from the streamed replay, not unchecked indexing.
TEST_F(ReplayStreamTest, StreamedReplayRangeChecksEventIds) {
  trace::BlockTrace rogue;
  rogue.append(0);
  rogue.append(static_cast<cfg::BlockId>(plan_->meta().size() + 5));
  ASSERT_TRUE(rogue.save(trace_path()).is_ok());
  auto opened = trace::TraceReader::open(trace_path());
  ASSERT_TRUE(opened.is_ok());

  ICache cache(geometry());
  auto miss = replay_missrate_streamed(opened.value(), plan_->meta(), nullptr,
                                       cache);
  ASSERT_FALSE(miss.is_ok());
  EXPECT_EQ(miss.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(miss.status().message().find("outside the program image"),
            std::string::npos);
  auto seq = replay_sequentiality_streamed(opened.value(), plan_->meta());
  ASSERT_FALSE(seq.is_ok());
  EXPECT_EQ(seq.status().code(), ErrorCode::kCorruptData);
}

}  // namespace
}  // namespace stc::sim

// Locks the BENCH_ablate_multitenant.json report schema against a
// checked-in golden file.
//
// The real bench composes STC_TENANTS recorded streams and grids layout x
// tenant-count x quantum; this lock rebuilds the same report shape
// deterministically from a small synthetic program, driving the exact
// measurement cell the bench uses (bench::measure_tenant_miss plus the
// SEQ.3 IPC merge). The per-tenant metric/counter names (miss_pct_t<i>,
// t<i>_misses, worst_miss_pct) are report-consumer-visible — a change here
// changes what EXPERIMENTS.md documents. Regenerate with
//   STC_UPDATE_GOLDEN=1 ./build/tests/stc_verify_test --gtest_filter=MultitenantSchemaTest.*
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cfg/address_map.h"
#include "cfg/builder.h"
#include "sim/icache.h"
#include "support/check.h"
#include "support/experiment.h"
#include "support/rng.h"
#include "testing/golden_compare.h"
#include "testing/json_parse.h"
#include "testing/synthetic.h"
#include "verify/oracle.h"
#include "workload/composer.h"

#ifndef STC_VERIFY_TEST_DIR
#define STC_VERIFY_TEST_DIR "."
#endif

namespace stc {
namespace {

std::string golden_path() {
  return std::string(STC_VERIFY_TEST_DIR) +
         "/golden/BENCH_ablate_multitenant_golden.json";
}

std::unique_ptr<cfg::ProgramImage> mini_image() {
  cfg::ProgramBuilder builder;
  const cfg::ModuleId mod = builder.module("mini");
  builder.routine("outer", mod,
                  {{"head", 2, cfg::BlockKind::kBranch},
                   {"call", 1, cfg::BlockKind::kCall},
                   {"tail", 1, cfg::BlockKind::kReturn}});
  builder.routine("leaf", mod, {{"body", 3, cfg::BlockKind::kReturn}});
  return builder.build();
}

// Two tenants walking the same kernel through different block mixes, so the
// per-tenant attribution is visibly non-uniform.
std::vector<workload::TenantStream> mini_streams() {
  std::vector<workload::TenantStream> streams(2);
  streams[0].name = "dss#0";
  streams[1].name = "oltp#1";
  for (int i = 0; i < 120; ++i) {
    streams[0].trace.append(0);
    streams[0].trace.append(1);
    streams[0].trace.append(3);
    streams[0].trace.append(2);
    streams[1].trace.append(3);
    streams[1].trace.append(3);
  }
  return streams;
}

// The bench's grid cell, rebuilt on the mini program: tenant-attributed
// miss rate with the SEQ.3 IPC and fetch counters merged in.
std::string build_report() {
  const auto image = mini_image();
  const auto layout = cfg::AddressMap::original(*image);
  const sim::CacheGeometry geometry{1024, 32, 1};

  workload::ComposeParams params;
  params.quantum_events = 16;
  params.arrival = workload::ArrivalKind::kRoundRobin;
  Result<workload::ComposedTrace> composed =
      workload::compose(mini_streams(), params);
  STC_CHECK_MSG(composed.is_ok(), "mini composition failed");
  const workload::ComposedTrace& trace = composed.value();

  ExperimentRunner runner("ablate_multitenant");
  runner.meta("cache_bytes", std::uint64_t{geometry.size_bytes});
  runner.meta("arrival", "rr");
  runner.meta("switches_t2_q16", trace.context_switches);
  runner.record_phase("setup", 1.5);
  runner.record_phase("workload", 0.25);
  runner.record_phase("layouts", 0.125);
  runner.record_phase("compose", 0.0625);

  for (const char* name : {"orig", "ops-part"}) {
    runner.add(std::string(name) + "_t2_q16",
               {{"layout", name},
                {"tenants", "2"},
                {"quantum", "16"},
                {"arrival", "rr"}},
               [&] {
                 ExperimentResult result =
                     bench::measure_tenant_miss(trace, *image, layout,
                                                geometry);
                 const auto fetch =
                     bench::measure_seq3(trace.trace, *image, layout, geometry);
                 result.metric("ipc", fetch.metric("ipc"));
                 result.counters().merge(fetch.counters());
                 return result;
               });
  }
  runner.run(1);
  return runner.report_json();
}

// Wall-clock-derived values (structure still locked).
bool is_volatile(const std::string& path) {
  return path == "phases.replay" || path == "throughput.events_per_sec" ||
         path == "throughput.blocks_per_second" ||
         path == "throughput.instructions_per_second";
}

TEST(MultitenantSchemaTest, ReportMatchesGoldenFile) {
  testing::check_against_golden(build_report(), golden_path(), is_volatile);
}

// The contract the ablation's consumers (EXPERIMENTS.md readers, the CI
// smoke) depend on, independent of golden bytes: every cell carries the
// four grid params, the aggregate and per-tenant miss metrics, the fairness
// headline, and the merged fetch counters.
TEST(MultitenantSchemaTest, TenantCellShapeIsStable) {
  std::string err;
  const testing::JsonValue report = testing::parse_json(build_report(), &err);
  ASSERT_EQ(err, "");
  EXPECT_EQ(report.find("schema_version")->number, 3.0);
  const testing::JsonValue* failures = report.find("failures");
  ASSERT_TRUE(failures != nullptr && failures->is_array());
  EXPECT_TRUE(failures->items.empty());

  const testing::JsonValue* results = report.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->items.size(), 2u);
  for (const testing::JsonValue& cell : results->items) {
    const testing::JsonValue* params = cell.find("params");
    const testing::JsonValue* metrics = cell.find("metrics");
    const testing::JsonValue* counters = cell.find("counters");
    ASSERT_TRUE(params != nullptr && metrics != nullptr && counters != nullptr)
        << cell.find("name")->text;
    for (const char* key : {"layout", "tenants", "quantum", "arrival"}) {
      EXPECT_TRUE(params->find(key) != nullptr) << key;
    }
    for (const char* key :
         {"miss_pct", "miss_pct_t0", "miss_pct_t1", "worst_miss_pct", "ipc"}) {
      EXPECT_TRUE(metrics->find(key) != nullptr) << key;
    }
    for (const char* key :
         {"instructions", "line_accesses", "misses", "blocks", "t0_misses",
          "t1_misses"}) {
      EXPECT_TRUE(counters->find(key) != nullptr) << key;
    }
    // The fairness headline is the max over the per-tenant rates.
    const double worst = metrics->find("worst_miss_pct")->number;
    EXPECT_GE(worst, metrics->find("miss_pct_t0")->number);
    EXPECT_GE(worst, metrics->find("miss_pct_t1")->number);
  }
}

// tenant_missrates cuts its spans at chunk and at segment boundaries. With
// segments straddling chunk boundaries, each tenant must be charged exactly
// its own stream's instructions, and the probes and misses must add up to a
// plain run_missrate pass over the composed trace. Tenants walk the image
// mostly block after block, so a chunk often opens on the line the previous
// chunk ended on, and a span state lost at a chunk boundary shows.
TEST(TenantMissTest, SegmentsStraddlingChunksAddUp) {
  constexpr std::uint32_t kLine = 64;
  Rng rng(7919);
  const auto image = testing::random_image(rng, 40);
  const auto layout = cfg::AddressMap::original(*image);
  const cfg::BlockId blocks = static_cast<cfg::BlockId>(image->num_blocks());
  std::vector<workload::TenantStream> streams(3);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    streams[t].name = "t" + std::to_string(t);
    cfg::BlockId b = 0;
    for (int i = 0; i < 50000; ++i) {
      b = rng.chance(0.9) && b + 1 < blocks
              ? b + 1
              : static_cast<cfg::BlockId>(rng.uniform(blocks));
      streams[t].trace.append(b);
    }
  }
  workload::ComposeParams params;
  params.quantum_events = 997;
  params.arrival = workload::ArrivalKind::kRoundRobin;
  Result<workload::ComposedTrace> built = workload::compose(streams, params);
  ASSERT_TRUE(built.is_ok()) << built.status().to_string();
  const workload::ComposedTrace& composed = built.value();
  ASSERT_GE(composed.trace.num_chunks(), 2u);

  // Count the chunk boundaries inside a segment whose first event re-enters
  // the line the previous event ended on.
  std::set<std::uint64_t> segment_ends;
  std::uint64_t pos = 0;
  for (const workload::TenantSegment& seg : composed.segments) {
    pos += seg.events;
    segment_ends.insert(pos);
  }
  std::size_t straddled = 0;
  std::uint64_t chunk_end = 0;
  for (std::size_t c = 0; c + 1 < composed.trace.num_chunks(); ++c) {
    std::vector<cfg::BlockId> tail;
    std::vector<cfg::BlockId> head;
    chunk_end += composed.trace.decode_chunk(c, tail);
    composed.trace.decode_chunk(c + 1, head);
    if (segment_ends.count(chunk_end) == 0 &&
        (layout.end_addr(*image, tail.back()) - 1) / kLine ==
            layout.addr(head.front()) / kLine) {
      ++straddled;
    }
  }
  ASSERT_GT(straddled, 0u);

  const sim::CacheGeometry geometry{2048, kLine, 1};
  const std::vector<sim::MissRateResult> per =
      bench::tenant_missrates(composed, *image, layout, geometry);
  ASSERT_EQ(per.size(), streams.size());
  sim::MissRateResult sum;
  for (std::size_t t = 0; t < per.size(); ++t) {
    EXPECT_EQ(per[t].instructions,
              verify::trace_instructions(streams[t].trace, *image))
        << "tenant " << t;
    sum.instructions += per[t].instructions;
    sum.line_accesses += per[t].line_accesses;
    sum.misses += per[t].misses;
  }
  sim::ICache cache(geometry);
  const sim::MissRateResult whole =
      sim::run_missrate(composed.trace, *image, layout, cache);
  EXPECT_GT(whole.misses, 0u);
  EXPECT_EQ(sum.instructions, whole.instructions);
  EXPECT_EQ(sum.line_accesses, whole.line_accesses);
  EXPECT_EQ(sum.misses, whole.misses);

  // The bench cell reports the same sums.
  const ExperimentResult cell =
      bench::measure_tenant_miss(composed, *image, layout, geometry);
  EXPECT_EQ(cell.counters().get("line_accesses"), whole.line_accesses);
  EXPECT_EQ(cell.counters().get("misses"), whole.misses);
  for (std::size_t t = 0; t < per.size(); ++t) {
    EXPECT_EQ(cell.counters().get("t" + std::to_string(t) + "_misses"),
              per[t].misses);
  }
}

}  // namespace
}  // namespace stc

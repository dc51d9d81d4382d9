// Scale sweep: streamed replay of production-scale on-disk traces.
//
// The paper's traces fit in memory; production DSS traces do not. This bench
// builds K-fold replications of the Test trace on disk through
// trace::TraceFileWriter (K = 1, 10, 100 — the x100 file is two orders of
// magnitude past today's largest in-memory run), then replays each one
// *streamed*: trace::TraceReader maps the file (STC_MMAP), decodes one chunk
// at a time and drops its pages behind the pass, so peak resident memory is
// bounded by the chunk size while the file scales freely. Grid:
//
//   sim  = stream_missrate_xK | stream_seq_xK
//   mode = interp   (scalar span kernels, line math from the meta table)
//        | compiled (pre-resolved line tables for the miss rate, the
//                    8-wide SIMD kernel for sequentiality)
//
// Every compiled cell re-runs its scalar streamed twin untimed and requires
// bit-identical counters; the K=1 cells additionally cross-check against the
// in-memory slab replay. rss_peak_mb reports ru_maxrss after the cell — the
// x100 rows demonstrate bounded-RSS replay of a trace ~100x the in-memory
// footprint. tools/perf_gate.py gates the compiled/interp speedup of the x10
// rows against bench/perf_baseline.json.
//
// The grid shards across worker processes under STC_SHARDS (the scratch
// trace files carry the worker's shard tag, so siblings never collide), and
// runs its own cells on a single thread so the timings stay clean.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "support/check.h"
#include "support/env.h"
#include "trace/trace_io.h"

namespace {

double rss_peak_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

void require_equal(std::uint64_t got, std::uint64_t want, const char* what) {
  if (got != want) {
    throw stc::StatusError(stc::internal_error(
        std::string(what) + " diverged: " + std::to_string(got) + " vs " +
        std::to_string(want)));
  }
}

}  // namespace

int main() {
  using namespace stc;
  using core::LayoutKind;
  const auto env = bench::Env::from_environment();
  bench::Setup setup(env);
  bench::print_banner("Scale sweep: streamed replay, x1/x10/x100 traces", env,
                      setup);

  const std::uint32_t cache = 4096;
  const sim::CacheGeometry geometry{cache, env.line_bytes, 1};

  auto runner = bench::make_runner("scale_sweep", env, setup);
  runner.meta("cache_bytes", std::uint64_t{cache});
  runner.time_phase("layouts", [&] { setup.layout(LayoutKind::kOrig, 0, 0); });
  const cfg::AddressMap& layout = setup.layout(LayoutKind::kOrig, 0, 0);

  // One compiled plan supplies the metadata and line tables for every cell
  // (they share the image/layout/line size); its slab doubles as the K=1
  // in-memory cross-check reference.
  auto plan_built =
      sim::build_replay_plan(sim::ReplayMode::kCompiled, setup.test_trace(),
                             setup.image(), layout, env.line_bytes);
  STC_CHECK_MSG(plan_built.is_ok(), plan_built.status().to_string().c_str());
  const sim::ReplayPlan plan = std::move(plan_built).take();

  const std::uint32_t factors[] = {1, 10, 100};

  // Scratch trace files: shard workers replay concurrently in one bench
  // directory, so each process tags its files with its slice.
  std::string tag = env::shard().value();
  for (char& c : tag) {
    if (c == '/') c = 'o';
  }
  const std::string dir = env::bench_dir().value();
  const auto path_for = [&](std::uint32_t factor) {
    return dir + "/SCALE_sweep_x" + std::to_string(factor) +
           (tag.empty() ? std::string() : "." + tag) + ".trace";
  };

  // The sharding parent only spawns workers and merges their fragments — it
  // never replays, so it skips the file builds its workers redo themselves.
  const bool executes_jobs =
      !env::shard().value().empty() || env::shards().value() <= 1;
  std::vector<std::string> scratch;
  runner.time_phase("scale_write", [&] {
    if (!executes_jobs) return;
    for (const std::uint32_t factor : factors) {
      const std::string path = path_for(factor);
      auto writer = trace::TraceFileWriter::create(path);
      STC_CHECK_MSG(writer.is_ok(), writer.status().to_string().c_str());
      for (std::uint32_t k = 0; k < factor; ++k) {
        setup.test_trace().for_each(
            [&](cfg::BlockId b) { writer.value().append(b); });
      }
      const Status s = writer.value().finalize();
      STC_CHECK_MSG(s.is_ok(), s.to_string().c_str());
      scratch.push_back(path);
    }
  });

  // jobs[factor][sim][mode]: sim 0 = missrate, 1 = sequentiality;
  // mode 0 = interp (scalar), 1 = compiled (tables / SIMD).
  std::size_t jobs[std::size(factors)][2][2];
  for (std::size_t f = 0; f < std::size(factors); ++f) {
    const std::uint32_t factor = factors[f];
    const std::string path = path_for(factor);
    for (int compiled = 0; compiled < 2; ++compiled) {
      const char* mode = compiled ? "compiled" : "interp";
      const sim::ReplayKernel kernel =
          compiled ? sim::ReplayKernel::kSimd : sim::ReplayKernel::kScalar;

      const std::string miss_sim =
          "stream_missrate_x" + std::to_string(factor);
      jobs[f][0][compiled] = runner.add(
          miss_sim + " " + mode, {{"sim", miss_sim}, {"mode", mode}},
          [&plan, path, geometry, factor, compiled, kernel] {
            auto opened = trace::TraceReader::open(path);
            if (!opened.is_ok()) throw StatusError(opened.status());
            const trace::TraceReader reader = std::move(opened).take();
            const sim::CompiledTable* tables =
                compiled ? &plan.compiled() : nullptr;
            sim::ICache icache(geometry);
            const auto start = std::chrono::steady_clock::now();
            auto streamed = sim::replay_missrate_streamed(
                reader, plan.meta(), tables, icache, kernel);
            const double seconds = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            if (!streamed.is_ok()) throw StatusError(streamed.status());
            const sim::MissRateResult result = streamed.value();
            if (compiled) {
              // The timed pass over the line tables must match the streamed
              // pass over meta-derived line bounds bit for bit.
              sim::ICache ref_cache(geometry);
              auto ref = sim::replay_missrate_streamed(
                  reader, plan.meta(), nullptr, ref_cache,
                  sim::ReplayKernel::kScalar);
              if (!ref.is_ok()) throw StatusError(ref.status());
              require_equal(result.misses, ref.value().misses, "misses");
              require_equal(result.line_accesses, ref.value().line_accesses,
                            "line_accesses");
              require_equal(result.instructions, ref.value().instructions,
                            "instructions");
            }
            if (factor == 1) {
              sim::ICache mem_cache(geometry);
              const sim::MissRateResult mem =
                  sim::replay_missrate(plan, mem_cache);
              require_equal(result.misses, mem.misses, "misses (vs in-memory)");
              require_equal(result.instructions, mem.instructions,
                            "instructions (vs in-memory)");
            }
            ExperimentResult out;
            out.metric("seconds", seconds);
            out.metric("events_per_sec",
                       seconds > 0
                           ? static_cast<double>(reader.num_events()) / seconds
                           : 0.0);
            out.metric("miss_pct", result.misses_per_100_insns());
            out.metric("file_mb", static_cast<double>(reader.file_bytes()) /
                                      (1024.0 * 1024.0));
            out.metric("rss_peak_mb", rss_peak_mb());
            result.export_counters(out.counters());
            out.counters().add("blocks", reader.num_events());
            return out;
          });

      const std::string seq_sim = "stream_seq_x" + std::to_string(factor);
      jobs[f][1][compiled] = runner.add(
          seq_sim + " " + mode, {{"sim", seq_sim}, {"mode", mode}},
          [&plan, path, factor, compiled, kernel] {
            auto opened = trace::TraceReader::open(path);
            if (!opened.is_ok()) throw StatusError(opened.status());
            const trace::TraceReader reader = std::move(opened).take();
            const auto start = std::chrono::steady_clock::now();
            auto streamed =
                sim::replay_sequentiality_streamed(reader, plan.meta(), kernel);
            const double seconds = std::chrono::duration<double>(
                                       std::chrono::steady_clock::now() - start)
                                       .count();
            if (!streamed.is_ok()) throw StatusError(streamed.status());
            const trace::SequentialityStats stats = streamed.value();
            if (compiled) {
              auto ref = sim::replay_sequentiality_streamed(
                  reader, plan.meta(), sim::ReplayKernel::kScalar);
              if (!ref.is_ok()) throw StatusError(ref.status());
              require_equal(stats.instructions, ref.value().instructions,
                            "instructions");
              require_equal(stats.taken_transitions,
                            ref.value().taken_transitions, "taken_transitions");
              require_equal(stats.dynamic_blocks, ref.value().dynamic_blocks,
                            "dynamic_blocks");
            }
            if (factor == 1) {
              const trace::SequentialityStats mem =
                  sim::replay_sequentiality(plan);
              require_equal(stats.instructions, mem.instructions,
                            "instructions (vs in-memory)");
              require_equal(stats.taken_transitions, mem.taken_transitions,
                            "taken_transitions (vs in-memory)");
            }
            ExperimentResult out;
            out.metric("seconds", seconds);
            out.metric("events_per_sec",
                       seconds > 0
                           ? static_cast<double>(reader.num_events()) / seconds
                           : 0.0);
            out.metric("insn_per_taken", stats.insns_between_taken_branches());
            out.metric("file_mb", static_cast<double>(reader.file_bytes()) /
                                      (1024.0 * 1024.0));
            out.metric("rss_peak_mb", rss_peak_mb());
            stats.export_counters(out.counters());
            out.counters().add("blocks", reader.num_events());
            return out;
          });
    }
  }

  // Single worker per process: the cells time themselves. Parallelism comes
  // from STC_SHARDS worker processes, not threads.
  runner.run(1);
  for (const std::string& path : scratch) std::remove(path.c_str());

  TextTable table;
  table.header({"trace", "file MB", "sim", "interp ev/s", "compiled ev/s",
                "speedup", "peak RSS MB"});
  for (std::size_t f = 0; f < std::size(factors); ++f) {
    const char* sims[] = {"missrate", "seq"};
    for (int s = 0; s < 2; ++s) {
      const double interp = runner.metric_or(jobs[f][s][0], "events_per_sec");
      const double fast = runner.metric_or(jobs[f][s][1], "events_per_sec");
      table.row({"x" + std::to_string(factors[f]),
                 fmt_fixed(runner.metric_or(jobs[f][s][1], "file_mb"), 1),
                 sims[s], fmt_fixed(interp, 0), fmt_fixed(fast, 0),
                 fmt_fixed(interp > 0 ? fast / interp : 0.0, 2),
                 fmt_fixed(runner.metric_or(jobs[f][s][1], "rss_peak_mb"), 1)});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nStreamed replay decodes one chunk at a time off the mapped file and\n"
      "releases its pages behind the pass; peak RSS stays bounded while the\n"
      "trace scales x100. Compiled rows read the line tables (miss rate)\n"
      "and run the 8-wide SIMD kernel (sequentiality).\n");

  return bench::write_report(runner);
}

// Repo benchmark driver: runs one workload for a time budget and prints the
// raw run (setup repeats, rounds, ops, spans, modelled outputs) as one JSON
// document. run.py builds this binary, runs it and turns the raw run into
// the benchmark's metrics.
//
//   perfbench_driver --workload dss_paper|oltp_rw|tenant_stream --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//
// Single process, single thread. Each round is preceded by a setup repeat and
// the round's preparation (fresh databases). Round 0 is a discarded warm-up;
// rounds continue until S seconds have passed since it (at least kMinRounds
// measured).
// With --trace 1, odd rounds record spans and even rounds do not, so the
// summariser can subtract one best from the other as the tracing overhead;
// each round is then followed by an untraced execution probe. Each round's
// setup repeat, fresh-database preparation and probe are span trees of their
// own ("setup", "prep", "probe"), outside the round's "round" tree.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "harness.h"
#include "support/json.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RoundLog;
using perfbench::Timeline;

constexpr int kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload W "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload.empty()) usage("missing --workload");
  return args;
}

// Every round must redo identical work: same recorded stream, same row
// counts, same simulator counters.
void check_same(Report& report, const char* what, const RoundLog& ref,
                const RoundLog& log) {
  if (log.events != ref.events || log.fingerprint != ref.fingerprint ||
      log.op_rows != ref.op_rows ||
      log.counters.items() != ref.counters.items()) {
    report.fail(std::string(what) + " " + std::to_string(log.id) +
                " did different work than " + what + " " +
                std::to_string(ref.id));
  }
}

void write_logs(stc::JsonWriter& w, const char* key,
                const std::vector<RoundLog>& logs) {
  w.key(key).begin_array();
  for (const RoundLog& log : logs) {
    w.begin_object();
    w.key("id").value(log.id);
    w.key("seconds").value(log.seconds);
    w.key("traced").value(log.traced);
    w.key("stages").begin_object();
    for (const auto& [name, s] : log.stages) w.key(name).value(s);
    w.end_object();
    w.key("ops").begin_array();
    for (double s : log.ops) w.value(s);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void write_pairs(stc::JsonWriter& w, const char* key,
                 const std::vector<std::pair<std::string, double>>& pairs) {
  w.key(key).begin_object();
  for (const auto& [name, v] : pairs) w.key(name).value(v);
  w.end_object();
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int run(const Args& args) {
  Report report;
  auto workload = perfbench::make_workload(args.workload, args.seed,
                                           args.workdir, report);
  if (workload == nullptr) usage("unknown workload");
  Timeline tl(args.trace);

  // Setup repeats are spread between the rounds rather than run back to
  // back, so the fastest one is not at the mercy of a single slow phase of
  // the machine. The time budget covers everything after the warm-up.
  std::vector<RoundLog> setups;
  std::vector<RoundLog> preps;
  std::vector<RoundLog> rounds;
  std::vector<RoundLog> probes;
  double budget_start = 0.0;
  for (int id = 0; id <= kMinRounds || perfbench::now_s() - budget_start <
                                           args.seconds;
       ++id) {
    const bool spans = id % 2 == 1;
    setups.emplace_back().id = id;
    tl.begin(setups.back(), spans, "setup");
    workload->setup(tl);
    tl.end();
    check_same(report, "setup", setups[0], setups.back());

    preps.emplace_back().id = id;
    tl.begin(preps.back(), spans, "prep");
    workload->prepare(tl);
    tl.end();

    RoundLog& log = rounds.emplace_back();
    log.id = id;
    tl.begin(log, spans);
    workload->round(tl, log);
    tl.end();
    workload->identify(log);
    check_same(report, "round", rounds[0], log);

    if (args.trace) {
      probes.emplace_back().id = id;
      tl.begin(probes.back(), spans, "probe");
      workload->probe_untraced(tl);
      tl.end();
    }
    if (id == 0) budget_start = perfbench::now_s();
  }
  workload->gate();

  stc::JsonWriter w;
  w.begin_object();
  w.key("workload").value(args.workload);
  w.key("seed").value(args.seed);
  w.key("trace").value(args.trace);
  w.key("attempted").value(report.attempted);
  w.key("failed").value(report.failed);
  w.key("failures").begin_array();
  for (const std::string& f : report.failures) w.value(f);
  w.end_array();
  w.key("peak_rss_mb").value(peak_rss_mb());
  write_pairs(w, "modelled", report.modelled);
  write_pairs(w, "layer", report.layer);
  write_pairs(w, "work", report.work);
  write_pairs(w, "setup_work", report.setup_work);
  write_logs(w, "setup", setups);
  write_logs(w, "prep", preps);
  write_logs(w, "rounds", rounds);
  write_logs(w, "probes", probes);
  w.key("spans").begin_array();
  for (const perfbench::Span& s : tl.spans()) {
    w.begin_array();
    w.value(s.name).value(s.start).value(s.end).value(s.parent).value(s.round);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  std::fputs(w.str().c_str(), stdout);
  std::fputc('\n', stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}

// Timing and span recording for the repo benchmark driver.
//
// A run is a sequence of identical job rounds, each preceded by an identical
// setup repeat; round 0 is a discarded warm-up. Every round records the
// duration of each named stage ("sim.missrate:ops/2048", "workload.compose",
// ...) and of each traced query or transaction, so the summariser (run.py)
// can keep each piece's best round. With span recording on, every stage and
// op also leaves a span (name, start, end, parent, round) in memory; the
// spans are written out with the rest of the run at exit.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/stats.h"

namespace perfbench {

// Wall-clock seconds: the run's time budget.
double now_s();
// CPU seconds consumed by the process: the clock of every timed interval.
double cpu_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list, -1 for a round's root
  int round = 0;
};

// One timed interval: a setup repeat, a job round, or its preparation or probe.
struct RoundLog {
  int id = 0;
  double seconds = 0.0;
  bool traced = false;  // spans were recorded during this round
  // Stage durations, summed per name, in first-use order.
  std::vector<std::pair<std::string, double>> stages;
  // Per-op durations (traced queries / transactions) in op order, and the
  // rows each op read or wrote.
  std::vector<double> ops;
  std::vector<std::uint64_t> op_rows;
  // Identity of the work done: must match across rounds.
  std::uint64_t events = 0;
  std::uint64_t fingerprint = 0;
  // Simulator and row counters, "cell/counter" names; must match too.
  stc::CounterSet counters;
};

// Aggregates a run and owns the span buffer.
//
// Every interval is measured in CPU time of the process (cpu_s), so time the
// vCPU spends descheduled by the host or waiting for a CPU is left out. What
// remains is the host's other tenants slowing the vCPU while it runs: a
// throughput-bound loop flips between about 5 and 10 ms on one vCPU from one
// few-millisecond window to the next, and each vCPU has its own busy
// stretches. So pieces are kept to a few milliseconds (best-of-rounds then
// finds a quiet window for each), and the timeline moves the process to the
// next allowed CPU before a stage whenever it has stayed on one CPU for
// kCpuDwellSeconds, so each stage is timed on every CPU over a run.
class Timeline {
 public:
  static constexpr double kCpuDwellSeconds = 0.05;

  explicit Timeline(bool trace);

  // Opens a setup repeat or a job round; its root span is named `root`.
  // `spans` selects span recording for it (only honoured when tracing is on).
  void begin(RoundLog& log, bool spans, const char* root = "round");
  void end();

  // Times `fn` as stage `name` of the open round. Stages must not nest: the
  // summariser treats a round's stages and ops as disjoint pieces.
  template <typename F>
  decltype(auto) stage(const std::string& name, F&& fn) {
    Scope scope(*this, name, false);
    return fn();
  }

  // Times `fn` as one op: its duration is appended to the round's op list.
  template <typename F>
  decltype(auto) op(const std::string& name, F&& fn) {
    Scope scope(*this, name, true);
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  class Scope {
   public:
    Scope(Timeline& tl, const std::string& name, bool is_op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Timeline& tl_;
    const std::string& name_;
    bool is_op_;
    int span_ = -1;
    double start_;
  };

  void maybe_move_cpu();

  bool trace_;
  std::vector<int> cpus_;  // CPUs the process may run on
  std::size_t next_cpu_ = 0;
  double last_move_ = 0.0;
  bool spans_on_ = false;
  RoundLog* log_ = nullptr;
  double round_start_ = 0.0;
  int round_span_ = -1;
  std::vector<int> stack_;  // open span indices
  // The open round's stage names, as indices into its log's stages.
  std::unordered_map<std::string, std::size_t> stage_index_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

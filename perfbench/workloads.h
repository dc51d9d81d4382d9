// The benchmark's three workloads, each sized so one layer does most of the
// work (see README.md for why each exists and which metrics it moves):
//   dss_paper     - the paper's DSS setup; replay dominates.
//   oltp_rw       - the Section 8 OLTP mix on fresh databases; query
//                   execution and trace recording dominate.
//   tenant_stream - 8 recorded tenants composed, written as an on-disk v3
//                   trace and stream-replayed; composition and trace I/O
//                   dominate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

// Op accounting, correctness failures and the run's exact outputs.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Modelled (simulated) end-to-end outputs and exact sizes: deterministic.
  std::vector<std::pair<std::string, double>> modelled;
  // Exact per-layer counts and ratios.
  std::vector<std::pair<std::string, double>> layer;
  // Work done per round by each stage (block events, or bytes for
  // trace_io.write), the numerators of the timed rates.
  std::vector<std::pair<std::string, double>> work;
  // Work done per setup repeat, for rates measured during setup.
  std::vector<std::pair<std::string, double>> setup_work;

  void fail(const std::string& what) {
    ++failed;
    failures.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // One setup repeat, run inside an open Timeline round. The driver repeats
  // setup identically before every round (setup_s is its best, piece by
  // piece); the products of the latest repeat are the ones the next round
  // uses.
  virtual void setup(Timeline& tl) = 0;
  // Untimed by the job clock, in a log of its own: rebuilds whatever a round
  // consumes (fresh databases, stages "db.build:<index>"; tenant_stream's
  // epochs).
  virtual void prepare(Timeline& tl) = 0;
  // One job round, inside an open Timeline round.
  virtual void round(Timeline& tl, RoundLog& log) = 0;
  // Untimed, after each round: the identity of the work the round did
  // (event count, trace fingerprint, row counters), which every round must
  // repeat.
  virtual void identify(RoundLog& log) = 0;
  // Traced runs only: the round's queries/transactions executed with no
  // trace sink (stage "db.exec"), on freshly built databases.
  virtual void probe_untraced(Timeline& tl) = 0;
  // Untimed correctness gate, once per run after the rounds: every
  // simulator cell against the interpreter and the recorded streams
  // against the library's own drivers. Also publishes the modelled metrics.
  virtual void gate() = 0;
};

// nullptr for an unknown name. `workdir` holds scratch trace files.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir,
                                        Report& report);

}  // namespace perfbench

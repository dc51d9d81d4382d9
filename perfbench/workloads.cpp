#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "backend/pipeline.h"
#include "core/layouts.h"
#include "core/stc_layout.h"
#include "db/kernel.h"
#include "db/tpcd/oltp.h"
#include "db/tpcd/queries.h"
#include "db/tpcd/workload.h"
#include "frontend/front_end.h"
#include "profile/profile.h"
#include "sim/fetch_unit.h"
#include "sim/icache.h"
#include "sim/replay.h"
#include "sim/trace_cache.h"
#include "support/check.h"
#include "support/error.h"
#include "support/rng.h"
#include "trace/block_trace.h"
#include "trace/trace_io.h"
#include "workload/composer.h"
#include "workload/streams.h"

namespace perfbench {
namespace {

using namespace stc;

constexpr std::uint32_t kLine = 32;

const cfg::ProgramImage& image() { return db::kernel_image(); }

sim::CacheGeometry geometry(std::uint32_t cache_bytes) {
  return {cache_bytes, kLine, 1};
}

frontend::FrontEndParams gshare_frontend() {
  frontend::FrontEndParams fe;
  fe.kind = frontend::BpredKind::kGshare;
  fe.prefetch = true;
  return fe;
}

backend::BackendParams ooo_backend() {
  backend::BackendParams bp;
  bp.kind = backend::BackendKind::kOoo;
  return bp;
}

std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull + 0x9e3779b97f4a7c15ull;
}

// Every workload runs on the repository's default TPC-D database (generator
// seed 19990401, as in EXPERIMENTS.md); --seed varies the traffic run
// against it, not the data, so the layouts trained on it stay comparable
// across seeds.
std::unique_ptr<db::Database> build_db(double scale_factor,
                                       db::IndexKind kind) {
  db::tpcd::WorkloadConfig config;
  config.scale_factor = scale_factor;
  config.seed = 19990401;
  return db::tpcd::make_database(config, kind);
}

// One TPC-D query through the public SQL entry point; returns its rows.
std::uint64_t run_query_op(db::Database& db, int id) {
  const db::QueryResult result = db.run_query(db::tpcd::query(id).sql);
  STC_CHECK_MSG(!result.schema.columns().empty(), "query produced no schema");
  return result.rows.size();
}

// The Section 8 transaction mix, one transaction per step(). It issues
// exactly the statements and inserts db::tpcd::run_oltp_workload issues for
// the same config (the gates check trace and row counts against it); the
// library runs the whole mix in one call, which leaves no per-transaction
// latency to time.
class OltpSession {
 public:
  enum Kind : std::uint32_t { kOrderStatus, kStockCheck, kNewOrder };

  OltpSession(db::Database& db, const db::tpcd::OltpConfig& config)
      : db_(db), config_(config), rng_(config.seed) {
    orders_ = db.catalog().lookup("ORDERS");
    lineitem_ = db.catalog().lookup("LINEITEM");
    const db::TableInfo* customer = db.catalog().lookup("CUSTOMER");
    const db::TableInfo* part = db.catalog().lookup("PART");
    STC_REQUIRE(orders_ != nullptr && lineitem_ != nullptr &&
                customer != nullptr && part != nullptr);
    customers_ = customer->heap->tuple_count();
    parts_ = part->heap->tuple_count();
    STC_REQUIRE(customers_ > 0 && parts_ > 0);
  }

  // Runs the next transaction; adds its rows to `stats`.
  Kind step(db::tpcd::OltpStats& stats) {
    const double pick = rng_.uniform_double();
    if (pick < config_.order_status_fraction) {
      const auto custkey =
          static_cast<std::int64_t>(rng_.zipf(customers_, config_.zipf_theta));
      const db::QueryResult header = db_.run_query(
          "SELECT c_name, c_acctbal, o_orderkey, o_orderdate, "
          "o_orderpriority FROM customer, orders WHERE c_custkey = " +
          std::to_string(custkey) +
          " AND o_custkey = c_custkey ORDER BY o_orderdate DESC LIMIT 5");
      stats.rows_read += header.rows.size();
      if (!header.rows.empty()) {
        const std::int64_t orderkey = header.rows.front()[2].as_int();
        const db::QueryResult lines = db_.run_query(
            "SELECT l_linenumber, l_quantity, l_extendedprice, l_shipdate "
            "FROM lineitem WHERE l_orderkey = " +
            std::to_string(orderkey) + " ORDER BY l_linenumber");
        stats.rows_read += lines.rows.size();
      }
      ++stats.order_status;
      return kOrderStatus;
    }
    if (pick < config_.order_status_fraction + config_.stock_check_fraction) {
      const auto partkey =
          static_cast<std::int64_t>(rng_.zipf(parts_, config_.zipf_theta));
      const db::QueryResult result = db_.run_query(
          "SELECT p_name, ps_suppkey, ps_availqty, ps_supplycost, s_name "
          "FROM part, partsupp, supplier WHERE p_partkey = " +
          std::to_string(partkey) +
          " AND ps_partkey = p_partkey AND s_suppkey = ps_suppkey "
          "ORDER BY ps_supplycost");
      stats.rows_read += result.rows.size();
      ++stats.stock_checks;
      return kStockCheck;
    }
    const std::int64_t orderkey = next_orderkey_++;
    const auto custkey =
        static_cast<std::int64_t>(rng_.zipf(customers_, config_.zipf_theta));
    const std::int64_t today = db::date_from_ymd(1998, 8, 2);
    db_.insert(*orders_,
               {db::Value(orderkey), db::Value(custkey),
                db::Value(std::string("O")), db::Value(0.0), db::Value(today),
                db::Value(std::string("1-URGENT")),
                db::Value(std::string("Clerk#1")),
                db::Value(std::int64_t{0}), db::Value(std::string("oltp"))});
    ++stats.rows_inserted;
    const int lines = 1 + static_cast<int>(rng_.uniform(7));
    for (int l = 1; l <= lines; ++l) {
      const double qty = 1.0 + static_cast<double>(rng_.uniform(10));
      db_.insert(
          *lineitem_,
          {db::Value(orderkey),
           db::Value(static_cast<std::int64_t>(
               rng_.zipf(parts_, config_.zipf_theta))),
           db::Value(std::int64_t{1}), db::Value(static_cast<std::int64_t>(l)),
           db::Value(qty), db::Value(qty * 100.0), db::Value(0.0),
           db::Value(0.0), db::Value(std::string("N")),
           db::Value(std::string("O")), db::Value(today), db::Value(today),
           db::Value(today), db::Value(std::string("NONE")),
           db::Value(std::string("AIR")), db::Value(std::string("oltp"))});
      ++stats.rows_inserted;
    }
    ++stats.new_orders;
    return kNewOrder;
  }

 private:
  db::Database& db_;
  db::tpcd::OltpConfig config_;
  Rng rng_;
  db::TableInfo* orders_ = nullptr;
  db::TableInfo* lineitem_ = nullptr;
  std::uint64_t customers_ = 0;
  std::uint64_t parts_ = 0;
  std::int64_t next_orderkey_ = 1000000000;  // as run_oltp_workload
};

std::uint64_t rows_of(const db::tpcd::OltpStats& s) {
  return s.rows_read + s.rows_inserted;
}

// ---- Simulator cells --------------------------------------------------------

enum class Sim { kMissRate, kSeq3, kTraceCache, kFrontend, kBackend };

const char* stage_of(Sim sim) {
  switch (sim) {
    case Sim::kMissRate: return "sim.missrate";
    case Sim::kSeq3: return "sim.seq3";
    case Sim::kTraceCache: return "sim.tc";
    case Sim::kFrontend: return "frontend.gshare";
    case Sim::kBackend: return "backend.ooo";
  }
  return "?";
}

struct CellResult {
  CounterSet counters;
  sim::MissRateResult miss;  // summed over a cell's calls
  // Per-call results: meaningful for cells replayed in one call.
  sim::FetchResult fetch;
  frontend::FrontEndStats fe;
  backend::BackendStats be;
};

// One simulator call over a compiled plan, or through the interpreter over
// (trace, layout) when `plan` is null — the reference semantics. Adds the
// simulator's counters to `out`; the caller owns (and reports) the cache.
void run_sim(Sim kind, const sim::ReplayPlan* plan,
             const trace::BlockTrace* trace, const cfg::AddressMap& layout,
             sim::ICache& cache, CellResult& out) {
  const sim::FetchParams params;
  CounterSet counters;
  switch (kind) {
    case Sim::kMissRate: {
      const sim::MissRateResult r =
          plan != nullptr ? sim::replay_missrate(*plan, cache)
                          : sim::run_missrate(*trace, image(), layout, cache);
      out.miss.instructions += r.instructions;
      out.miss.line_accesses += r.line_accesses;
      out.miss.misses += r.misses;
      r.export_counters(counters);
      break;
    }
    case Sim::kSeq3:
      out.fetch = plan != nullptr ? sim::run_seq3(*plan, params, &cache)
                                  : sim::run_seq3(*trace, image(), layout,
                                                  params, &cache);
      out.fetch.export_counters(counters);
      break;
    case Sim::kTraceCache: {
      const sim::TraceCacheParams tc;
      out.fetch = plan != nullptr
                      ? sim::run_trace_cache(*plan, params, tc, &cache)
                      : sim::run_trace_cache(*trace, image(), layout, params,
                                             tc, &cache);
      out.fetch.export_counters(counters);
      break;
    }
    case Sim::kFrontend: {
      const auto r = plan != nullptr
                         ? frontend::run_seq3_frontend(*plan, params,
                                                       gshare_frontend(),
                                                       &cache)
                         : frontend::run_seq3_frontend(*trace, image(), layout,
                                                       params,
                                                       gshare_frontend(),
                                                       &cache);
      out.fetch = r.fetch;
      out.fe = r.frontend;
      out.fetch.export_counters(counters);
      out.fe.export_counters(counters);
      break;
    }
    case Sim::kBackend: {
      const frontend::FrontEndParams perfect;
      auto r = plan != nullptr
                   ? backend::run_seq3_backend(*plan, params, perfect,
                                               ooo_backend(), &cache)
                   : backend::run_seq3_backend(*trace, image(), layout, params,
                                               perfect, ooo_backend(), &cache);
      if (!r.is_ok()) throw StatusError(r.status());
      out.fetch = r.value().fetch;
      out.be = r.value().backend;
      out.fetch.export_counters(counters);
      out.be.export_counters(counters);
      break;
    }
  }
  out.counters.merge(counters);
}

struct Cell {
  Sim sim;
  std::size_t layout;  // index into the grid's layouts
  std::uint32_t cache_bytes;
  // Replays only the trace's leading `window` events; 0 replays it all.
  std::uint64_t window;
  // Events per simulator call; 0 replays the cell in one call. A chunked
  // cell makes consecutive calls sharing one cache, so its miss counts equal
  // a single pass's, while the fetch pipeline restarts at every call.
  std::uint64_t chunk = 0;
};

// A fixed list of simulator cells over a recorded trace and a few layouts.
// Each round builds compiled plans (stages "sim.plan#<n>") and times every
// call of every cell as its own stage, "<layer stage>:<cell>#<call>": short
// pieces are what best-of-rounds needs on a noisy host. The gate re-runs
// every cell through the interpreter, call by call, and requires identical
// counters.
class CellGrid {
 public:
  CellGrid(std::vector<std::string> layout_names, std::vector<Cell> cells)
      : names_(std::move(layout_names)),
        cells_(std::move(cells)),
        results_(cells_.size()) {}

  std::size_t find(Sim sim, const std::string& layout,
                   std::uint32_t cache_bytes) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].sim == sim && names_[cells_[i].layout] == layout &&
          cells_[i].cache_bytes == cache_bytes) {
        return i;
      }
    }
    STC_CHECK_MSG(false, "no such cell");
    return 0;
  }
  const CellResult& result(std::size_t cell) const { return results_[cell]; }
  // The plan of a cell replayed in one call, from the last run.
  const sim::ReplayPlan& plan(std::size_t cell) const {
    const auto& plans = plans_.at(key(cells_[cell]));
    STC_REQUIRE(plans.size() == 1);
    return *plans.front();
  }

  // Builds the plans and runs every cell: timed into `log` when `tl` is
  // set, untimed (cells feeding only modelled metrics) otherwise.
  void run(Timeline* tl, RoundLog* log, Report& report,
           const trace::BlockTrace& trace,
           const std::vector<const cfg::AddressMap*>& layouts) {
    STC_REQUIRE(layouts.size() == names_.size());
    build_plans(tl, trace, layouts);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      const auto& plans = plans_.at(key(c));
      sim::ICache cache(geometry(c.cache_bytes));
      results_[i] = CellResult();
      for (std::size_t k = 0; k < plans.size(); ++k) {
        timed(tl, name(i) + "#" + std::to_string(k), [&] {
          run_sim(c.sim, plans[k].get(), nullptr, *layouts[c.layout], cache,
                  results_[i]);
        });
        ++report.attempted;
      }
      cache.stats().export_counters(results_[i].counters);
      if (log == nullptr) continue;
      const std::string prefix = name(i) + "/";
      for (const auto& [k, v] : results_[i].counters.items()) {
        log->counters.add(prefix + k, v);
      }
    }
  }

  // Block events each stage replays per round.
  void add_work(std::vector<std::pair<std::string, double>>& work,
                std::uint64_t trace_events) const {
    for (const Cell& c : cells_) {
      add(work, stage_of(c.sim), static_cast<double>(events(c, trace_events)));
    }
  }

  void check_interp(Report& report, const trace::BlockTrace& trace,
                    const std::vector<const cfg::AddressMap*>& layouts) const {
    std::vector<cfg::BlockId> events;
    events.reserve(trace.num_events());
    trace.for_each([&](cfg::BlockId b) { events.push_back(b); });
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      sim::ICache cache(geometry(c.cache_bytes));
      CellResult ref;
      for (const auto& [begin, end] : calls(c, events.size())) {
        trace::BlockTrace part;
        for (std::size_t e = begin; e < end; ++e) part.append(events[e]);
        run_sim(c.sim, nullptr, &part, *layouts[c.layout], cache, ref);
      }
      cache.stats().export_counters(ref.counters);
      if (ref.counters.items() != results_[i].counters.items()) {
        report.fail("cell " + name(i) + " differs from the interpreter");
      }
    }
  }

  std::string name(std::size_t i) const {
    const Cell& c = cells_[i];
    return std::string(stage_of(c.sim)) + ":" + names_[c.layout] + "/" +
           std::to_string(c.cache_bytes) +
           (c.window != 0 ? "/w" + std::to_string(c.window) : "");
  }

  static void add(std::vector<std::pair<std::string, double>>& work,
                  const std::string& stage, double v) {
    for (auto& [k, x] : work) {
      if (k == stage) {
        x += v;
        return;
      }
    }
    work.emplace_back(stage, v);
  }

 private:
  // Plans are shared by cells with the same layout, window and chunking;
  // back-end cells need the back-end tables baked in.
  using Key = std::tuple<std::size_t, std::uint64_t, std::uint64_t, bool>;
  static Key key(const Cell& c) {
    return {c.layout, c.window, c.chunk, c.sim == Sim::kBackend};
  }
  static std::uint64_t events(const Cell& c, std::uint64_t trace_events) {
    return c.window == 0 ? trace_events : std::min(c.window, trace_events);
  }
  // [begin, end) event ranges of a cell's calls.
  static std::vector<std::pair<std::size_t, std::size_t>> calls(
      const Cell& c, std::uint64_t trace_events) {
    const std::uint64_t n = events(c, trace_events);
    const std::uint64_t step = c.chunk == 0 ? std::max<std::uint64_t>(n, 1)
                                            : c.chunk;
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::uint64_t b = 0; b < n; b += step) {
      out.emplace_back(b, std::min(b + step, n));
    }
    return out;
  }

  // Runs `fn` as stage `name` of `tl`'s open round, or untimed without one.
  template <typename F>
  static void timed(Timeline* tl, const std::string& name, F&& fn) {
    if (tl != nullptr) {
      tl->stage(name, fn);
    } else {
      fn();
    }
  }

  // Every chunk decode, slab copy and plan build is a stage of its own,
  // "sim.plan#<n>", numbered in build order.
  void build_plans(Timeline* tl, const trace::BlockTrace& trace,
                   const std::vector<const cfg::AddressMap*>& layouts) {
    plans_.clear();
    std::size_t piece = 0;
    const auto plan_stage = [&] { return "sim.plan#" + std::to_string(piece++); };
    // Only the longest prefix any cell needs is decoded, straight off the
    // leading chunks.
    std::uint64_t longest = 0;
    for (const Cell& c : cells_) {
      longest = std::max(longest, events(c, trace.num_events()));
    }
    std::vector<cfg::BlockId> head;
    for (std::size_t k = 0; k < trace.num_chunks() && head.size() < longest;
         ++k) {
      timed(tl, plan_stage(), [&] { trace.decode_chunk(k, head); });
    }
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<std::shared_ptr<const sim::EventSlab>>>
        slabs;
    for (const Cell& c : cells_) {
      auto& parts = slabs[{c.window, c.chunk}];
      if (!parts.empty()) continue;
      for (const auto& [begin, end] : calls(c, trace.num_events())) {
        timed(tl, plan_stage(), [&] {
          auto slab = std::make_shared<sim::EventSlab>();
          slab->adopt(std::vector<cfg::BlockId>(head.begin() + begin,
                                                head.begin() + end));
          parts.push_back(std::move(slab));
        });
      }
    }
    for (const Cell& c : cells_) {
      auto& plans = plans_[key(c)];
      if (!plans.empty()) continue;
      for (const auto& slab : slabs.at({c.window, c.chunk})) {
        timed(tl, plan_stage(), [&] {
          Result<sim::ReplayPlan> built = sim::build_replay_plan(
              sim::ReplayMode::kCompiled, slab, image(), *layouts[c.layout],
              kLine,
              c.sim == Sim::kBackend ? ooo_backend().spec()
                                     : sim::BackendSpec{});
          if (!built.is_ok()) throw StatusError(built.status());
          plans.push_back(
              std::make_unique<sim::ReplayPlan>(std::move(built).take()));
        });
      }
    }
  }

  std::vector<std::string> names_;
  std::vector<Cell> cells_;
  std::map<Key, std::vector<std::unique_ptr<sim::ReplayPlan>>> plans_;
  std::vector<CellResult> results_;
};

// Tenant-attributed miss rate: the plan's events cut into consecutive
// (tenant, events) segments (clipped to the plan's window), one shared
// cache, each tenant charged for its own probes. The per-tenant sums must
// equal the plain replay's counters.
using Segments = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

double worst_tenant_miss_pct(Report& report, const sim::ReplayPlan& plan,
                             const Segments& segments, std::size_t tenants,
                             std::uint32_t cache_bytes,
                             const sim::MissRateResult& whole) {
  sim::ICache cache(geometry(cache_bytes));
  sim::replay_detail::MissSpanState state;
  std::vector<sim::MissRateResult> per(tenants);
  std::uint64_t pos = 0;
  for (const auto& [tenant, segment] : segments) {
    STC_REQUIRE(tenant < tenants);
    const std::uint64_t events = std::min(segment, plan.num_events() - pos);
    sim::replay_detail::missrate_span(
        plan.slab().data() + pos, events, plan.meta(), &plan.compiled(), kLine,
        cache, nullptr, sim::ReplayKernel::kScalar, state, per[tenant]);
    pos += events;
  }
  sim::MissRateResult sum;
  double worst = 0.0;
  for (const auto& t : per) {
    sum.instructions += t.instructions;
    sum.line_accesses += t.line_accesses;
    sum.misses += t.misses;
    worst = std::max(worst, t.misses_per_100_insns());
  }
  if (pos != plan.num_events() || sum.instructions != whole.instructions ||
      sum.line_accesses != whole.line_accesses || sum.misses != whole.misses) {
    report.fail("tenant-attributed misses do not add up to the whole replay");
  }
  return worst;
}

void put(std::vector<std::pair<std::string, double>>& out,
         const std::string& name, double v) {
  out.emplace_back(name, v);
}

// A chunked miss-rate cell shares one cache across its calls, so it must
// count exactly the misses of the same cell replayed in one call.
void same_misses(Report& report, const CellResult& chunked,
                 const CellResult& whole) {
  if (chunked.miss.misses != whole.miss.misses ||
      chunked.miss.instructions != whole.miss.instructions) {
    report.fail("chunked miss-rate replay differs from the single pass");
  }
}

void put_sim_layers(Report& report, const CellResult& tc,
                    const CellResult& backend) {
  put(report.layer, "sim.tc_hit_pct", 100.0 * tc.fetch.tc_hit_ratio());
  const backend::BackendStats& be = backend.be;
  put(report.layer, "backend.frontend_stall_cycles",
      static_cast<double>(be.frontend_stall_cycles));
  put(report.layer, "backend.dispatch_stall_iq",
      static_cast<double>(be.dispatch_stall_iq));
  put(report.layer, "backend.dispatch_stall_rob",
      static_cast<double>(be.dispatch_stall_rob));
  put(report.layer, "backend.issue_stall_cycles",
      static_cast<double>(be.issue_stall_cycles));
}

// ---- dss_paper --------------------------------------------------------------
//
// The paper's setup per round: the Training set recorded on the B-tree
// database (with the profile attached) and the Test set on the B-tree and
// hash databases, the five layouts built from the profile, then the miss-rate
// sweep, SEQ.3, trace cache, gshare front end and OoO back end replayed over
// the Test trace. The slower simulators replay a fixed leading window.
class DssPaper final : public Workload {
 public:
  static constexpr double kScale = 0.0005;
  static constexpr std::uint32_t kCache = 2048;
  static constexpr std::uint32_t kCfa = 512;
  static constexpr std::uint64_t kWindow = 1000000;
  static constexpr std::uint64_t kTimedWindow = 500000;

  DssPaper(std::uint64_t seed, Report& report)
      : seed_(seed),
        report_(report),
        grid_(layout_names(), cells()),
        model_({"ops"}, model_cells()) {}

  // Setup runs before every round, so its databases are fresh for it.
  void setup(Timeline& tl) override {
    tl.stage("db.build:btree",
             [&] { btree_ = build_db(kScale, db::IndexKind::kBTree); });
    tl.stage("db.build:hash",
             [&] { hash_ = build_db(kScale, db::IndexKind::kHash); });
  }

  void prepare(Timeline&) override {}

  void round(Timeline& tl, RoundLog& log) override {
    profile::Profile profile(image());
    train_.clear();
    test_.clear();
    rows_ = 0;
    {
      trace::TraceRecorder recorder(train_);
      cfg::TeeSink tee;
      tee.add(&profile);
      tee.add(&recorder);
      run_ops(tl, log, *btree_, db::tpcd::training_set(), &tee);
    }
    {
      trace::TraceRecorder recorder(test_);
      run_ops(tl, log, *btree_, test_order(), &recorder);
      btree_events_ = test_.num_events();
      run_ops(tl, log, *hash_, test_order(), &recorder);
    }
    profile::WeightedCFG wcfg;
    tl.stage("profile.wcfg",
             [&] { wcfg = profile::WeightedCFG::from_profile(profile); });
    const core::LayoutKind kinds[] = {
        core::LayoutKind::kOrig, core::LayoutKind::kPettisHansen,
        core::LayoutKind::kTorrellas, core::LayoutKind::kStcAuto,
        core::LayoutKind::kStcOps};
    layouts_.clear();
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      layouts_.push_back(tl.stage("core.layout." + layout_names()[i], [&] {
        return core::make_layout(kinds[i], wcfg, kCache, kCfa);
      }));
    }
    grid_.run(&tl, &log, report_, test_, layout_ptrs());
  }

  void identify(RoundLog& log) override {
    log.events = train_.num_events() + test_.num_events();
    log.fingerprint = mix_hash(train_.content_hash(), test_.content_hash());
  }

  void probe_untraced(Timeline& tl) override {
    setup(tl);
    tl.stage("db.exec", [&] {
      for (int id : db::tpcd::training_set()) run_query_op(*btree_, id);
      for (int id : test_order()) run_query_op(*btree_, id);
      for (int id : test_order()) run_query_op(*hash_, id);
    });
  }

  void gate() override {
    // The per-query recording must be the library's Training/Test stream.
    auto btree = build_db(kScale, db::IndexKind::kBTree);
    auto hash = build_db(kScale, db::IndexKind::kHash);
    trace::BlockTrace train;
    trace::BlockTrace test;
    {
      trace::TraceRecorder recorder(train);
      db::tpcd::run_training_workload(*btree, &recorder);
    }
    {
      trace::TraceRecorder recorder(test);
      db::tpcd::run_queries(*btree, test_order(), &recorder);
      db::tpcd::run_queries(*hash, test_order(), &recorder);
    }
    if (train.content_hash() != train_.content_hash() ||
        test.content_hash() != test_.content_hash()) {
      report_.fail("dss_paper: recorded stream differs from the library driver");
    }
    grid_.check_interp(report_, test_, layout_ptrs());
    grid_.add_work(report_.work, test_.num_events());
    put(report_.work, "record",
        static_cast<double>(train_.num_events() + test_.num_events()));
    model_.run(nullptr, nullptr, report_, test_, {&layouts_[4]});
    model_.check_interp(report_, test_, {&layouts_[4]});

    const CellResult& miss =
        model_.result(model_.find(Sim::kMissRate, "ops", kCache));
    const CellResult& seq3 = model_.result(model_.find(Sim::kSeq3, "ops", kCache));
    const CellResult& tc =
        model_.result(model_.find(Sim::kTraceCache, "ops", kCache));
    const CellResult& fe = model_.result(model_.find(Sim::kFrontend, "ops", kCache));
    const CellResult& be = model_.result(model_.find(Sim::kBackend, "ops", kCache));
    same_misses(report_, grid_.result(grid_.find(Sim::kMissRate, "ops", kCache)),
                miss);
    put(report_.modelled, "miss_pct", miss.miss.misses_per_100_insns());
    put(report_.modelled, "fetch_ipc", seq3.fetch.ipc());
    put(report_.modelled, "tc_ipc", tc.fetch.ipc());
    put(report_.modelled, "core_ipc", be.be.ipc());
    // Tenants here are the two databases' Test streams.
    const Segments segments = {{0, btree_events_},
                               {1, test_.num_events() - btree_events_}};
    put(report_.modelled, "worst_tenant_miss_pct",
        worst_tenant_miss_pct(
            report_, model_.plan(model_.find(Sim::kMissRate, "ops", kCache)),
            segments, 2, kCache, miss.miss));
    put(report_.modelled, "trace_bytes_per_event",
        static_cast<double>(test_.byte_size()) /
            static_cast<double>(test_.num_events()));
    put(report_.layer, "db.rows_read", static_cast<double>(rows_));
    put(report_.layer, "db.rows_inserted", 0.0);
    put(report_.layer, "trace.events",
        static_cast<double>(train_.num_events() + test_.num_events()));
    put(report_.layer, "frontend.mpki",
        fe.fe.mispredicts_per_ki(fe.fetch.instructions));
    put_sim_layers(report_, tc, be);
  }

 private:
  static std::vector<std::string> layout_names() {
    return {"orig", "ph", "torr", "auto", "ops"};
  }

  // The seed rotates the Test set's query order; the Training set (and so
  // the profile and layouts) is the paper's, fixed.
  std::vector<int> test_order() const {
    std::vector<int> ids = db::tpcd::test_set();
    std::rotate(ids.begin(),
                ids.begin() + static_cast<std::ptrdiff_t>(seed_ % ids.size()),
                ids.end());
    return ids;
  }

  // Timed cells, replayed in calls of about 2–3 ms each. They are sized for
  // a round of about 1.3 s, so a run holds 20 or more rounds of samples.
  static std::vector<Cell> cells() {
    std::vector<Cell> cells;
    for (std::size_t l = 0; l < 5; ++l) {
      for (std::uint32_t cache : {1024u, 2048u}) {
        cells.push_back({Sim::kMissRate, l, cache, 0, 200000});
      }
    }
    cells.push_back({Sim::kSeq3, 4, kCache, kTimedWindow * 4, 50000});
    cells.push_back({Sim::kTraceCache, 4, kCache, kTimedWindow, 20000});
    cells.push_back({Sim::kFrontend, 4, kCache, kTimedWindow, 10000});
    cells.push_back({Sim::kBackend, 4, kCache, kTimedWindow, 10000});
    return cells;
  }
  // The modelled metrics' cells (ops layout only), each one call, untimed.
  static std::vector<Cell> model_cells() {
    return {{Sim::kMissRate, 0, kCache, 0},
            {Sim::kSeq3, 0, kCache, 0},
            {Sim::kTraceCache, 0, kCache, kWindow},
            {Sim::kFrontend, 0, kCache, kWindow},
            {Sim::kBackend, 0, kCache, kWindow}};
  }

  std::vector<const cfg::AddressMap*> layout_ptrs() const {
    std::vector<const cfg::AddressMap*> out;
    for (const auto& l : layouts_) out.push_back(&l);
    return out;
  }

  void run_ops(Timeline& tl, RoundLog& log, db::Database& db,
               const std::vector<int>& ids, cfg::TraceSink* sink) {
    db.kernel().set_sink(sink);
    for (int id : ids) {
      const std::uint64_t rows =
          tl.op("record.op", [&] { return run_query_op(db, id); });
      log.op_rows.push_back(rows);
      rows_ += rows;
      ++report_.attempted;
    }
    db.kernel().set_sink(nullptr);
  }

  std::uint64_t seed_;
  Report& report_;
  CellGrid grid_;
  std::unique_ptr<db::Database> btree_;
  std::unique_ptr<db::Database> hash_;
  trace::BlockTrace train_;
  trace::BlockTrace test_;
  std::uint64_t btree_events_ = 0;
  std::uint64_t rows_ = 0;
  std::vector<cfg::AddressMap> layouts_;
  CellGrid model_;
};

// ---- oltp_rw ----------------------------------------------------------------
//
// The Section 8 transaction mix (45/45/10, new-order inserts maintaining
// every index) on a fresh B-tree and a fresh hash database per round, traced
// one transaction at a time; then an OLTP-trained ops layout (profile from a
// differently seeded mix recorded at setup) replayed through a few cells.
class OltpRw final : public Workload {
 public:
  static constexpr double kScale = 0.001;
  static constexpr std::uint64_t kTransactions = 4000;  // per database
  static constexpr std::uint32_t kCache = 2048;
  static constexpr std::uint32_t kCfa = 512;
  // Replay windows keep the simulators a minor share of the round.
  static constexpr std::uint64_t kMissWindow = 2000000;
  static constexpr std::uint64_t kFetchWindow = 400000;
  static constexpr std::uint64_t kModelWindow = 1000000;

  OltpRw(std::uint64_t seed, Report& report)
      : seed_(seed),
        report_(report),
        grid_({"orig", "ops"}, cells()),
        model_({"ops"}, model_cells()) {}

  // The training profile comes from a fixed mix (seed 7, the library
  // default), so the ops layout is the same for every --seed.
  void setup(Timeline& tl) override {
    prepare(tl);
    profile_ = std::make_unique<profile::Profile>(image());
    tl.stage("profile.record", [&] {
      db::tpcd::OltpConfig config;
      config.transactions = kTransactions;
      db::tpcd::run_oltp_workload(*btree_, config, profile_.get());
    });
  }

  void prepare(Timeline& tl) override {
    tl.stage("db.build:btree",
             [&] { btree_ = build_db(kScale, db::IndexKind::kBTree); });
    tl.stage("db.build:hash",
             [&] { hash_ = build_db(kScale, db::IndexKind::kHash); });
  }

  void round(Timeline& tl, RoundLog& log) override {
    trace_.clear();
    classes_.clear();
    {
      trace::TraceRecorder recorder(trace_);
      run_mix(tl, &log, *btree_, mix(1), &recorder, btree_stats_);
      run_mix(tl, &log, *hash_, mix(2), &recorder, hash_stats_);
    }
    profile::WeightedCFG wcfg;
    tl.stage("profile.wcfg",
             [&] { wcfg = profile::WeightedCFG::from_profile(*profile_); });
    layouts_.clear();
    layouts_.push_back(tl.stage("core.layout.orig", [&] {
      return core::make_layout(core::LayoutKind::kOrig, wcfg, kCache, kCfa);
    }));
    layouts_.push_back(tl.stage("core.layout.ops", [&] {
      return core::make_layout(core::LayoutKind::kStcOps, wcfg, kCache, kCfa);
    }));
    grid_.run(&tl, &log, report_, trace_, {&layouts_[0], &layouts_[1]});
  }

  void identify(RoundLog& log) override {
    log.events = trace_.num_events();
    log.fingerprint = trace_.content_hash();
    log.counters.add("rows/btree", rows_of(btree_stats_));
    log.counters.add("rows/hash", rows_of(hash_stats_));
  }

  void probe_untraced(Timeline& tl) override {
    prepare(tl);
    db::tpcd::OltpStats a;
    db::tpcd::OltpStats b;
    tl.stage("db.exec", [&] {
      run_mix(tl, nullptr, *btree_, mix(1), nullptr, a);
      run_mix(tl, nullptr, *hash_, mix(2), nullptr, b);
    });
  }

  void gate() override {
    // Stepping the mix must replay the library's run_oltp_workload exactly:
    // same block stream, same rows read and inserted.
    auto btree = build_db(kScale, db::IndexKind::kBTree);
    auto hash = build_db(kScale, db::IndexKind::kHash);
    trace::BlockTrace ref;
    trace::TraceRecorder recorder(ref);
    const auto sa = db::tpcd::run_oltp_workload(*btree, mix(1), &recorder);
    const auto sb = db::tpcd::run_oltp_workload(*hash, mix(2), &recorder);
    if (ref.content_hash() != trace_.content_hash() ||
        rows_of(sa) != rows_of(btree_stats_) ||
        rows_of(sb) != rows_of(hash_stats_)) {
      report_.fail("oltp_rw: transaction stream differs from the library driver");
    }
    grid_.check_interp(report_, trace_, {&layouts_[0], &layouts_[1]});
    grid_.add_work(report_.work, trace_.num_events());
    model_.run(nullptr, nullptr, report_, trace_, {&layouts_[1]});
    model_.check_interp(report_, trace_, {&layouts_[1]});
    put(report_.work, "record", static_cast<double>(trace_.num_events()));

    const std::size_t miss = model_.find(Sim::kMissRate, "ops", kCache);
    const CellResult& seq3 = model_.result(model_.find(Sim::kSeq3, "ops", kCache));
    const CellResult& tc = model_.result(model_.find(Sim::kTraceCache, "ops", kCache));
    const CellResult& be = model_.result(model_.find(Sim::kBackend, "ops", kCache));
    same_misses(report_, grid_.result(grid_.find(Sim::kMissRate, "ops", kCache)),
                model_.result(miss));
    put(report_.modelled, "miss_pct",
        model_.result(miss).miss.misses_per_100_insns());
    put(report_.modelled, "fetch_ipc", seq3.fetch.ipc());
    put(report_.modelled, "tc_ipc", tc.fetch.ipc());
    put(report_.modelled, "core_ipc", be.be.ipc());
    // Tenants here are the three transaction classes.
    put(report_.modelled, "worst_tenant_miss_pct",
        worst_tenant_miss_pct(report_, model_.plan(miss), classes_, 3, kCache,
                              model_.result(miss).miss));
    put(report_.modelled, "trace_bytes_per_event",
        static_cast<double>(trace_.byte_size()) /
            static_cast<double>(trace_.num_events()));
    put(report_.layer, "db.rows_read",
        static_cast<double>(btree_stats_.rows_read + hash_stats_.rows_read));
    put(report_.layer, "db.rows_inserted",
        static_cast<double>(btree_stats_.rows_inserted +
                            hash_stats_.rows_inserted));
    put(report_.layer, "trace.events", static_cast<double>(trace_.num_events()));
    put_sim_layers(report_, tc, be);
  }

 private:
  // Rounds replay only miss-rate and SEQ.3 cells (calls of about 2 ms), so
  // replay stays a minor share.
  static std::vector<Cell> cells() {
    return {{Sim::kMissRate, 0, kCache, kMissWindow, 150000},
            {Sim::kMissRate, 1, kCache, kMissWindow, 150000},
            {Sim::kSeq3, 1, kCache, kFetchWindow, 40000}};
  }
  // The modelled metrics' cells (ops layout only), each one call, untimed.
  static std::vector<Cell> model_cells() {
    return {{Sim::kMissRate, 0, kCache, kMissWindow},
            {Sim::kSeq3, 0, kCache, kFetchWindow},
            {Sim::kTraceCache, 0, kCache, kModelWindow},
            {Sim::kBackend, 0, kCache, kModelWindow}};
  }

  db::tpcd::OltpConfig mix(std::uint64_t salt) const {
    db::tpcd::OltpConfig config;
    config.transactions = kTransactions;
    config.seed = mix_hash(seed_, salt);
    return config;
  }

  // Steps the mix; with a log, each transaction is a timed op and its class
  // extends the attribution segments.
  void run_mix(Timeline& tl, RoundLog* log, db::Database& db,
               const db::tpcd::OltpConfig& config, cfg::TraceSink* sink,
               db::tpcd::OltpStats& stats) {
    stats = {};
    OltpSession session(db, config);
    db.kernel().set_sink(sink);
    for (std::uint64_t t = 0; t < config.transactions; ++t) {
      if (log == nullptr) {
        session.step(stats);
        continue;
      }
      const std::uint64_t before_rows = rows_of(stats);
      const std::uint64_t before_events = trace_.num_events();
      const auto kind = tl.op("record.op", [&] { return session.step(stats); });
      log->op_rows.push_back(rows_of(stats) - before_rows);
      ++report_.attempted;
      const std::uint64_t events = trace_.num_events() - before_events;
      if (!classes_.empty() && classes_.back().first == kind) {
        classes_.back().second += events;
      } else if (events > 0) {
        classes_.emplace_back(kind, events);
      }
    }
    db.kernel().set_sink(nullptr);
  }

  std::uint64_t seed_;
  Report& report_;
  CellGrid grid_;
  std::unique_ptr<db::Database> btree_;
  std::unique_ptr<db::Database> hash_;
  std::unique_ptr<profile::Profile> profile_;
  trace::BlockTrace trace_;
  db::tpcd::OltpStats btree_stats_;
  db::tpcd::OltpStats hash_stats_;
  Segments classes_;
  std::vector<cfg::AddressMap> layouts_;
  CellGrid model_;
};

// ---- tenant_stream ----------------------------------------------------------
//
// Eight tenants (dss, dss_train, oltp, oltp, ... round-robin) recorded once
// per setup repeat, one query or transaction at a time, and cut into kEpochs
// consecutive epochs (each epoch holds the same share of every tenant's
// stream). Each round composes every epoch (bursty arrivals, quantum 1000),
// writes each composition to disk as its own v3 trace file and stream-replays
// the files in order under the shared ops layout and the tenant-partitioned
// ops-part layout. Epochs keep every composition, write and streamed replay a
// piece of a few milliseconds. SEQ.3, trace cache and back end run once per
// run over an in-memory window. --seed drives the OLTP tenants' transaction
// seeds and the composer's arrivals.
class TenantStream final : public Workload {
 public:
  static constexpr double kScale = 0.0005;
  static constexpr std::uint32_t kTenants = 8;
  static constexpr std::uint64_t kOltpTransactions = 400;
  static constexpr std::uint32_t kCache = 1024;
  static constexpr std::uint32_t kCfa = 512;
  static constexpr std::uint64_t kWindow = 1000000;
  static constexpr std::size_t kEpochs = 128;

  TenantStream(std::uint64_t seed, const std::string& workdir, Report& report)
      : seed_(seed),
        report_(report),
        workdir_(workdir),
        model_({"ops"}, model_cells()) {}

  ~TenantStream() override {
    for (std::size_t e = 0; e < kEpochs; ++e) std::remove(path(e).c_str());
  }

  void setup(Timeline& tl) override {
    build_dbs(tl);
    streams_.clear();
    profiles_.clear();
    rows_read_ = 0;
    rows_inserted_ = 0;
    profiles_.reserve(kTenants);
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      workload::TenantStream stream;
      stream.name = std::string(workload::to_string(mix_of(t))) + "#" +
                    std::to_string(t);
      profiles_.emplace_back(image());
      trace::TraceRecorder recorder(stream.trace);
      cfg::TeeSink tee;
      tee.add(&recorder);
      tee.add(&profiles_.back());
      record_tenant(tl, true, t, &tee, &profiles_.back());
      streams_.push_back(std::move(stream));
    }
  }

  // Cuts the recorded streams into epochs; no database is touched.
  void prepare(Timeline&) override {
    epochs_.assign(kEpochs, {});
    std::vector<cfg::BlockId> events;
    for (const workload::TenantStream& stream : streams_) {
      events.clear();
      stream.trace.for_each([&](cfg::BlockId b) { events.push_back(b); });
      for (std::size_t e = 0; e < kEpochs; ++e) {
        workload::TenantStream& part = epochs_[e].emplace_back();
        part.name = stream.name;
        for (std::size_t i = e * events.size() / kEpochs;
             i < (e + 1) * events.size() / kEpochs; ++i) {
          part.trace.append(events[i]);
        }
      }
    }
  }

  void round(Timeline& tl, RoundLog& log) override {
    // Partition groups are the distinct mixes (same-mix tenants share one
    // CFA sub-window), as in bench/ablate_multitenant.
    std::vector<profile::WeightedCFG> tenant_cfgs;
    std::vector<profile::WeightedCFG> groups;
    profile::WeightedCFG merged;
    tl.stage("profile.wcfg", [&] {
      for (const auto& p : profiles_) {
        tenant_cfgs.push_back(profile::WeightedCFG::from_profile(p));
      }
      for (const workload::MixKind mix : mixes()) {
        std::vector<const profile::WeightedCFG*> members;
        for (std::uint32_t t = 0; t < kTenants; ++t) {
          if (mix_of(t) == mix) members.push_back(&tenant_cfgs[t]);
        }
        groups.push_back(profile::WeightedCFG::merge(members));
      }
      std::vector<const profile::WeightedCFG*> all;
      for (const auto& c : tenant_cfgs) all.push_back(&c);
      merged = profile::WeightedCFG::merge(all);
    });
    core::StcParams params;
    params.cache_bytes = kCache;
    params.cfa_bytes = kCfa;
    layouts_.clear();
    layouts_.push_back(tl.stage("core.layout.ops", [&] {
      return core::stc_layout(merged, core::SeedKind::kOps, params).layout;
    }));
    layouts_.push_back(tl.stage("core.layout.ops_part", [&] {
      std::vector<const profile::WeightedCFG*> parts;
      for (const auto& g : groups) parts.push_back(&g);
      return core::stc_layout_partitioned(parts, core::SeedKind::kOps, params)
          .layout;
    }));

    // Each epoch is composed and written as pieces of their own; the files
    // together are a segmented trace store.
    composed_.clear();
    file_bytes_ = 0;
    std::vector<cfg::BlockId> buf;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      tl.stage("workload.compose#" + std::to_string(e), [&] {
        workload::ComposeParams cp;
        cp.quantum_events = 1000;
        cp.arrival = workload::ArrivalKind::kBursty;
        cp.seed = mix_hash(seed_, e);
        auto composed = workload::compose(epochs_[e], cp);
        if (!composed.is_ok()) throw StatusError(composed.status());
        composed_.push_back(std::move(composed).take());
      });
      const trace::BlockTrace& trace = composed_.back().trace;
      tl.stage("trace_io.write#" + std::to_string(e), [&] {
        auto writer = trace::TraceFileWriter::create(path(e));
        if (!writer.is_ok()) throw StatusError(writer.status());
        for (std::size_t k = 0; k < trace.num_chunks(); ++k) {
          buf.clear();
          trace.decode_chunk(k, buf);
          for (const cfg::BlockId b : buf) writer.value().append(b);
        }
        const Status s = writer.value().finalize();
        if (!s.is_ok()) throw StatusError(s);
      });
    }

    std::vector<trace::TraceReader> readers;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      tl.stage("trace_io.open#" + std::to_string(e), [&] {
        auto opened = trace::TraceReader::open(path(e));
        if (!opened.is_ok()) throw StatusError(opened.status());
        readers.push_back(std::move(opened).take());
      });
      file_bytes_ += readers.back().file_bytes();
    }
    for (std::size_t l = 0; l < layouts_.size(); ++l) {
      sim::ReplayArena arena;
      sim::BlockMetaTable meta;
      sim::CompiledTable tables;
      tl.stage("sim.plan:" + layout_name(l), [&] {
        meta.build(image(), layouts_[l], arena);
        const Status s = tables.build(meta, kLine, arena);
        if (!s.is_ok()) throw StatusError(s);
      });
      sim::ICache cache(geometry(kCache));
      streamed_[l] = sim::MissRateResult();
      for (std::size_t e = 0; e < kEpochs; ++e) {
        auto streamed = tl.stage(
            "trace_io.stream:" + layout_name(l) + "#" + std::to_string(e),
            [&] {
              return sim::replay_missrate_streamed(readers[e], meta, &tables,
                                                   cache);
            });
        report_.attempted += readers[e].num_chunks();
        if (!streamed.is_ok()) {
          report_.failed += readers[e].num_chunks();
          report_.failures.push_back(streamed.status().to_string());
          continue;
        }
        streamed_[l].instructions += streamed.value().instructions;
        streamed_[l].line_accesses += streamed.value().line_accesses;
        streamed_[l].misses += streamed.value().misses;
      }
      CounterSet counters;
      streamed_[l].export_counters(counters);
      for (const auto& [k, v] : counters.items()) {
        log.counters.add("stream/" + layout_name(l) + "/" + k, v);
      }
    }
  }

  void identify(RoundLog& log) override {
    log.events = 0;
    log.fingerprint = file_bytes_;
    for (const workload::ComposedTrace& c : composed_) {
      log.events += c.trace.num_events();
      log.fingerprint = mix_hash(log.fingerprint, c.trace.content_hash());
    }
  }

  void probe_untraced(Timeline& tl) override {
    build_dbs(tl);
    tl.stage("db.exec", [&] {
      for (std::uint32_t t = 0; t < kTenants; ++t) {
        record_tenant(tl, false, t, nullptr, nullptr);
      }
    });
  }

  void gate() override {
    // Per-op recording must yield the library's tenant streams.
    auto btree = build_db(kScale, db::IndexKind::kBTree);
    auto hash = build_db(kScale, db::IndexKind::kHash);
    const std::vector<workload::TenantStream> ref = workload::make_tenant_streams(
        kTenants, mixes(), *btree, *hash, stream_config(), image());
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      if (ref[t].trace.content_hash() != streams_[t].trace.content_hash()) {
        report_.fail("tenant_stream: tenant " + std::to_string(t) +
                     " differs from the library stream builder");
      }
    }
    // The epochs' compositions, end to end, are the whole composed trace:
    // every recorded event exactly once.
    const workload::ComposedTrace whole = concatenate(composed_);
    std::uint64_t recorded = 0;
    for (const auto& s : streams_) recorded += s.trace.num_events();
    if (whole.trace.num_events() != recorded) {
      report_.fail("tenant_stream: epoch compositions lose or repeat events");
    }
    // Streamed cells against the scalar streamed kernel and the in-memory
    // interpreter over the composed trace.
    // A line probe can repeat at a file boundary, so against the one-pass
    // interpreter only misses and instructions must match.
    sim::MissRateResult interp[2];
    for (std::size_t l = 0; l < layouts_.size(); ++l) {
      sim::ReplayArena arena;
      sim::BlockMetaTable meta;
      meta.build(image(), layouts_[l], arena);
      sim::ICache scalar_cache(geometry(kCache));
      sim::MissRateResult scalar;
      for (std::size_t e = 0; e < kEpochs; ++e) {
        auto opened = trace::TraceReader::open(path(e));
        if (!opened.is_ok()) throw StatusError(opened.status());
        auto r = sim::replay_missrate_streamed(opened.value(), meta, nullptr,
                                               scalar_cache,
                                               sim::ReplayKernel::kScalar);
        if (!r.is_ok()) throw StatusError(r.status());
        scalar.instructions += r.value().instructions;
        scalar.line_accesses += r.value().line_accesses;
        scalar.misses += r.value().misses;
      }
      sim::ICache interp_cache(geometry(kCache));
      interp[l] = sim::run_missrate(whole.trace, image(), layouts_[l],
                                    interp_cache);
      const sim::MissRateResult& got = streamed_[l];
      if (scalar.misses != got.misses || scalar.instructions != got.instructions ||
          scalar.line_accesses != got.line_accesses ||
          interp[l].misses != got.misses ||
          interp[l].instructions != got.instructions) {
        report_.fail("stream cell " + layout_name(l) +
                     " differs from the interpreter");
      }
    }
    model_.run(nullptr, nullptr, report_, whole.trace, {&layouts_[0]});
    model_.check_interp(report_, whole.trace, {&layouts_[0]});

    const double events = static_cast<double>(whole.trace.num_events());
    put(report_.work, "workload.compose", events);
    put(report_.work, "trace_io.write", static_cast<double>(file_bytes_));
    put(report_.work, "trace_io.stream", events * 2);
    put(report_.setup_work, "record", static_cast<double>(recorded));

    const CellResult& seq3 = model_.result(model_.find(Sim::kSeq3, "ops", kCache));
    const CellResult& tc = model_.result(model_.find(Sim::kTraceCache, "ops", kCache));
    const CellResult& be = model_.result(model_.find(Sim::kBackend, "ops", kCache));
    put(report_.modelled, "miss_pct", streamed_[0].misses_per_100_insns());
    put(report_.modelled, "fetch_ipc", seq3.fetch.ipc());
    put(report_.modelled, "tc_ipc", tc.fetch.ipc());
    put(report_.modelled, "core_ipc", be.be.ipc());
    // The partitioned layout is the one built for per-tenant fairness.
    auto plan = sim::build_replay_plan(sim::ReplayMode::kCompiled, whole.trace,
                                       image(), layouts_[1], kLine);
    if (!plan.is_ok()) throw StatusError(plan.status());
    Segments segments;
    for (const auto& s : whole.segments) {
      segments.emplace_back(s.tenant, s.events);
    }
    put(report_.modelled, "worst_tenant_miss_pct",
        worst_tenant_miss_pct(report_, plan.value(), segments, kTenants, kCache,
                              interp[1]));
    put(report_.modelled, "trace_bytes_per_event",
        static_cast<double>(file_bytes_) / events);
    put(report_.layer, "db.rows_read", static_cast<double>(rows_read_));
    put(report_.layer, "db.rows_inserted", static_cast<double>(rows_inserted_));
    put(report_.layer, "trace.events", static_cast<double>(recorded));
    put(report_.layer, "workload.context_switches",
        static_cast<double>(whole.context_switches));
    put(report_.layer, "trace.file_bytes", static_cast<double>(file_bytes_));
    put_sim_layers(report_, tc, be);
  }

 private:
  static std::vector<workload::MixKind> mixes() {
    return {workload::MixKind::kDss, workload::MixKind::kDssTrain,
            workload::MixKind::kOltp, workload::MixKind::kOltp};
  }
  static workload::MixKind mix_of(std::uint32_t tenant) {
    return mixes()[tenant % mixes().size()];
  }
  static std::string layout_name(std::size_t l) {
    return l == 0 ? "ops" : "ops_part";
  }
  // The epochs' compositions as one composed trace: events in epoch order,
  // tenant segments merged across epoch boundaries.
  static workload::ComposedTrace concatenate(
      const std::vector<workload::ComposedTrace>& parts) {
    workload::ComposedTrace out;
    for (const workload::ComposedTrace& part : parts) {
      part.trace.for_each([&](cfg::BlockId b) { out.trace.append(b); });
      for (const workload::TenantSegment& s : part.segments) {
        if (!out.segments.empty() && out.segments.back().tenant == s.tenant) {
          out.segments.back().events += s.events;
        } else {
          out.segments.push_back(s);
        }
      }
    }
    out.context_switches =
        out.segments.empty() ? 0 : out.segments.size() - 1;
    return out;
  }
  // Rounds replay only the streamed file; the in-memory fetch simulators
  // run once, untimed, for the modelled metrics.
  static std::vector<Cell> model_cells() {
    return {{Sim::kSeq3, 0, kCache, kWindow},
            {Sim::kTraceCache, 0, kCache, kWindow},
            {Sim::kBackend, 0, kCache, kWindow}};
  }
  workload::StreamConfig stream_config() const {
    workload::StreamConfig config;
    config.oltp_transactions = kOltpTransactions;
    config.oltp_seed = seed_;
    return config;
  }

  void build_dbs(Timeline& tl) {
    tl.stage("db.build:btree",
             [&] { btree_ = build_db(kScale, db::IndexKind::kBTree); });
    tl.stage("db.build:hash",
             [&] { hash_ = build_db(kScale, db::IndexKind::kHash); });
  }

  // Records tenant `t` the way workload::record_stream does, one op at a
  // time; `timed` makes each op a timed, counted op of the open setup log.
  void record_tenant(Timeline& tl, bool timed, std::uint32_t t,
                     cfg::TraceSink* sink, profile::Profile* profile) {
    const auto rotate = [t](std::vector<int> ids) {
      std::rotate(ids.begin(),
                  ids.begin() + static_cast<std::ptrdiff_t>(t % ids.size()),
                  ids.end());
      return ids;
    };
    const auto query = [&](db::Database& db, int id) {
      const std::uint64_t rows =
          timed ? tl.op("record.op", [&] { return run_query_op(db, id); })
              : run_query_op(db, id);
      if (timed) {
        rows_read_ += rows;
        ++report_.attempted;
      }
    };
    switch (mix_of(t)) {
      case workload::MixKind::kDss: {
        const std::vector<int> ids = rotate(db::tpcd::test_set());
        btree_->kernel().set_sink(sink);
        for (int id : ids) query(*btree_, id);
        btree_->kernel().set_sink(nullptr);
        if (profile != nullptr) profile->break_chain();
        hash_->kernel().set_sink(sink);
        for (int id : ids) query(*hash_, id);
        hash_->kernel().set_sink(nullptr);
        break;
      }
      case workload::MixKind::kDssTrain:
        btree_->kernel().set_sink(sink);
        for (int id : rotate(db::tpcd::training_set())) query(*btree_, id);
        btree_->kernel().set_sink(nullptr);
        break;
      case workload::MixKind::kOltp: {
        db::tpcd::OltpConfig config;
        config.transactions = kOltpTransactions;
        config.seed = stream_config().oltp_seed + t;
        OltpSession session(*btree_, config);
        db::tpcd::OltpStats stats;
        btree_->kernel().set_sink(sink);
        for (std::uint64_t i = 0; i < config.transactions; ++i) {
          if (!timed) {
            session.step(stats);
            continue;
          }
          tl.op("record.op", [&] { return session.step(stats); });
          ++report_.attempted;
        }
        btree_->kernel().set_sink(nullptr);
        if (timed) {
          rows_read_ += stats.rows_read;
          rows_inserted_ += stats.rows_inserted;
        }
        break;
      }
    }
  }

  std::uint64_t seed_;
  Report& report_;
  std::string path(std::size_t epoch) const {
    return workdir_ + "/tenant_stream." + std::to_string(epoch) + ".trace";
  }

  std::string workdir_;
  CellGrid model_;
  std::unique_ptr<db::Database> btree_;
  std::unique_ptr<db::Database> hash_;
  std::vector<workload::TenantStream> streams_;
  std::vector<profile::Profile> profiles_;
  // epochs_[e][t]: tenant t's share of epoch e.
  std::vector<std::vector<workload::TenantStream>> epochs_;
  std::vector<cfg::AddressMap> layouts_;
  std::vector<workload::ComposedTrace> composed_;
  std::uint64_t file_bytes_ = 0;
  sim::MissRateResult streamed_[2];
  std::uint64_t rows_read_ = 0;
  std::uint64_t rows_inserted_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& workdir,
                                        Report& report) {
  if (name == "dss_paper") return std::make_unique<DssPaper>(seed, report);
  if (name == "oltp_rw") return std::make_unique<OltpRw>(seed, report);
  if (name == "tenant_stream") {
    return std::make_unique<TenantStream>(seed, workdir, report);
  }
  return nullptr;
}

}  // namespace perfbench

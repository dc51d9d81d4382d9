#include "backend/pipeline.h"

#include <deque>

#include "frontend/engine.h"
#include "support/check.h"

namespace stc::backend {

namespace {

using sim::FetchPipe;

// Decode emits one op per basic block when the block's last instruction
// arrives (a block may straddle fetch groups); `ops` holds every block's
// latency and register names.
Result<BackendResult> run_pipe(FetchPipe& pipe, const sim::BackendTable& ops,
                               const sim::FetchParams& fetch_params,
                               const frontend::FrontEndParams& fe_params,
                               const BackendParams& backend_params,
                               sim::ICache* cache) {
  STC_REQUIRE(!backend_params.off());
  STC_REQUIRE(fetch_params.perfect_icache || cache != nullptr);
  if (cache != nullptr) cache->reset();
  const std::uint32_t line_bytes =
      cache != nullptr ? cache->geometry().line_bytes : 64;

  BackendResult result;
  frontend::Engine eng(fetch_params, fe_params, cache, line_bytes,
                       &result.frontend);
  Backend backend(backend_params, &result.backend);
  std::deque<BackendOp> fifo;  // decoded ops awaiting dispatch
  sim::Seq3Group group;
  std::uint64_t now = 0;
  std::uint64_t fetch_ready = 0;  // cycle the fetch unit is free again

  while (!pipe.done() || !fifo.empty() || !backend.empty()) {
    backend.step(now);

    if (!pipe.done() && now >= fetch_ready) {
      if (fifo.size() < backend_params.fetch_buffer_ops) {
        group.insns.clear();
        const sim::Seq3Cycle cycle =
            seq3_fetch_cycle(pipe, fetch_params, line_bytes, &group);
        result.fetch.instructions += cycle.supplied;
        ++result.fetch.fetch_requests;
        std::uint64_t stall = 0;
        if (!fetch_params.perfect_icache) {
          stall = frontend::charge_icache(eng, cycle, fetch_params,
                                          line_bytes, now, &result.fetch,
                                          &result.frontend);
        }
        eng.advance(cycle.supplied);
        stall += eng.resolve(group.insns, group.has_next, group.next_addr);
        fetch_ready = now + 1 + stall;
        eng.run_ahead(pipe, fetch_ready);
        for (const FetchPipe::Insn& insn : group.insns) {
          if (!insn.block_end) continue;
          BackendOp op;
          op.addr = pipe.meta().addr(insn.block);
          op.insns = pipe.meta().insns(insn.block);
          op.latency = ops.latency(insn.block);
          op.dest = ops.dest(insn.block);
          op.src1 = ops.src1(insn.block);
          op.src2 = ops.src2(insn.block);
          fifo.push_back(op);
        }
      } else {
        ++result.backend.frontend_stall_cycles;  // back-pressure on fetch
      }
    }

    std::uint32_t dispatched = 0;
    while (dispatched < backend_params.decode_width && !fifo.empty()) {
      if (!backend.can_dispatch()) {
        if (backend.rob_full()) {
          ++result.backend.dispatch_stall_rob;
        } else {
          ++result.backend.dispatch_stall_iq;
        }
        break;
      }
      if (Status s = backend.dispatch(fifo.front()); !s.is_ok()) {
        return s.with_context("backend pipeline");
      }
      fifo.pop_front();
      ++dispatched;
    }

    ++now;
  }
  result.fetch.cycles = now;
  result.backend.cycles = now;
  return result;
}

}  // namespace

Result<BackendResult> run_seq3_backend(const trace::BlockTrace& trace,
                                       const cfg::ProgramImage& image,
                                       const cfg::AddressMap& layout,
                                       const sim::FetchParams& fetch_params,
                                       const frontend::FrontEndParams& fe_params,
                                       const BackendParams& backend_params,
                                       sim::ICache* cache) {
  FetchPipe pipe(trace, image, layout);
  sim::ReplayArena arena;
  sim::BackendTable ops;
  ops.build(pipe.meta(), backend_params.spec(), arena);
  return run_pipe(pipe, ops, fetch_params, fe_params, backend_params, cache);
}

Result<BackendResult> run_seq3_backend(const sim::ReplayPlan& plan,
                                       const sim::FetchParams& fetch_params,
                                       const frontend::FrontEndParams& fe_params,
                                       const BackendParams& backend_params,
                                       sim::ICache* cache) {
  FetchPipe pipe(plan);
  const sim::BackendSpec spec = backend_params.spec();
  const sim::BackendTable* ops = &plan.backend();
  // The plan cache keys on the spec fingerprint, so a plan with tables for
  // a different config can only reach here through a caller bug. A plan
  // built without back-end tables gets them for this run.
  STC_DCHECK(!ops->valid() || ops->spec() == spec);
  sim::ReplayArena arena;
  sim::BackendTable built;
  if (!ops->valid()) {
    built.build(plan.meta(), spec, arena);
    ops = &built;
  }
  return run_pipe(pipe, *ops, fetch_params, fe_params, backend_params, cache);
}

}  // namespace stc::backend

#include "src/native/bsp_exec.h"

#include <chrono>
#include <utility>
#include <vector>

#include "src/bsp/machine.h"
#include "src/core/contracts.h"
#include "src/native/spmd.h"

namespace bsplogp::native {

NativeBspStats run_bsp(
    std::span<const std::unique_ptr<bsp::ProcProgram>> programs,
    const NativeBspOptions& options) {
  BSPLOGP_EXPECTS(!programs.empty());
  for (const auto& prog : programs) BSPLOGP_EXPECTS(prog != nullptr);
  const auto p = static_cast<ProcId>(programs.size());
  const auto np = static_cast<std::size_t>(p);

  // The pools are slot-disjoint: each processor writes only index [me].
  // The core's run-wide state and `more` are written by processor 0 alone,
  // between the two barriers of a superstep, which provide the
  // happens-before in both directions.
  std::vector<std::vector<Message>> inboxes(np);
  std::vector<std::vector<Message>> outboxes(np);
  std::vector<std::vector<Message>> next_inboxes(np);
  bsp::SuperstepCore core("native.bsp", p, options.params,
                          options.max_supersteps, options.sink);
  bool more = true;

  const auto t0 = std::chrono::steady_clock::now();
  spawn(
      p,
      [&](World& w) {
        const ProcId me = w.pid();
        const auto m = static_cast<std::size_t>(me);
        do {
          core.step(me, *programs[m], inboxes[m], outboxes[m]);
          w.barrier();  // every output pool is complete

          // --- Communication phase: each processor assembles its own next
          // input pool by scanning senders in id order — this IS
          // InboxOrder::SourceOrder, the simulator's deterministic pool
          // order.
          std::vector<Message>& next = next_inboxes[m];
          next.clear();
          for (const auto& outbox : outboxes)
            for (const Message& msg : outbox)
              if (msg.dst == me) next.push_back(msg);
          if (me == 0) more = core.close(outboxes);
          w.barrier();  // pools assembled, superstep priced

          outboxes[m].clear();
          std::swap(inboxes[m], next);
        } while (more);  // same value on every processor
      },
      options.pool);
  const auto t1 = std::chrono::steady_clock::now();

  NativeBspStats out;
  out.model = core.finish();
  out.wall_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return out;
}

}  // namespace bsplogp::native

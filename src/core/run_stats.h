// The model-independent core of a run's result record.
//
// Both abstract machines (bsp::Machine, logp::Machine) and both
// cross-simulations report the same three facts about an execution —
// when it finished, which processors finished, and how much was
// communicated — with model-specific extensions layered on top:
//
//   * bsp::RunStats  adds superstep counts and the per-superstep
//     (w_s, h_s) cost trace;
//   * logp::RunStats adds stalling, capacity and buffer statistics and
//     the engine's event counter.
//
// Keeping the shared shape here (rather than duplicating it per model)
// is what lets harnesses, sinks and cross-simulation reports treat "a
// run result" uniformly; extensions derive from RunStatsBase so the
// shared fields have one name everywhere.
#pragma once

#include <vector>

#include "src/core/types.h"

namespace bsplogp::core {

struct RunStatsBase {
  /// Completion time of the computation in model steps: for LogP the max
  /// over processors of the time its program finished; for BSP the sum of
  /// superstep costs (the time of the closing barrier).
  Time finish_time = 0;

  /// Per-processor finish times, indexed by ProcId: the model time at
  /// which each processor's program completed (for BSP, the cumulative
  /// cost at the end of the superstep in which it halted). 0 for
  /// processors that never finished; those are listed in blocked_procs.
  std::vector<Time> proc_finish;

  /// Ids of processors that had not finished when the run ended (empty
  /// for a run that completed normally).
  std::vector<ProcId> blocked_procs;

  /// Messages transferred end-to-end during the run (LogP: deliveries
  /// into destination buffers; BSP: pool-to-pool transfers).
  std::int64_t messages = 0;

  [[nodiscard]] bool all_finished() const { return blocked_procs.empty(); }

  /// Field-wise equality, so derived stats records can default their own
  /// (tests compare entire RunStats records).
  friend bool operator==(const RunStatsBase&, const RunStatsBase&) = default;
};

}  // namespace bsplogp::core

// Native execution of BSP programs: the same bsp::ProcProgram vector that
// runs on bsp::Machine (serial, simulated) or under xsim::BspOnLogp
// (Theorem 2) runs here with one real thread per processor and a real
// barrier per superstep.
//
// Stepping and pricing are not re-derived here: every thread steps its own
// program through the bsp::SuperstepCore that bsp::Machine::run uses, and
// processor 0 closes each superstep through it. What this executor adds is
// the threads, the barriers, the exchange (each thread assembles its next
// input pool by scanning the output pools in sender-id order — exactly
// InboxOrder::SourceOrder) and a wall clock. So NativeBspStats::model
// equals bsp::Machine::run's RunStats by construction, and the
// differential suite (tests/native) checks what remains native: that the
// threaded exchange delivers the same inbox to every processor in every
// superstep, and that halting and the superstep limit end the run in the
// same superstep as on the machine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "src/bsp/params.h"
#include "src/bsp/program.h"
#include "src/core/parallel.h"
#include "src/core/types.h"
#include "src/trace/sink.h"

namespace bsplogp::native {

struct NativeBspOptions {
  /// Thread pool to run on (needs >= p - 1 workers); null spawns a
  /// transient pool.
  core::ThreadPool* pool = nullptr;
  /// Observer for SuperstepBegin/End events. Superstep 0 opens before the
  /// spawn, only processor 0's thread emits after that, and run_end
  /// follows the join, so calls are totally ordered: an ordinary
  /// (non-thread-safe) sink is fine here. Not owned.
  trace::TraceSink* sink = nullptr;
  /// Cost-model parameters for the accounting (identical role to
  /// bsp::Machine's).
  bsp::Params params{};
  std::int64_t max_supersteps = 1'000'000;
};

struct NativeBspStats {
  /// The model accounting, priced by the bsp::SuperstepCore that
  /// bsp::Machine::run uses.
  bsp::RunStats model;
  /// Real elapsed time of the run.
  double wall_ns = 0;
};

/// Runs one program per processor in lockstep supersteps on real threads.
/// The caller retains ownership of the programs and reads results out of
/// them afterwards, exactly as with bsp::Machine::run. Throws what a
/// program throws (siblings are unblocked via barrier poisoning).
[[nodiscard]] NativeBspStats run_bsp(
    std::span<const std::unique_ptr<bsp::ProcProgram>> programs,
    const NativeBspOptions& options = {});

}  // namespace bsplogp::native

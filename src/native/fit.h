// Measuring this machine's BSP and LogP parameters, Culler-style.
//
// The paper's models are parameterized abstractions of a real machine;
// this layer closes the loop by measuring, on the shared-memory backend
// (spmd.h), the constants the models postulate:
//
//   BSP   l — barrier synchronization time: wall time per empty
//             barrier-only superstep, measured over many repetitions
//             with a warm thread pool;
//         g — per-message bandwidth gap: the SLOPE of superstep wall
//             time in h, from full-exchange supersteps at a small and a
//             large h (the intercept — barrier cost, fixed overheads —
//             cancels in the difference, as in the standard BSP
//             benchmarking methodology).
//   LogP  o — send overhead: wall time per uncontended staging of one
//             message into a destination queue (lock, push, unlock);
//         G — gap: sustained per-message cost at a sender flooding one
//             destination — the reciprocal of the achievable injection
//             rate;
//         L — latency: half the ping-pong round trip minus the two
//             overheads (rtt = 2L + 2o for a one-word message, so
//             L = rtt/2 - o... the classic decomposition charges o at
//             each end: L = rtt/2 - 2o; we follow the classic form).
//
// Everything is reported in nanoseconds as doubles (Fit structs); the
// params() converters round to the models' integer step units at
// 1 step = 1 ns and clamp into each model's validity domain
// (bsp::Params: g, l >= 1; logp::Params: max{2, o} <= G <= L), so a fit
// is always directly usable as machine parameters. These measurements
// are wall-clock and machine-dependent by design — nothing here is
// deterministic, which is why the fitting layer lives outside the
// simulators and is exercised by bench_native_vs_model rather than by
// equivalence tests.
#pragma once

#include "src/bsp/params.h"
#include "src/core/parallel.h"
#include "src/core/types.h"
#include "src/logp/params.h"

namespace bsplogp::native {

struct BspFit {
  ProcId p = 0;
  double l_ns = 0;  // barrier cost per superstep
  double g_ns = 0;  // per-message cost (slope in h)

  /// Rounded into bsp::Params at 1 step = 1 ns (clamped to g, l >= 1).
  [[nodiscard]] bsp::Params params() const;
};

struct LogpFit {
  ProcId p = 0;
  double L_ns = 0;  // one-way latency
  double o_ns = 0;  // per-message processor overhead
  double G_ns = 0;  // per-message gap (1/injection rate)

  /// Rounded into logp::Params at 1 step = 1 ns, clamped into the model's
  /// validity domain max{2, o} <= G <= L.
  [[nodiscard]] logp::Params params() const;
};

/// Measurement effort knobs. The defaults suit the full bench; smoke runs
/// scale them down.
struct FitOptions {
  /// Barrier-only supersteps timed for l.
  int barrier_reps = 400;
  /// Full-exchange supersteps timed at each of the two h points for g.
  int exchange_reps = 30;
  /// Ping-pong round trips timed for L.
  int pingpong_reps = 400;
  /// Messages in the G flood.
  int flood_msgs = 4000;
  /// Uncontended stagings timed for o.
  int overhead_reps = 20000;
};

/// Measures (g, l) at `p` processors. Supply a warm pool with >= p - 1
/// workers to keep thread start-up out of the numbers; null spawns a
/// transient pool per measurement.
[[nodiscard]] BspFit fit_bsp(ProcId p, core::ThreadPool* pool = nullptr,
                             const FitOptions& options = {});

/// Measures (L, o, G) at `p` processors (the traffic microbenchmarks use
/// two of them; p is recorded for reporting).
[[nodiscard]] LogpFit fit_logp(ProcId p, core::ThreadPool* pool = nullptr,
                               const FitOptions& options = {});

}  // namespace bsplogp::native

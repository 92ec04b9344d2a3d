// Run-level observability for the LogP engine: besides the shared result
// core (core::RunStatsBase — finish time, per-proc finish/blocked,
// delivered-message count), the paper's discussion makes three quantities
// first-class — stalling (Section 2.2's Stalling Rule), in-transit load
// versus the capacity threshold, and input-buffer occupancy (the G <= L
// bounded-buffer argument). All are recorded exactly. For a full event
// timeline instead of aggregates, install a trace::TraceSink
// (Machine::Options::sink).
#pragma once

#include <vector>

#include "src/core/run_stats.h"
#include "src/core/types.h"

namespace bsplogp::logp {

struct RunStats : core::RunStatsBase {
  // Inherited: finish_time (max over processors of the model time its
  // program finished), proc_finish, blocked_procs, messages (delivered
  // into destination input buffers).

  /// True if some processors never finished and no event could make
  /// progress (e.g. a recv with no matching send).
  bool deadlock = false;
  /// True if the run was cut off at Options::max_time.
  bool timed_out = false;

  std::int64_t messages_submitted = 0;
  std::int64_t messages_acquired = 0;

  /// Engine events processed by the run loop (wall-clock throughput of the
  /// engine is events_processed / elapsed time; see
  /// bench_engine_throughput). Fixed by the seed and options, like every
  /// other field.
  std::int64_t events_processed = 0;

  /// Number of submissions whose acceptance was delayed (stalls) and the
  /// total/maximum processor time lost to stalling.
  std::int64_t stall_events = 0;
  Time stall_time_total = 0;
  Time stall_time_max = 0;

  /// High-water marks: messages in transit to one destination (never
  /// exceeds ceil(L/G) by construction; recorded to show how close runs
  /// get) and buffered-but-unacquired messages at one processor.
  Time max_in_transit = 0;
  std::int64_t max_inbox = 0;

  [[nodiscard]] bool stall_free() const { return stall_events == 0; }
  [[nodiscard]] bool completed() const { return !deadlock && !timed_out; }

  /// Field-wise equality (base included): tests compare entire RunStats,
  /// e.g. a traced run against an untraced one.
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

}  // namespace bsplogp::logp

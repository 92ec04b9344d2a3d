// The BSP abstract machine: executes per-processor programs superstep by
// superstep and accounts the exact model cost  sum_s (w_s + g*h_s + l).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/bsp/params.h"
#include "src/bsp/program.h"
#include "src/core/rng.h"
#include "src/core/types.h"
#include "src/trace/sink.h"

namespace bsplogp::bsp {

/// Order in which a processor's input pool presents its messages. The model
/// leaves it unspecified; SourceOrder is deterministic (sorted by sender,
/// then by insertion order at the sender), Shuffled exercises
/// order-independence in tests.
enum class InboxOrder { SourceOrder, Shuffled };

/// The superstep core both BSP executors share, Machine below and
/// native::run_bsp on real threads: it steps the processors and prices
/// every superstep, so the cost is derived in one place. The executor owns
/// the message pools and their exchange; the core owns the RunStats and
/// the trace stream (run_begin under the executor's machine name,
/// SuperstepBegin/End per superstep, run_end).
///
/// Per superstep: step() for every processor, then close() on one thread.
/// step(i, ...) touches only processor i's slots, so distinct processors
/// may step concurrently; close() reads every slot, so the executor
/// separates it from the steps by a barrier.
class SuperstepCore {
 public:
  /// Emits run_begin and opens superstep 0.
  SuperstepCore(std::string_view machine, ProcId nprocs, const Params& params,
                std::int64_t max_supersteps, trace::TraceSink* sink);
  // Executor threads hold it by reference for the whole run.
  SuperstepCore(const SuperstepCore&) = delete;
  SuperstepCore& operator=(const SuperstepCore&) = delete;

  /// Processor `pid`'s local phase: charges one operation per message in
  /// `inbox` (extraction), then calls prog.step() once. A processor whose
  /// step returned false has halted for good: it is never stepped again,
  /// though the model still refills its inbox, so it cannot resurrect.
  void step(ProcId pid, ProcProgram& prog, std::span<const Message> inbox,
            std::vector<Message>& outbox);

  /// Prices the superstep from the output pools, before the executor
  /// exchanges them: h is the max over processors of messages sent or
  /// received. Then opens the next superstep, or returns false when every
  /// processor has halted or the superstep limit is reached.
  bool close(std::span<const std::vector<Message>> outboxes);

  /// Ends the run, once: lists the processors still running, emits
  /// run_end and hands over the run's statistics.
  [[nodiscard]] RunStats finish();

 private:
  ProcId nprocs_;
  Params params_;
  std::int64_t max_supersteps_;
  trace::TraceSink* sink_;
  std::int64_t superstep_ = 0;           // the open superstep
  std::vector<Time> works_;              // local operations, per processor
  std::vector<std::int64_t> halt_step_;  // superstep of the halt, or -1
  std::vector<Time> received_;           // close()'s per-receiver counts
  RunStats stats_;
};

class Machine {
 public:
  struct Options {
    std::int64_t max_supersteps = 1'000'000;
    InboxOrder inbox_order = InboxOrder::SourceOrder;
    /// Seed for InboxOrder::Shuffled.
    std::uint64_t shuffle_seed = 0;
    /// Observer for the run's event stream (src/trace): superstep begin/
    /// end records carrying (w_s, h_s). Not owned; must outlive run().
    /// Leave null for production runs — emission is a single pointer test
    /// per site, and tracing never alters the execution.
    trace::TraceSink* sink = nullptr;
  };

  Machine(ProcId nprocs, Params params) : Machine(nprocs, params, Options{}) {}
  Machine(ProcId nprocs, Params params, Options options);

  /// Runs one program per processor to completion (all programs return
  /// false in the same superstep) or to the superstep limit. The caller
  /// retains ownership of the programs and can read results out of them
  /// afterwards.
  RunStats run(std::span<const std::unique_ptr<ProcProgram>> programs);

  /// Runs `step_fn` on every processor (SPMD), mirroring
  /// logp::Machine::run(const ProgramFn&). State shared between supersteps
  /// lives in the function's captures.
  RunStats run(const std::function<bool(Ctx&)>& step_fn);

  [[nodiscard]] ProcId nprocs() const { return nprocs_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Statistics of the most recent run(), mirroring
  /// logp::Machine::last_run_stats().
  [[nodiscard]] const RunStats& last_run_stats() const { return stats_; }

 private:
  ProcId nprocs_;
  Params params_;
  Options options_;
  RunStats stats_;
};

}  // namespace bsplogp::bsp

// The LogP abstract machine: a step-accurate discrete-event engine
// implementing the model of Section 2.2 — overhead, gap, latency, the
// capacity constraint and the Stalling Rule — for coroutine processor
// programs written against logp::Proc (see proc.h).
//
// Model rules implemented (with their source in the paper):
//  * A processor submits a message after o preparation steps; consecutive
//    submissions by one processor are >= G apart, and likewise consecutive
//    acquisitions ("at least G time steps must elapse between consecutive
//    submissions or consecutive acquisitions by the same processor").
//  * Between submission and acceptance the sender is stalling and executes
//    nothing.
//  * Stalling Rule: at each time t, for each destination i, with
//    s = capacity() - (messages accepted for i but undelivered) free slots
//    and k submissions for i awaiting acceptance, exactly min{k, s}
//    submissions are accepted. Which k they are is unspecified by the
//    paper; Options::accept_order picks the tie-break.
//  * An accepted message is delivered at most L steps later; the exact
//    delivery time is unpredictable (nondeterminism source (i)), chosen by
//    Options::delivery within [accept+1, accept+L]; the medium delivers at
//    most one message per destination per step (the paper's G >= 2
//    discussion relies on exactly this).
//  * Delivered messages sit in an unbounded input buffer until the owner
//    acquires them (o steps each, G apart).
//
// Scheduling core (see event_queue.h / slot_bitmap.h): events live in a
// calendar/bucket queue indexed by (time step, phase), per-destination
// delivery slots in a circular bitmap over the L-window. A fixed seed and
// options yield bit-identical RunStats and event streams — the golden
// hashes in tests/logp/scheduler_equivalence_test.cpp pin them per policy.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/frame_arena.h"
#include "src/core/ring_buffer.h"
#include "src/core/rng.h"
#include "src/core/types.h"
#include "src/logp/event_queue.h"
#include "src/logp/params.h"
#include "src/logp/proc.h"
#include "src/logp/slot_bitmap.h"
#include "src/logp/stats.h"
#include "src/logp/task.h"
#include "src/trace/sink.h"

namespace bsplogp::logp {

class Machine;

/// Acceptance tie-break when the Stalling Rule admits fewer submissions
/// than are pending: oldest-first, newest-first (adversarial for fairness),
/// or uniformly random.
enum class AcceptOrder { Fifo, Lifo, Random };

/// Delivery-time choice within the L-step window: latest admissible slot
/// (adversarial for latency — the default, since correctness claims in the
/// paper are worst-case), earliest admissible, or uniformly random.
enum class DeliverySchedule { Latest, Earliest, UniformRandom };

/// The engine's Proc implementation: scheduling state for the
/// discrete-event loop.
class EngineProc final : public Proc {
 public:
  [[nodiscard]] ProcId nprocs() const override;
  [[nodiscard]] const Params& params() const override;

 private:
  friend class Machine;
  enum class Status {
    Running,      // executing / suspended on nothing engine-visible
    ComputeWait,  // compute/wait_until issued; resume scheduled
    SubmitWait,   // send issued; waiting for the submission step
    Stalling,     // submitted; waiting for acceptance
    RecvPoll,     // recv issued; earliest-acquire check scheduled
    RecvWait,     // recv issued; input buffer empty, parked
    AcquireWait,  // arrival seen; acquisition step scheduled
    Done,
  };

  EngineProc(Machine& machine, ProcId id) : Proc(id), machine_(machine) {}

  /// Back to the just-constructed state for reuse across runs. Destroys
  /// the previous run's root frame (call under the machine's arena scope
  /// so the frame parks in the recycler); keeps the inbox ring's storage.
  void reset_for_run() {
    reset_base_state();
    status_ = Status::Running;
    root_ = Task<>{};
    frame_ = {};
    out_ = Message{};
    submit_time_ = 0;
    recv_earliest_ = 0;
    stall_time_ = 0;
    stall_traced_ = false;
  }

  void issue_send(Message m, std::coroutine_handle<> frame) override;
  void issue_recv(std::coroutine_handle<> frame) override;
  void issue_wait(Time target, std::coroutine_handle<> frame) override;

  Machine& machine_;
  Status status_ = Status::Running;

  Task<> root_;
  std::coroutine_handle<> frame_;  // deepest suspended frame to resume

  // out_ and submit_time_ stay untouched from submission to acceptance
  // (a stalling sender executes nothing), so the destination's pending
  // queue holds only this processor's id and reads the message from here.
  Message out_{};           // pending outgoing message
  Time submit_time_ = 0;    // when out_ is/was submitted
  Time recv_earliest_ = 0;  // earliest admissible acquisition start
  Time stall_time_ = 0;
  /// A StallBegin was emitted for the pending submission (trace
  /// bookkeeping only; never affects scheduling or RunStats). Reset at
  /// submission: a sender has at most one submission pending.
  bool stall_traced_ = false;
};

class Machine {
 public:
  struct Options {
    Time max_time = 100'000'000;
    AcceptOrder accept_order = AcceptOrder::Fifo;
    DeliverySchedule delivery = DeliverySchedule::Latest;
    /// Seed for the Random policies.
    std::uint64_t seed = 0;
    /// Observer for the run's event stream (src/trace): submissions,
    /// acceptances, stall spans, deliveries, acquisitions, gap waits,
    /// queue-depth samples. Not owned; must outlive run(). Leave null for
    /// production runs — emission is a single pointer test per site, and
    /// tracing never alters the execution.
    trace::TraceSink* sink = nullptr;
  };

  Machine(ProcId nprocs, Params params) : Machine(nprocs, params, Options{}) {}
  Machine(ProcId nprocs, Params params, Options options);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Runs `program` on every processor (SPMD) until all complete; returns
  /// exact model-time statistics (a reference to the machine's own record,
  /// valid until the next run — copy to keep). Throws whatever a program
  /// throws. The one functor is shared across processors, never copied per
  /// proc.
  const RunStats& run(const ProgramFn& program);
  /// Runs a distinct program per processor.
  const RunStats& run(std::span<const ProgramFn> programs);

  [[nodiscard]] ProcId nprocs() const { return nprocs_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Statistics of the most recent run(), including a run that ended by a
  /// program exception (in which case the stats reflect the failure: the
  /// throwing processor is not recorded as finished).
  [[nodiscard]] const RunStats& last_run_stats() const { return stats_; }

 private:
  friend class EngineProc;

  using Event = detail::Event;
  using Phase = detail::Phase;
  using EventKind = detail::EventKind;

  struct DstState {
    // Senders whose submission is pending, in submission order. Flat
    // ring, not std::deque: steady-state acceptance churn never touches
    // the allocator (Fifo pops the front, Lifo the back, Random erases by
    // index — all supported on the ring).
    core::RingBuffer<ProcId> pending;  // submitted, not accepted
    Time in_transit = 0;               // accepted, not delivered
    detail::SlotBitmap slots;          // scheduled delivery times
  };

  void push(Time t, Phase phase, EventKind kind, ProcId proc) {
    events_.push(t, phase, kind, proc);
  }
  const RunStats& run_impl(std::span<const ProgramFn> programs, bool shared);
  void handle_submit(EngineProc& p, Time t);
  void handle_accept(ProcId dst, Time t);
  void handle_delivery(ProcId dst, Time t, const Message& msg);
  void handle_recv_check(EngineProc& p, Time t);
  void do_acquire(EngineProc& p, Time t);
  void resume(EngineProc& p);
  [[nodiscard]] Time choose_delivery_slot(DstState& dst, Time accept_time);

  /// Destroys the arena's live EngineProcs (keeps the storage).
  void destroy_procs();
  [[nodiscard]] EngineProc& proc(ProcId i) {
    return procs_[static_cast<std::size_t>(i)];
  }

  ProcId nprocs_;
  Params params_;
  Time capacity_ = 0;  // params_.capacity(), cached: ceil(L/G) divides
  Options options_;

  // Per-run state (reset by run()). The processors live in one contiguous
  // arena sized at the first run and reused afterwards — reset in place
  // between runs, not destroyed, so inbox ring capacities survive and the
  // event loop indexes procs without a pointer chase per event.
  EngineProc* procs_ = nullptr;  // arena; live_procs_ constructed
  std::size_t proc_capacity_ = 0;
  ProcId live_procs_ = 0;
  std::vector<DstState> dsts_;
  detail::EventQueue events_;
  core::Rng rng_{0};
  RunStats stats_;
  ProcId done_count_ = 0;
  // Coroutine-frame recycler, scoped as the thread's current arena for the
  // extent of run_impl: program root frames and collective sub-task frames
  // allocate from here and are returned on destruction, so steady-state
  // re-runs never touch the global heap for frames. Freed storage lives
  // until the Machine dies (destroy_procs() in ~Machine runs first, so
  // every frame is parked back before the arena releases its blocks).
  core::FrameArena frame_arena_;
};

}  // namespace bsplogp::logp

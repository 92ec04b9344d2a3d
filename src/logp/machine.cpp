#include "src/logp/machine.h"

#include <algorithm>
#include <new>
#include <utility>

#include "src/core/contracts.h"

namespace bsplogp::logp {

// ---- EngineProc -------------------------------------------------------------

ProcId EngineProc::nprocs() const { return machine_.nprocs(); }
const Params& EngineProc::params() const { return machine_.params(); }

void EngineProc::issue_wait(Time target, std::coroutine_handle<> frame) {
  BSPLOGP_EXPECTS(target > clock_);
  frame_ = frame;
  status_ = Status::ComputeWait;
  clock_ = target;
  machine_.push(target, Machine::Phase::Processor,
                Machine::EventKind::Resume, id_);
}

void EngineProc::issue_send(Message m, std::coroutine_handle<> frame) {
  BSPLOGP_EXPECTS(m.dst >= 0 && m.dst < machine_.nprocs_);
  // The model's messages go to *another* processor; local hand-offs are
  // local operations, not communication.
  BSPLOGP_EXPECTS(m.dst != id_);
  frame_ = frame;
  status_ = Status::SubmitWait;
  // earliest_submit(), with params() resolved statically — the virtual
  // hop would cost on every send.
  const Params& prm = machine_.params_;
  Time s = clock_ + prm.o;
  if (has_submitted_) s = std::max(s, last_submit_ + prm.G);
  if (trace::TraceSink* sink = machine_.options_.sink;
      sink != nullptr && s > clock_ + machine_.params_.o)
    sink->emit(trace::Event::gap_wait(id_, clock_, s,
                                      s - (clock_ + machine_.params_.o)));
  submit_time_ = s;
  clock_ = s;  // occupied (prep + gap wait) until the submission step
  out_ = m;
  machine_.push(s, Machine::Phase::Processor, Machine::EventKind::Submit, id_);
}

void EngineProc::issue_recv(std::coroutine_handle<> frame) {
  frame_ = frame;
  // earliest_acquire() — the clock, pushed by the gap rule — with
  // params() resolved statically.
  Time a = clock_;
  if (has_acquired_) a = std::max(a, last_acquire_ + machine_.params_.G);
  recv_earliest_ = a;
  if (trace::TraceSink* sink = machine_.options_.sink;
      sink != nullptr && recv_earliest_ > clock_)
    sink->emit(trace::Event::gap_wait(id_, clock_, recv_earliest_,
                                      recv_earliest_ - clock_));
  status_ = Status::RecvPoll;
  machine_.push(recv_earliest_, Machine::Phase::Processor,
                Machine::EventKind::RecvCheck, id_);
}

// ---- Machine --------------------------------------------------------------

Machine::Machine(ProcId nprocs, Params params, Options options)
    : nprocs_(nprocs), params_(params), capacity_(params.capacity()),
      options_(std::move(options)) {
  BSPLOGP_EXPECTS(nprocs >= 1);
  params_.validate();
  BSPLOGP_EXPECTS(options_.max_time >= 1);
}

Machine::~Machine() {
  destroy_procs();
  ::operator delete(static_cast<void*>(procs_));
}

void Machine::destroy_procs() {
  for (ProcId i = 0; i < live_procs_; ++i)
    proc(i).~EngineProc();
  live_procs_ = 0;
}

const RunStats& Machine::run(const ProgramFn& program) {
  // One shared functor: every processor runs the same program object. The
  // old path copied it nprocs_ times — 64Ki functor clones per machine
  // construction at p = 65536.
  return run_impl(std::span<const ProgramFn>(&program, 1), /*shared=*/true);
}

const RunStats& Machine::run(std::span<const ProgramFn> programs) {
  BSPLOGP_EXPECTS(std::cmp_equal(programs.size(), nprocs_));
  return run_impl(programs, /*shared=*/false);
}

Time Machine::choose_delivery_slot(DstState& dst, Time accept_time) {
  const Time lo = accept_time + 1;
  const Time hi = accept_time + params_.L;
  // The capacity constraint guarantees a free slot exists in the window.
  Time s = -1;
  switch (options_.delivery) {
    case DeliverySchedule::Earliest:
      s = dst.slots.first_free(lo, hi);
      break;
    case DeliverySchedule::Latest:
      s = dst.slots.last_free(lo, hi);
      break;
    case DeliverySchedule::UniformRandom: {
      // Occupied slots number < capacity <= L, so random probing converges
      // fast; for tiny windows fall back to drawing k below the free count
      // and taking the k-th free slot, ranked word-at-a-time.
      for (int tries = 0; tries < 64; ++tries) {
        s = lo + static_cast<Time>(
                     rng_.below(static_cast<std::uint64_t>(hi - lo + 1)));
        if (!dst.slots.occupied(s)) return s;
      }
      const Time cnt = dst.slots.count_free(lo, hi);
      BSPLOGP_ASSERT(cnt > 0);
      s = dst.slots.nth_free(
          lo, hi,
          static_cast<Time>(rng_.below(static_cast<std::uint64_t>(cnt))));
      break;
    }
  }
  BSPLOGP_ASSERT(s >= 0 && "no free delivery slot");
  return s;
}

void Machine::resume(EngineProc& p) {
  p.status_ = EngineProc::Status::Running;
  p.frame_.resume();
  if (p.root_.done()) {
    // A program that ended by exception did not finish: surface the error
    // before any completion bookkeeping so stats reflect the failure.
    p.root_.rethrow_if_failed();
    p.status_ = EngineProc::Status::Done;
    done_count_ += 1;
    stats_.proc_finish[static_cast<std::size_t>(p.id_)] = p.clock_;
  }
}

void Machine::handle_submit(EngineProc& p, Time t) {
  BSPLOGP_ASSERT(p.status_ == EngineProc::Status::SubmitWait);
  BSPLOGP_ASSERT(p.submit_time_ == t);
  p.last_submit_ = t;
  p.has_submitted_ = true;
  p.status_ = EngineProc::Status::Stalling;
  p.stall_traced_ = false;
  stats_.messages_submitted += 1;
  if (options_.sink != nullptr)
    options_.sink->emit(trace::Event::submit(p.id_, t, p.out_.dst));
  dsts_[static_cast<std::size_t>(p.out_.dst)].pending.push_back(p.id_);
  push(t, Phase::Accept, EventKind::Accept, p.out_.dst);
}

void Machine::handle_accept(ProcId dst_id, Time t) {
  DstState& dst = dsts_[static_cast<std::size_t>(dst_id)];
  // Stalling Rule: accept min{k, s} of the k pending submissions, where
  // s is the number of free capacity slots. Which ones is unspecified by
  // the model; options_.accept_order decides.
  while (!dst.pending.empty() && dst.in_transit < capacity_) {
    // The accepted submission is read from its stalled sender: its
    // Message is copied exactly once, sender's out_ -> payload pool.
    std::size_t idx = 0;
    switch (options_.accept_order) {
      case AcceptOrder::Fifo:
        break;
      case AcceptOrder::Lifo:
        idx = dst.pending.size() - 1;
        break;
      case AcceptOrder::Random:
        idx = static_cast<std::size_t>(rng_.below(dst.pending.size()));
        break;
    }
    const ProcId src = dst.pending[idx];
    EngineProc& sender = proc(src);
    BSPLOGP_ASSERT(sender.status_ == EngineProc::Status::Stalling);
    const Time submit_time = sender.submit_time_;
    if (t > submit_time) {
      const Time stalled = t - submit_time;
      stats_.stall_events += 1;
      stats_.stall_time_total += stalled;
      stats_.stall_time_max = std::max(stats_.stall_time_max, stalled);
      sender.stall_time_ += stalled;
      if (options_.sink != nullptr)
        options_.sink->emit(
            trace::Event::stall_end(src, t, dst_id, submit_time));
    }
    if (options_.sink != nullptr)
      options_.sink->emit(trace::Event::accept(src, t, dst_id, submit_time));

    dst.in_transit += 1;
    stats_.max_in_transit = std::max(stats_.max_in_transit, dst.in_transit);
    BSPLOGP_ASSERT(dst.in_transit <= capacity_);
    const Time slot = choose_delivery_slot(dst, t);
    dst.slots.set(slot);
    events_.push_msg(slot, Phase::Delivery, EventKind::Delivery, dst_id,
                     sender.out_);
    switch (options_.accept_order) {
      case AcceptOrder::Fifo:
        dst.pending.pop_front();
        break;
      case AcceptOrder::Lifo:
        dst.pending.pop_back();
        break;
      case AcceptOrder::Random:
        dst.pending.erase(idx);
        break;
    }

    // The sender reverts to the operational state at acceptance.
    sender.clock_ = t;
    resume(sender);
  }
  // Submissions still pending were refused by the Stalling Rule at this
  // step: their senders are stalling from here until acceptance.
  if (options_.sink != nullptr) {
    for (std::size_t i = 0; i < dst.pending.size(); ++i) {
      EngineProc& sender = proc(dst.pending[i]);
      if (sender.stall_traced_) continue;
      sender.stall_traced_ = true;
      options_.sink->emit(trace::Event::stall_begin(
          sender.id_, sender.submit_time_, dst_id));
    }
  }
}

void Machine::handle_delivery(ProcId dst_id, Time t, const Message& msg) {
  DstState& dst = dsts_[static_cast<std::size_t>(dst_id)];
  dst.in_transit -= 1;
  BSPLOGP_ASSERT(dst.in_transit >= 0);
  dst.slots.clear(t);
  EngineProc& p = proc(dst_id);
  p.inbox_.push_back(msg);
  stats_.messages += 1;
  stats_.max_inbox =
      std::max(stats_.max_inbox, static_cast<std::int64_t>(p.inbox_.size()));
  if (options_.sink != nullptr) {
    options_.sink->emit(trace::Event::delivery(dst_id, t, msg.src));
    options_.sink->emit(trace::Event::queue_depth(
        dst_id, t, static_cast<std::int64_t>(p.inbox_.size())));
  }

  if (p.status_ == EngineProc::Status::RecvWait) {
    p.status_ = EngineProc::Status::AcquireWait;
    push(std::max(t, p.recv_earliest_), Phase::Processor, EventKind::Acquire,
         dst_id);
  }
  // A freed capacity slot can admit a stalled submission at this very step.
  if (!dst.pending.empty()) push(t, Phase::Accept, EventKind::Accept, dst_id);
}

void Machine::handle_recv_check(EngineProc& p, Time t) {
  BSPLOGP_ASSERT(p.status_ == EngineProc::Status::RecvPoll);
  if (p.inbox_.empty()) {
    p.status_ = EngineProc::Status::RecvWait;  // parked until a delivery
    return;
  }
  do_acquire(p, t);
}

void Machine::do_acquire(EngineProc& p, Time t) {
  BSPLOGP_ASSERT(!p.inbox_.empty());
  p.acquired_ = p.inbox_.front();
  p.inbox_.pop_front();
  p.last_acquire_ = t;
  p.has_acquired_ = true;
  p.clock_ = t + params_.o;  // acquisition overhead
  stats_.messages_acquired += 1;
  if (options_.sink != nullptr) {
    options_.sink->emit(trace::Event::acquire(p.id_, t, p.acquired_.src));
    options_.sink->emit(trace::Event::queue_depth(
        p.id_, t, static_cast<std::int64_t>(p.inbox_.size())));
  }
  resume(p);
}

// flatten: inline the whole handler tree (queue pop/push, accept/submit/
// delivery, slot bitmaps) into the event loop — the engine's entire hot
// path is this one function, and the cross-handler inlining is worth ~15%
// on the hotspot series.
[[gnu::flatten]] const RunStats& Machine::run_impl(
    std::span<const ProgramFn> programs, bool shared) {
  if (options_.sink != nullptr)
    options_.sink->run_begin(trace::RunInfo{"logp", nprocs_, params_.L,
                                            params_.o, params_.G,
                                            params_.capacity(), 0, 0});

  // All coroutine frames created below — root program frames and any
  // collective sub-task frames spawned while the loop runs — recycle
  // through this machine's arena for the extent of the run.
  core::FrameArena::Scope frame_scope(&frame_arena_);

  // Reset per-run state so a Machine can be reused. Every container below
  // is reset in place — capacities (destination rings, slot-bitmap words,
  // inbox rings, the event queue's lanes and payload pool, the stats
  // vectors, the frame arena's free lists) survive across runs, so a
  // machine re-run in a timing loop or a sweep performs zero steady-state
  // allocations.
  if (dsts_.size() != static_cast<std::size_t>(nprocs_))
    dsts_.resize(static_cast<std::size_t>(nprocs_));
  for (DstState& dst : dsts_) {
    dst.pending.clear();
    dst.in_transit = 0;
    dst.slots.init(params_.L);
  }
  events_.reset();
  rng_ = core::Rng(options_.seed);
  stats_.finish_time = 0;
  stats_.proc_finish.assign(static_cast<std::size_t>(nprocs_), 0);
  stats_.blocked_procs.clear();
  stats_.messages = 0;
  stats_.deadlock = false;
  stats_.timed_out = false;
  stats_.messages_submitted = 0;
  stats_.messages_acquired = 0;
  stats_.events_processed = 0;
  stats_.stall_events = 0;
  stats_.stall_time_total = 0;
  stats_.stall_time_max = 0;
  stats_.max_in_transit = 0;
  stats_.max_inbox = 0;
  done_count_ = 0;

  if (proc_capacity_ < static_cast<std::size_t>(nprocs_)) {
    destroy_procs();
    ::operator delete(static_cast<void*>(procs_));
    procs_ = static_cast<EngineProc*>(
        ::operator new(sizeof(EngineProc) * static_cast<std::size_t>(nprocs_)));
    proc_capacity_ = static_cast<std::size_t>(nprocs_);
  }
  for (ProcId i = 0; i < nprocs_; ++i) {
    // Reuse processors surviving from the previous run (their inbox rings
    // keep their capacity); construct any the arena hasn't seen yet.
    EngineProc& p = proc(i);
    if (i < live_procs_) {
      p.reset_for_run();
    } else {
      new (&p) EngineProc(*this, i);
      live_procs_ = i + 1;  // destroy_procs cleans up if a factory throws
    }
    p.root_ = programs[shared ? 0 : static_cast<std::size_t>(i)](p);
    BSPLOGP_EXPECTS(p.root_.valid());
    p.frame_ = p.root_.handle();
    push(0, Phase::Processor, EventKind::Start, i);
  }

  std::int64_t processed = 0;  // hot counter, spilled to stats_ after
  try {
  while (!events_.empty()) {
    const Event ev = events_.pop();
    if (ev.t > options_.max_time) {
      stats_.timed_out = true;
      break;
    }
    processed += 1;
    EngineProc& p = proc(ev.proc);
    switch (ev.kind) {
      case EventKind::Start:
        resume(p);
        break;
      case EventKind::Resume:
        BSPLOGP_ASSERT(p.status_ == EngineProc::Status::ComputeWait);
        resume(p);
        break;
      case EventKind::Delivery:
        // The pooled payload stays valid through the handler: deliveries
        // push only payload-free events (Accept/Acquire), so the pool
        // cannot grow or recycle this slot before it is consumed.
        handle_delivery(ev.proc, ev.t, events_.payload(ev.payload));
        events_.release(ev.payload);
        break;
      case EventKind::Submit:
        handle_submit(p, ev.t);
        break;
      case EventKind::RecvCheck:
        handle_recv_check(p, ev.t);
        break;
      case EventKind::Acquire:
        BSPLOGP_ASSERT(p.status_ == EngineProc::Status::AcquireWait);
        do_acquire(p, ev.t);
        break;
      case EventKind::Accept:
        handle_accept(ev.proc, ev.t);
        break;
    }
  }
  } catch (...) {
    // A program threw: keep the failure-state contract of
    // last_run_stats() — the count covers events up to the throw.
    stats_.events_processed = processed;
    throw;
  }
  stats_.events_processed = processed;

  Time finish = 0;
  for (ProcId i = 0; i < nprocs_; ++i) {
    const EngineProc& p = proc(i);
    if (p.status_ != EngineProc::Status::Done) {
      stats_.blocked_procs.push_back(p.id());
    }
    finish = std::max(finish, p.now());
  }
  // A processor parked past the horizon (e.g. in SubmitWait or ComputeWait)
  // has a local clock beyond max_time; a timed-out run still ends at the
  // horizon.
  if (stats_.timed_out) finish = std::min(finish, options_.max_time);
  stats_.finish_time = finish;
  stats_.deadlock = !stats_.timed_out && !stats_.blocked_procs.empty();
  if (options_.sink != nullptr) options_.sink->run_end(stats_.finish_time);
  return stats_;
}

}  // namespace bsplogp::logp

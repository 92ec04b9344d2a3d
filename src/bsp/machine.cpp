#include "src/bsp/machine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/contracts.h"

namespace bsplogp::bsp {

void Ctx::send(ProcId dst, Word payload, std::int32_t tag) {
  send_msg(Message{pid_, dst, payload, tag});
}

void Ctx::send_msg(Message m) {
  BSPLOGP_EXPECTS(m.dst >= 0 && m.dst < nprocs_);
  m.src = pid_;
  outbox_.push_back(m);
  work_ += 1;  // inserting into the output pool is a local operation
}

void Ctx::charge(Time ops) {
  BSPLOGP_EXPECTS(ops >= 0);
  work_ += ops;
}

Machine::Machine(ProcId nprocs, Params params, Options options)
    : nprocs_(nprocs), params_(params), options_(options) {
  BSPLOGP_EXPECTS(nprocs >= 1);
  params_.validate();
  BSPLOGP_EXPECTS(options_.max_supersteps >= 1);
}

RunStats Machine::run(const std::function<bool(Ctx&)>& step_fn) {
  const auto programs = make_programs(nprocs_, step_fn);
  return run(programs);
}

RunStats Machine::run(std::span<const std::unique_ptr<ProcProgram>> programs) {
  BSPLOGP_EXPECTS(std::cmp_equal(programs.size(), nprocs_));
  for (const auto& prog : programs) BSPLOGP_EXPECTS(prog != nullptr);

  const auto np = static_cast<std::size_t>(nprocs_);
  // inboxes[i]: messages delivered to processor i at the start of the
  // current superstep; refilled (and the old contents discarded, as the
  // model prescribes) by each communication phase.
  std::vector<std::vector<Message>> inboxes(np);
  std::vector<std::vector<Message>> outboxes(np);
  core::Rng shuffle_rng(options_.shuffle_seed);
  SuperstepCore core("bsp", nprocs_, params_, options_.max_supersteps,
                     options_.sink);
  for (;;) {
    // --- Local computation phase (all processors, any order: they cannot
    // observe each other within a superstep).
    for (std::size_t i = 0; i < np; ++i)
      core.step(static_cast<ProcId>(i), *programs[i], inboxes[i], outboxes[i]);
    // Price the superstep from its output pools before delivering them.
    // After the last one no processor would look at a pool, so the run
    // ends undelivered.
    if (!core.close(outboxes)) break;

    // --- Communication phase: new input pools replace the old ones.
    for (auto& inbox : inboxes) inbox.clear();
    for (auto& outbox : outboxes) {
      for (const Message& m : outbox)
        inboxes[static_cast<std::size_t>(m.dst)].push_back(m);
      outbox.clear();
    }
    // Iterating senders in id order already yields SourceOrder pools.
    if (options_.inbox_order == InboxOrder::Shuffled) {
      for (auto& inbox : inboxes)
        std::shuffle(inbox.begin(), inbox.end(), shuffle_rng);
    }
  }
  stats_ = core.finish();
  return stats_;
}

SuperstepCore::SuperstepCore(std::string_view machine, ProcId nprocs,
                             const Params& params,
                             std::int64_t max_supersteps,
                             trace::TraceSink* sink)
    : nprocs_(nprocs),
      params_(params),
      max_supersteps_(max_supersteps),
      sink_(sink),
      works_(static_cast<std::size_t>(nprocs), 0),
      halt_step_(static_cast<std::size_t>(nprocs), -1),
      received_(static_cast<std::size_t>(nprocs), 0) {
  BSPLOGP_EXPECTS(nprocs >= 1);
  params_.validate();
  BSPLOGP_EXPECTS(max_supersteps >= 1);
  stats_.proc_finish.assign(static_cast<std::size_t>(nprocs), 0);
  if (sink_ != nullptr) {
    sink_->run_begin(trace::RunInfo{std::string(machine), nprocs_, 0, 0, 0,
                                    0, params_.g, params_.l});
    sink_->emit(trace::Event::superstep_begin(0, 0));
  }
}

void SuperstepCore::step(ProcId pid, ProcProgram& prog,
                         std::span<const Message> inbox,
                         std::vector<Message>& outbox) {
  const auto i = static_cast<std::size_t>(pid);
  works_[i] = 0;
  if (halt_step_[i] >= 0) return;
  Time work = static_cast<Time>(inbox.size());  // pool extraction cost
  Ctx ctx(pid, nprocs_, superstep_, inbox, outbox, work);
  if (!prog.step(ctx)) halt_step_[i] = superstep_;
  works_[i] = work;
}

bool SuperstepCore::close(std::span<const std::vector<Message>> outboxes) {
  BSPLOGP_EXPECTS(std::cmp_equal(outboxes.size(), nprocs_));
  SuperstepCost cost;
  std::fill(received_.begin(), received_.end(), 0);
  for (std::size_t i = 0; i < outboxes.size(); ++i) {
    cost.w = std::max(cost.w, works_[i]);
    cost.h = std::max(cost.h, static_cast<Time>(outboxes[i].size()));
    stats_.messages += static_cast<std::int64_t>(outboxes[i].size());
    for (const Message& m : outboxes[i])
      received_[static_cast<std::size_t>(m.dst)] += 1;
  }
  for (const Time r : received_) cost.h = std::max(cost.h, r);

  const Time before = stats_.finish_time;
  stats_.finish_time += cost.total(params_);
  stats_.supersteps += 1;
  stats_.trace.push_back(cost);
  bool running = false;
  for (std::size_t i = 0; i < halt_step_.size(); ++i) {
    // A processor that halted this superstep finished at its closing
    // barrier: the cumulative cost including this superstep.
    if (halt_step_[i] == superstep_) stats_.proc_finish[i] = stats_.finish_time;
    running = running || halt_step_[i] < 0;
  }
  if (sink_ != nullptr)
    sink_->emit(trace::Event::superstep_end(stats_.finish_time, before,
                                            cost.w, cost.h, superstep_));
  if (!running) return false;
  superstep_ += 1;
  if (superstep_ >= max_supersteps_) {
    stats_.hit_superstep_limit = true;
    return false;
  }
  if (sink_ != nullptr)
    sink_->emit(
        trace::Event::superstep_begin(stats_.finish_time, superstep_));
  return true;
}

RunStats SuperstepCore::finish() {
  for (ProcId i = 0; i < nprocs_; ++i)
    if (halt_step_[static_cast<std::size_t>(i)] < 0)
      stats_.blocked_procs.push_back(i);
  if (sink_ != nullptr) sink_->run_end(stats_.finish_time);
  return std::move(stats_);
}

}  // namespace bsplogp::bsp

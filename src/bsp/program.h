// The BSP programming interface.
//
// A BSP computation (paper, Section 2.1) is a sequence of supersteps; in
// each superstep every processor (i) extracts messages from its input pool,
// (ii) computes on local data, and (iii) inserts messages into its output
// pool, after which a global barrier transfers all output pools to the
// destinations' input pools. Programs here are written per-processor: the
// Machine instantiates one ProcProgram per processor and calls step() once
// per superstep, handing it a Ctx that exposes the input pool and accepts
// sends and work charges.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/core/types.h"

namespace bsplogp::bsp {

class Machine;

/// Per-superstep view a processor gets of the machine. Valid only for the
/// duration of the step() call it is passed to.
class Ctx {
 public:
  [[nodiscard]] ProcId pid() const { return pid_; }
  [[nodiscard]] ProcId nprocs() const { return nprocs_; }
  /// Index of the current superstep, 0-based.
  [[nodiscard]] std::int64_t superstep() const { return superstep_; }

  /// The input pool: messages routed to this processor during the previous
  /// superstep's communication phase. Order within the pool is controlled by
  /// the Machine's InboxOrder option; correct programs must not rely on it.
  /// Reading the pool is free; extracting is charged one operation per
  /// message automatically (extraction is a local operation in the model),
  /// whether or not the program looks at every message.
  [[nodiscard]] std::span<const Message> inbox() const { return inbox_; }

  /// Inserts a message into the output pool; it arrives in dst's input pool
  /// at the start of the next superstep. Charged one local operation.
  void send(ProcId dst, Word payload, std::int32_t tag = 0);
  /// send() for a pre-built message (src is overwritten with this
  /// processor's id; dst taken from the message). Used by executors that
  /// forward messages carrying full protocol headers.
  void send_msg(Message m);

  /// Records `ops` local operations of computation for the cost model.
  void charge(Time ops);

  /// Constructed by executors (bsp::SuperstepCore, and xsim's Theorem-2
  /// superstep simulation): binds one processor's view for one superstep.
  Ctx(ProcId pid, ProcId nprocs, std::int64_t superstep,
      std::span<const Message> inbox, std::vector<Message>& outbox,
      Time& work)
      : pid_(pid),
        nprocs_(nprocs),
        superstep_(superstep),
        inbox_(inbox),
        outbox_(outbox),
        work_(work) {}

 private:
  ProcId pid_;
  ProcId nprocs_;
  std::int64_t superstep_;
  std::span<const Message> inbox_;
  std::vector<Message>& outbox_;
  Time& work_;
};

/// A processor's program: step() is invoked once per superstep and returns
/// true while the processor wants the computation to continue. Returning
/// false halts the processor permanently — it is never stepped again — and
/// the machine stops once every processor has halted. Per-processor state
/// lives in the derived class.
class ProcProgram {
 public:
  virtual ~ProcProgram() = default;
  virtual bool step(Ctx& ctx) = 0;
};

/// Convenience adaptor for writing programs as lambdas:
///   auto progs = make_programs(p, [&](Ctx& c) { ...; return c.superstep()<3; });
class FnProgram final : public ProcProgram {
 public:
  explicit FnProgram(std::function<bool(Ctx&)> fn) : fn_(std::move(fn)) {}
  bool step(Ctx& ctx) override { return fn_(ctx); }

 private:
  std::function<bool(Ctx&)> fn_;
};

/// Builds p copies of a stateless (or externally-stateful) step function.
[[nodiscard]] inline std::vector<std::unique_ptr<ProcProgram>> make_programs(
    ProcId nprocs, const std::function<bool(Ctx&)>& fn) {
  std::vector<std::unique_ptr<ProcProgram>> progs;
  progs.reserve(static_cast<std::size_t>(nprocs));
  for (ProcId i = 0; i < nprocs; ++i)
    progs.push_back(std::make_unique<FnProgram>(fn));
  return progs;
}

}  // namespace bsplogp::bsp

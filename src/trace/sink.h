// The machine observer API: a TraceSink receives the typed event stream
// (event.h) of one or more runs.
//
// Contract (DESIGN.md §8):
//   * Installation is a raw pointer in the machine's Options (`sink`);
//     the machine never owns the sink. A null sink is the production
//     configuration: every emission site is guarded by a single pointer
//     test, so tracing costs nothing when disabled.
//   * For each run the machine calls run_begin(info) first, then emit()
//     for every event, then run_end(finish). A sink may observe several
//     runs back to back (benches sweep configurations); per-run state is
//     reset in run_begin.
//   * Sinks must not mutate the machine. Emission never influences the
//     execution: traced and untraced runs of the same seed are step-for-
//     step identical.
//   * Events arrive in simulation-discovery order; per processor and
//     kind, timestamps are non-decreasing. Sinks needing a global
//     time-sorted view sort by Event::t.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/trace/event.h"

namespace bsplogp::trace {

/// Static facts about the run being observed, supplied to run_begin.
/// Model parameters that do not apply are zero (e.g. L/o/G for a BSP run).
struct RunInfo {
  /// Which machine is emitting: "logp", "bsp", "native.logp" or
  /// "native.bsp". The cross-simulators emit under the name of the host
  /// machine they run on.
  std::string machine;
  ProcId nprocs = 0;
  /// LogP parameters (0 when not a LogP run).
  Time L = 0;
  Time o = 0;
  Time G = 0;
  /// The capacity threshold ceil(L/G) (0 when not a LogP run).
  Time capacity = 0;
  /// BSP parameters (0 when not a BSP run).
  Time g = 0;
  Time l = 0;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A new run starts; resets per-run sink state.
  virtual void run_begin(const RunInfo& info) { (void)info; }
  /// The run ended at model time `finish`.
  virtual void run_end(Time finish) { (void)finish; }
  /// One event. The reference is valid only for the duration of the call.
  virtual void emit(const Event& event) = 0;
};

/// Verbatim event recorder: the run's event stream as a vector, for tests
/// and ad-hoc inspection.
class RecordingSink final : public TraceSink {
 public:
  void run_begin(const RunInfo& info) override {
    info_ = info;
    runs_ += 1;
  }
  void run_end(Time finish) override { finish_ = finish; }
  void emit(const Event& event) override { events_.push_back(event); }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] const RunInfo& info() const { return info_; }
  [[nodiscard]] Time finish() const { return finish_; }
  [[nodiscard]] int runs() const { return runs_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
  RunInfo info_;
  Time finish_ = 0;
  int runs_ = 0;
};

/// Fan-out to several sinks (e.g. a ChromeTraceSink for the timeline plus
/// an InvariantSink for checking, on the same run). Does not own them.
class TeeSink final : public TraceSink {
 public:
  TeeSink() = default;
  explicit TeeSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }

  void run_begin(const RunInfo& info) override {
    for (TraceSink* s : sinks_) s->run_begin(info);
  }
  void run_end(Time finish) override {
    for (TraceSink* s : sinks_) s->run_end(finish);
  }
  void emit(const Event& event) override {
    for (TraceSink* s : sinks_) s->emit(event);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

/// Serializing adapter for multi-threaded emitters. Every sink in this
/// module is written for the machines' single-threaded emission contract;
/// the native shared-memory backend (src/native) emits from p real threads
/// at once. MutexSink forwards each call to the wrapped sink under one
/// mutex, so events are never torn or dropped and the inner sink's
/// bookkeeping stays exactly as correct as under a simulator. Does not own
/// the inner sink. Cross-thread emission order is whatever the lock
/// arbitration yields: per-kind counts are exact, interleavings are not
/// reproducible.
class MutexSink final : public TraceSink {
 public:
  explicit MutexSink(TraceSink* inner) : inner_(inner) {}

  void run_begin(const RunInfo& info) override {
    const std::lock_guard<std::mutex> lock(mu_);
    inner_->run_begin(info);
  }
  void run_end(Time finish) override {
    const std::lock_guard<std::mutex> lock(mu_);
    inner_->run_end(finish);
  }
  void emit(const Event& event) override {
    const std::lock_guard<std::mutex> lock(mu_);
    inner_->emit(event);
  }

 private:
  std::mutex mu_;
  TraceSink* inner_;
};

}  // namespace bsplogp::trace

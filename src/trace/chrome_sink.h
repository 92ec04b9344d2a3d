// ChromeTraceSink: exports the event stream as Chrome trace-event JSON
// (the "JSON Array Format" of the Trace Event spec), loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
//
// Track layout: each observed run becomes one process (pid = run index,
// named after RunInfo::machine), with one thread track per processor
// (tid = ProcId) plus a "machine" track (tid = nprocs) for machine-wide
// records (BSP supersteps). Mapping:
//
//   * interval records — stall spans, gap waits, supersteps, protocol
//     phases — become complete ("ph":"X") duration events;
//   * point records — submit/accept/delivery/acquire — become thread-
//     scoped instant ("ph":"i") events;
//   * QueueDepth samples become counter ("ph":"C") events, so Perfetto
//     renders input-buffer occupancy as a graph per processor.
//
// Timestamps are model steps written as microseconds (1 step = 1 us);
// only relative durations are meaningful.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/trace/sink.h"

namespace bsplogp::trace {

class ChromeTraceSink final : public TraceSink {
 public:
  ChromeTraceSink() = default;
  /// Auto-write mode: the trace file is (re)written at every run_end, so
  /// the file holds a complete valid document whenever the caller stops.
  explicit ChromeTraceSink(std::string path) : path_(std::move(path)) {}

  void run_begin(const RunInfo& info) override;
  void run_end(Time finish) override;
  void emit(const Event& event) override;

  /// Serializes the full document collected so far.
  void write(std::ostream& os) const;
  /// Writes to `path` (or the constructor path if empty). Returns false
  /// if the file cannot be written.
  [[nodiscard]] bool write_file(const std::string& path = {}) const;

  /// Trace-event rows collected (excluding metadata rows).
  [[nodiscard]] std::int64_t event_rows() const { return event_rows_; }
  [[nodiscard]] int runs() const { return pid_; }

 private:
  struct Row {
    std::string name;
    char ph = 'i';         // X, i, C, M
    ProcId pid = 0;        // run index
    std::int64_t tid = 0;  // processor (nprocs = machine track)
    Time ts = 0;
    Time dur = 0;          // X only
    std::string args;      // pre-rendered JSON object body, may be empty
  };

  void push(Row row);
  void meta(const std::string& name, std::int64_t tid,
            const std::string& value);

  std::string path_;
  std::vector<Row> rows_;
  std::int64_t event_rows_ = 0;
  int pid_ = 0;  // current run; incremented by run_begin
  ProcId nprocs_ = 0;
};

/// JSON string escaping: the repo's one escaper, shared by the sink and
/// the bench Reporter.
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace bsplogp::trace

// Benchmark reporting harness: every bench_*.cpp routes its results
// through a Reporter so each experiment emits BOTH the human-readable
// aligned table it always printed AND, with `--json <path>`, a
// machine-readable JSON document for the BENCH_*.json perf trajectory.
//
// Protocol (documented in DESIGN.md §"Benchmark harness" and §9):
//   bench_foo                  # tables on stdout, as before
//   bench_foo --json out.json  # tables on stdout + JSON written to out.json
//   bench_foo --smoke          # tiny sweep: CI smoke label (ctest -L bench_smoke)
//   bench_foo --trace t.json   # Chrome trace-event JSON of the traced runs
//                              # (open in Perfetto / chrome://tracing)
//   bench_foo --jobs N         # run sweep grid points on N threads; output
//                              # is byte-identical for every N
//   bench_foo --repeat N       # run every measurement N times: sweep grid
//                              # points re-verify equal results,
//                              # wall-clock loops report the median; output
//                              # is byte-identical for every N
//   bench_foo --list           # list workload families + series, run nothing
//   bench_foo --deep           # nightly grids: a strict superset of the
//                              # full grid (benches that support it)
// Unknown flags are an error (usage on stderr, exit 2), and every bad
// flag VALUE enumerates the accepted forms in its complaint: a typo must
// not silently run the wrong experiment.
//
// JSON shape:
//   { "bench": "<name>", "smoke": false, "jobs": 1, "repeat": 1,
//     "metrics": { "<key>": <number>, ... },
//     "series": [ { "id": "<id>", "columns": [...],
//                   "rows": [[cell, ...], ...] }, ... ] }
// Cells are numbers (integral results exact, reals full-precision) or
// strings; the table rendering applies core::fmt with the per-cell
// precision instead.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/parallel.h"
#include "src/trace/chrome_sink.h"
#include "src/workload/workload.h"

namespace bsplogp::bench {

/// One table/series cell: an exact integer, a real with a display
/// precision, or a string label.
class Cell {
 public:
  Cell(std::int64_t v) : kind_(Kind::Int), int_(v) {}  // NOLINT(runtime/explicit)
  Cell(int v) : Cell(static_cast<std::int64_t>(v)) {}  // NOLINT
  Cell(double v, int precision = 2)                    // NOLINT
      : kind_(Kind::Real), real_(v), precision_(precision) {}
  Cell(std::string v) : kind_(Kind::Str), str_(std::move(v)) {}  // NOLINT
  Cell(const char* v) : Cell(std::string(v)) {}                  // NOLINT

  /// Rendering for the human table (core::fmt formatting rules).
  [[nodiscard]] std::string display() const;
  /// Rendering for JSON (numbers full-precision, strings escaped+quoted).
  [[nodiscard]] std::string json() const;

 private:
  enum class Kind { Int, Real, Str };
  Kind kind_;
  std::int64_t int_ = 0;
  double real_ = 0;
  int precision_ = 2;
  std::string str_;
};

/// A named result series: typed rows under fixed column names. Prints as a
/// core::Table; serializes losslessly into the JSON document.
class Series {
 public:
  Series(std::string id, std::vector<std::string> columns);

  void row(std::vector<Cell> cells);
  /// Renders the aligned table (same output as the pre-harness benches).
  void print(std::ostream& os) const;

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  void write_json(std::ostream& os) const;

 private:
  std::string id_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Per-binary harness: parses the CLI protocol above, collects series and
/// scalar metrics, and writes the JSON document (and the Chrome trace, if
/// requested) in finish().
class Reporter {
 public:
  Reporter(int argc, char** argv, std::string bench_name);

  /// CI smoke mode: benches shrink their sweeps to one tiny configuration.
  [[nodiscard]] bool smoke() const { return smoke_; }

  /// Worker threads for sweep grids (--jobs N, default 1). Consumed by
  /// SweepRunner; a bench whose output must be byte-identical across job
  /// counts must never branch on this value.
  [[nodiscard]] int jobs() const { return jobs_; }

  /// Repetitions per measurement (--repeat N, default 1). Two consumers:
  /// SweepRunner re-computes every grid point N times and aborts unless
  /// every result field has identical bits (FieldBits; model results must
  /// be a pure function of the grid point — repeats prove it, and
  /// therefore never change output); wall-clock benches run each timing
  /// loop N times and report the median, so BENCH_*.json trajectory
  /// numbers stop jittering on loaded runners.
  [[nodiscard]] int repeat() const { return repeat_; }

  /// --list mode: the bench declares its workloads and series, runs
  /// nothing, and finish() prints the enumeration instead of results.
  [[nodiscard]] bool list() const { return list_; }

  /// --deep mode: nightly grids. A bench that supports it must extend its
  /// full grid to a strict superset — never replace or re-seed points — so
  /// every full-grid point reappears in the deep run with the same result.
  [[nodiscard]] bool deep() const { return deep_; }

  /// Declares which registered workload families this bench sweeps.
  /// Each name is validated against workload::registry() — a typo or a
  /// renamed family dies loudly here instead of silently drifting from
  /// the registry. Shown by --list (with each family's accepted Spec
  /// parameter domains).
  void use_workloads(std::vector<std::string> names);

  /// Validates `spec` against the named family's declared parameter
  /// domains; on violation prints the domain-naming complaint (the same
  /// error style the flag parser uses) and exits 2. Benches
  /// call this on every grid Spec before instantiating it, so an
  /// out-of-domain sweep dies loudly instead of aborting mid-run.
  static workload::Spec checked_spec(const std::string& family,
                                     workload::Spec spec);

  /// The persistent worker pool for --jobs > 1 sweeps (null at --jobs 1).
  /// Spawned once on first use and shared by every SweepRunner built from
  /// this Reporter, so a bench with many grids pays thread start-up once,
  /// not once per map() — on tiny grids the transient pool's spawn cost
  /// was a measurable slice of the whole sweep.
  [[nodiscard]] core::ThreadPool* pool() const;

  /// Null unless `--trace <path>` was given; otherwise a ChromeTraceSink
  /// the bench plugs into machine Options. Every traced run becomes one
  /// Perfetto "process" (pid = run index). Benches pass this unchecked:
  /// the null case is exactly the sinks' zero-overhead production path,
  /// which is what the timing loops must measure. ChromeTraceSink is not
  /// thread-safe: traced runs stay on the calling thread, outside
  /// SweepRunner grids.
  [[nodiscard]] trace::TraceSink* trace_sink() const { return trace_.get(); }

  /// Starts (and owns) a new series; the reference stays valid for the
  /// Reporter's lifetime.
  Series& series(std::string id, std::vector<std::string> columns);

  /// Records a scalar summary metric (events/sec, slowdown ratio, ...).
  void metric(const std::string& key, double value);
  void metric(const std::string& key, std::int64_t value);

  /// Emits one whole diagnostic line to stderr, serialized process-wide.
  /// Sweep points run on pool workers under --jobs > 1; a worker warning
  /// interleaved with the main thread's end-of-run trace summary must
  /// never tear mid-line, so every stderr writer inside or after a sweep
  /// goes through here (finish() does for its own summaries).
  static void diag(const std::string& line);

  /// Writes the JSON document (the --json payload) to `os`.
  void write_json(std::ostream& os) const;

  /// Writes the JSON file if --json was given; in --list mode prints the
  /// workload/series enumeration instead. Returns 0 on success (use as
  /// `return rep.finish();` from main).
  int finish();

 private:
  std::string name_;
  std::string json_path_;
  std::string trace_path_;
  std::unique_ptr<trace::ChromeTraceSink> trace_;
  bool smoke_ = false;
  bool list_ = false;
  bool deep_ = false;
  int jobs_ = 1;
  int repeat_ = 1;
  mutable std::unique_ptr<core::ThreadPool> pool_;  // lazy, see pool()
  std::vector<std::string> workloads_;
  std::deque<Series> series_;  // deque: stable references across growth
  std::vector<std::pair<std::string, std::string>> metrics_;  // key -> json
};

/// The --repeat proof: the object representation of every arithmetic
/// field a point result lists in its io() member template
///
///   template <class Ar> void io(Ar& ar) { ar(a); ar(b); ... }
///
/// (nested structs with io() compose; an arithmetic result is its own one
/// field). Equal FieldBits therefore mean integers and bools equal by value
/// and reals equal by bit pattern: a 0.0 -> -0.0 flip, which operator==
/// calls equal, is a divergence, and a stable NaN, which operator== calls
/// unequal to itself, is not.
class FieldBits {
 public:
  template <typename R>
  explicit FieldBits(const R& r) { (*this)(r); }

  template <typename T>
  void operator()(const T& v) {
    if constexpr (std::is_arithmetic_v<T>) {
      bits_.append(reinterpret_cast<const char*>(&v), sizeof v);
    } else {
      const_cast<T&>(v).io(*this);  // io() only reads under FieldBits
    }
  }

  [[nodiscard]] bool operator==(const FieldBits&) const = default;

 private:
  std::string bits_;
};

/// Deterministic parallel sweep driver. map() evaluates one function per
/// grid point and returns the results indexed by grid point; the caller
/// then walks the vector in grid order on its own thread to emit
/// rows/metrics. Because every point's result is a pure function of its
/// index (model-time simulation + rng_for_index streams) and emission is
/// serial and ordered, the bench output is byte-identical for every
/// --jobs value and chunk size (DESIGN.md §9).
class SweepRunner {
 public:
  explicit SweepRunner(const Reporter& rep)
      : SweepRunner(rep.pool(), rep.repeat()) {}
  /// Grids run in ranges on `pool`'s workers plus the calling thread, or
  /// inline on the calling thread when `pool` is null (--jobs 1).
  explicit SweepRunner(core::ThreadPool* pool, int repeat = 1)
      : pool_(pool), repeat_(repeat) {}

  /// Returns fn(i) for every i in [0, n), by index. R must be
  /// default-constructible and arithmetic or a struct listing its fields
  /// in io(): FieldBits is what --repeat compares.
  template <typename R, typename F>
  [[nodiscard]] std::vector<R> map(std::size_t n, const F& fn) const {
    std::vector<R> out(n);
    // Under --repeat N every point is re-evaluated N times with its
    // FieldBits demanded identical: a sweep point must be a pure function
    // of its grid index, so repeats can only confirm the result, never
    // change it — which is what keeps output byte-identical at every
    // --repeat value. A divergence is a determinism bug
    // (wall-clock leaking into a model result, a stray global rng) and
    // dies loudly instead of poisoning the trajectory.
    const auto compute_checked = [&](std::size_t i) {
      R first = fn(i);
      if (repeat_ == 1) return first;
      const FieldBits bits(first);
      for (int r = 1; r < repeat_; ++r) {
        if (FieldBits(fn(i)) != bits) {
          Reporter::diag("sweep: grid point " + std::to_string(i) +
                         " is nondeterministic across --repeat runs");
          std::abort();
        }
      }
      return first;
    };
    // One call per claimed range; the per-point calls inside are direct
    // and inlinable. Results commit by index, so output is byte-identical
    // for every jobs value and chunk size (jobs_determinism.cmake forces
    // pathological chunks to prove it).
    const auto body = [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) out[i] = compute_checked(i);
    };
    if (pool_ == nullptr) {
      body(0, n);
    } else {
      pool_->for_ranges(n, body);
    }
    return out;
  }

 private:
  core::ThreadPool* pool_;
  int repeat_;
};

}  // namespace bsplogp::bench

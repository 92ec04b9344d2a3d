// The bench reporting harness (bench/harness.h): Cell rendering, Series /
// Reporter JSON that parses back losslessly, trace::json_escape (the one
// escaper, shared with the trace sink) on control characters, the strict
// CLI protocol (unknown flags die with usage, exit 2), --list enumeration,
// and the SweepRunner determinism contract — the whole JSON document is
// byte-identical whether a sweep ran on 1 thread or 4.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/rng.h"
#include "src/core/table.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"
#include "tests/support/json.h"

namespace bsplogp::bench {
namespace {

using testsupport::JsonParser;
using testsupport::JsonValue;

/// Owns a fake argv (argv[0] plus the given flags) for Reporter tests.
class Argv {
 public:
  explicit Argv(std::initializer_list<const char*> args) {
    strings_.emplace_back("bench_test");
    for (const char* a : args) strings_.emplace_back(a);
    ptrs_.reserve(strings_.size());
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(Cell, DisplayFollowsCoreFmtAndJsonIsLossless) {
  EXPECT_EQ(Cell(static_cast<std::int64_t>(42)).json(), "42");
  EXPECT_EQ(Cell(-7).json(), "-7");
  EXPECT_EQ(Cell("plain").display(), "plain");
  EXPECT_EQ(Cell("a\"b").json(), "\"a\\\"b\"");

  EXPECT_EQ(Cell(static_cast<std::int64_t>(42)).display(),
            core::fmt(std::int64_t{42}));
  EXPECT_EQ(Cell(3.14159, 3).display(), core::fmt(3.14159, 3));

  // JSON reals are full-precision: the parsed value is bit-exact.
  const std::string j = Cell(0.1, 1).json();
  JsonValue v;
  ASSERT_TRUE(JsonParser(j).parse(v));
  ASSERT_EQ(v.type, JsonValue::Type::Number);
  EXPECT_EQ(v.number, 0.1);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(trace::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(trace::json_escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(trace::json_escape(std::string("\x01\x1f")), "\\u0001\\u001f");
  // Escaped control characters must survive a parse round-trip.
  const std::string doc =
      "{\"k\": \"" + trace::json_escape("\x02 mid \x03") + "\"}";
  JsonValue root;
  EXPECT_TRUE(JsonParser(doc).parse(root));
}

TEST(Series, JsonRoundTripsColumnsAndTypedRows) {
  Series s("my_series", {"p", "ratio", "note"});
  s.row({8, Cell(1.5, 2), "fast"});
  s.row({16, Cell(2.25, 2), "needs \"quoting\""});
  ASSERT_EQ(s.rows(), 2u);

  std::ostringstream os;
  s.write_json(os);
  JsonValue v;
  ASSERT_TRUE(JsonParser(os.str()).parse(v)) << os.str();
  ASSERT_EQ(v.type, JsonValue::Type::Object);
  EXPECT_EQ(v.find("id")->str, "my_series");
  const JsonValue* cols = v.find("columns");
  ASSERT_NE(cols, nullptr);
  ASSERT_EQ(cols->array.size(), 3u);
  EXPECT_EQ(cols->array[2].str, "note");
  const JsonValue* rows = v.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_EQ(rows->array[0].array[0].number, 8);
  EXPECT_EQ(rows->array[0].array[1].number, 1.5);
  EXPECT_EQ(rows->array[1].array[2].str, "needs \"quoting\"");
}

TEST(Reporter, DocumentRoundTripsMetricsAndSeries) {
  Argv args({"--smoke", "--jobs", "3"});
  Reporter rep(args.argc(), args.argv(), "unit");
  EXPECT_TRUE(rep.smoke());
  EXPECT_EQ(rep.jobs(), 3);
  EXPECT_FALSE(rep.list());
  EXPECT_EQ(rep.trace_sink(), nullptr);

  rep.metric("count", static_cast<std::int64_t>(5));
  rep.metric("ratio", 2.5);
  Series& s = rep.series("s1", {"a"});
  s.row({1});

  std::ostringstream os;
  rep.write_json(os);
  JsonValue v;
  ASSERT_TRUE(JsonParser(os.str()).parse(v)) << os.str();
  EXPECT_EQ(v.find("bench")->str, "unit");
  EXPECT_TRUE(v.find("smoke")->boolean);
  EXPECT_EQ(v.find("jobs")->number, 3);
  EXPECT_EQ(v.find("metrics")->find("count")->number, 5);
  EXPECT_EQ(v.find("metrics")->find("ratio")->number, 2.5);
  ASSERT_EQ(v.find("series")->array.size(), 1u);
  EXPECT_EQ(v.find("series")->array[0].find("id")->str, "s1");
}

TEST(ReporterDeathTest, UnknownFlagDiesWithUsageAndExitCode2) {
  Argv args({"--frobnicate"});
  EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
              ::testing::ExitedWithCode(2), "unknown flag '--frobnicate'");
}

TEST(ReporterDeathTest, BadCacheFlagsDieWithExitCode2) {
  // There is no sweep cache: every spelling that once configured it is an
  // unknown flag, never a silently ignored one.
  {
    Argv args({"--cache", "on"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "unknown flag '--cache'");
  }
  {
    Argv args({"--cache"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "unknown flag '--cache'");
  }
  {
    Argv args({"--smoke", "--cache-dir", "sweep-cache"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "unknown flag '--cache-dir'");
  }
}

TEST(ReporterDeathTest, BadFarmFlagsDieEnumeratingTheValidForms) {
  // Sweeps run on this host only: the farm spellings are unknown flags,
  // and the complaint carries the usage line that names every accepted
  // flag.
  const char* const usage =
      "usage: bench_unit \\[--smoke\\] \\[--jobs N\\] \\[--repeat N\\] "
      "\\[--json <path>\\] \\[--trace <path>\\] \\[--list\\] \\[--deep\\]";
  {
    Argv args({"--farm", "2"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "unknown flag '--farm'");
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), usage);
  }
  {
    Argv args({"--farm", "listen:9000"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "unknown flag '--farm'");
  }
  {
    Argv args({"--connect", "localhost:9"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "unknown flag '--connect'");
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), usage);
  }
}

TEST(ReporterDeathTest, BadJobsValuesDieWithExitCode2) {
  {
    Argv args({"--jobs", "0"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "bad --jobs value");
  }
  {
    Argv args({"--jobs", "many"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "bad --jobs value");
  }
  {
    Argv args({"--jobs"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "--jobs needs a count");
  }
}

TEST(Reporter, ParsesRepeatAndRecordsItInTheDocument) {
  Argv args({"--repeat", "5"});
  Reporter rep(args.argc(), args.argv(), "unit");
  EXPECT_EQ(rep.repeat(), 5);

  std::ostringstream os;
  rep.write_json(os);
  JsonValue v;
  ASSERT_TRUE(JsonParser(os.str()).parse(v)) << os.str();
  EXPECT_EQ(v.find("repeat")->number, 5);

  Argv none({});
  EXPECT_EQ(Reporter(none.argc(), none.argv(), "unit").repeat(), 1);
}

TEST(ReporterDeathTest, BadRepeatValuesDieWithExitCode2) {
  {
    Argv args({"--repeat", "0"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "bad --repeat value");
  }
  {
    Argv args({"--repeat", "1001"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "bad --repeat value");
  }
  {
    Argv args({"--repeat", "twice"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "bad --repeat value");
  }
  {
    Argv args({"--repeat"});
    EXPECT_EXIT(Reporter(args.argc(), args.argv(), "unit"),
                ::testing::ExitedWithCode(2), "--repeat needs a count");
  }
}

TEST(ReporterDeathTest, UnregisteredWorkloadNameDiesWithExitCode2) {
  Argv args({});
  EXPECT_EXIT(
      {
        Reporter rep(args.argc(), args.argv(), "unit");
        rep.use_workloads({"hotspot", "not-a-family"});
      },
      ::testing::ExitedWithCode(2), "not in workload::registry");
}

TEST(Reporter, ListModeEnumeratesWorkloadsAndSeriesAndRunsNothing) {
  Argv args({"--list"});
  Reporter rep(args.argc(), args.argv(), "unit");
  EXPECT_TRUE(rep.list());
  rep.use_workloads({"hotspot", "all-to-all"});
  rep.series("s1", {"a"});
  rep.series("s2", {"b"});
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(rep.finish(), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("bench_unit"), std::string::npos);
  EXPECT_NE(out.find("hotspot"), std::string::npos);
  EXPECT_NE(out.find("all-to-all"), std::string::npos);
  EXPECT_NE(out.find("s1"), std::string::npos);
  EXPECT_NE(out.find("s2"), std::string::npos);
}

TEST(SweepRunner, MapCommitsResultsByIndex) {
  core::ThreadPool pool(3);
  const SweepRunner runner(&pool);
  const auto out = runner.map<std::size_t>(
      100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

/// Point result for sweep_document (namespace scope: every map() result
/// type must carry the io() member template that --repeat's FieldBits
/// walks, and local classes cannot declare member templates).
struct SweepDocResult {
  Time finish = 0;
  std::int64_t messages = 0;
  std::int64_t stalls = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(finish);
    ar(messages);
    ar(stalls);
  }
};

/// Builds the full JSON document of a model-time sweep (the grid every real
/// bench follows: per-point machine + rng_for_index stream, results
/// committed in grid order) with the given SweepRunner.
std::string sweep_document(const SweepRunner& runner) {
  Argv args({"--smoke"});
  Reporter rep(args.argc(), args.argv(), "determinism");
  Series& s = rep.series("sweep", {"p", "T", "messages", "stalls"});

  struct Point {
    ProcId p;
    int msgs;
  };
  const std::vector<Point> grid{{4, 3}, {5, 6}, {6, 2}, {8, 5},
                                {9, 4}, {12, 3}, {16, 2}};
  using Result = SweepDocResult;
  const auto results = runner.map<Result>(grid.size(), [&](std::size_t i) {
    core::Rng rng = core::rng_for_index(2026, i);
    const std::uint64_t seed = rng();
    logp::Machine m(grid[i].p, logp::Params{12, 1, 3});
    const auto st =
        m.run(workload::random_traffic(grid[i].p, grid[i].msgs, 10, seed));
    return Result{st.finish_time, st.messages, st.stall_events};
  });
  Time total = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    s.row({grid[i].p, results[i].finish, results[i].messages,
           results[i].stalls});
    total += results[i].finish;
  }
  rep.metric("total_model_time", static_cast<std::int64_t>(total));

  std::ostringstream os;
  rep.write_json(os);
  return os.str();
}

TEST(SweepRunner, DocumentIsByteIdenticalAcrossJobCounts) {
  // The §9 determinism contract, end to end: the same grid swept on 1 and
  // on 4 threads yields byte-identical documents (not merely equal values).
  core::ThreadPool pool4(3);
  core::ThreadPool pool3(2);
  const std::string serial = sweep_document(SweepRunner(nullptr));
  EXPECT_EQ(sweep_document(SweepRunner(&pool4)), serial);
  EXPECT_EQ(sweep_document(SweepRunner(&pool3)), serial);
  JsonValue v;
  ASSERT_TRUE(JsonParser(serial).parse(v));  // and it is valid JSON
  EXPECT_GT(v.find("metrics")->find("total_model_time")->number, 0);
}

TEST(SweepRunner, RepeatReVerifiesEveryPointWithoutChangingTheDocument) {
  // --repeat 3 evaluates every point three times, asserts the results
  // equal, and must not change a byte of the document relative to a
  // single-evaluation sweep — on any jobs count.
  core::ThreadPool pool4(3);
  core::ThreadPool pool2(1);
  const std::string baseline = sweep_document(SweepRunner(nullptr));
  EXPECT_EQ(sweep_document(SweepRunner(nullptr, 3)), baseline);
  EXPECT_EQ(sweep_document(SweepRunner(&pool4, 3)), baseline);

  std::atomic<int> computed{0};
  const auto out = SweepRunner(&pool2, 3).map<std::size_t>(
      10, [&](std::size_t i) {
        computed.fetch_add(1);
        return i * 7;
      });
  EXPECT_EQ(computed.load(), 30);  // every point computed repeat times
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 7);

  // Repeats compare bits, not operator==: a point that returns the same
  // quiet NaN every time is deterministic, though NaN != NaN.
  const auto nan = SweepRunner(nullptr, 2).map<double>(1, [](std::size_t) {
    return std::numeric_limits<double>::quiet_NaN();
  });
  EXPECT_TRUE(std::isnan(nan[0]));
}

/// A struct result for the --repeat death test: the comparison covers
/// every field io() lists, the last one included.
struct DriftResult {
  Time finish = 0;
  std::int64_t messages = 0;
  double ratio = 0;

  template <class Ar>
  void io(Ar& ar) {
    ar(finish);
    ar(messages);
    ar(ratio);
  }
};

TEST(SweepRunnerDeathTest, NondeterministicPointDiesUnderRepeat) {
  // A point whose result differs between evaluations is a determinism bug
  // (wall-clock or global state leaking into a model result); under
  // --repeat it must die loudly, not poison the trajectory.
  EXPECT_DEATH(
      {
        int calls = 0;
        (void)SweepRunner(nullptr, 2).map<std::size_t>(1, [&](std::size_t) {
          return static_cast<std::size_t>(calls++);
        });
      },
      "nondeterministic across --repeat");
  // A struct result is compared whole: a drift in its last field alone
  // must die too.
  EXPECT_DEATH(
      {
        int calls = 0;
        (void)SweepRunner(nullptr, 2).map<DriftResult>(1, [&](std::size_t) {
          return DriftResult{7, 3, 0.5 + calls++};
        });
      },
      "nondeterministic across --repeat");
  // The comparison is on field bits, so a signed-zero flip — equal under
  // operator== — is a divergence too.
  EXPECT_DEATH(
      {
        int calls = 0;
        (void)SweepRunner(nullptr, 2).map<double>(1, [&](std::size_t) {
          return calls++ == 0 ? 0.0 : -0.0;
        });
      },
      "nondeterministic across --repeat");
}

}  // namespace
}  // namespace bsplogp::bench

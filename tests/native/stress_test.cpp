// Concurrency stress: hammer the native backend's synchronization paths
// (barrier waves, arrival queues, shared-pool reuse, concurrent trace
// emission) hard enough that a data race or a lost wakeup has a realistic
// chance of firing — these are the tests the TSan CI leg exists for. The
// NativeLogp tests drive run_logp's two failure paths: a recv timeout, and
// a throwing program whose blocked siblings must be woken.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/native/logp_exec.h"
#include "src/native/spmd.h"
#include "src/trace/counting_sink.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"

namespace bsplogp {
namespace {

core::ThreadPool& shared_pool() {
  static core::ThreadPool pool(7);
  return pool;
}

TEST(NativeStress, BarrierHammer) {
  const ProcId p = 8;
  const int rounds = 200;
  std::vector<Word> counters(static_cast<std::size_t>(p), 0);
  native::spawn(p, [&](native::World& w) {
    for (int r = 0; r < rounds; ++r) {
      counters[static_cast<std::size_t>(w.pid())] += 1;
      w.barrier();
      // Between the two barriers every counter must read exactly r+1.
      for (const Word c : counters) {
        if (c != r + 1) {
          ADD_FAILURE() << "round " << r << " saw counter " << c;
          break;
        }
      }
      w.barrier();
    }
  }, &shared_pool());
}

TEST(NativeStress, HotspotFanInSumsExactly) {
  // (p-1)*k messages funneled into one arrival queue; the closed-form sum
  // catches any lost or duplicated message.
  const ProcId p = 8;
  const Time k = 20;
  std::vector<Word> sum;
  const auto programs = workload::hotspot(p, k, false, &sum);
  native::NativeLogpOptions options;
  options.pool = &shared_pool();
  const native::NativeLogpStats stats =
      native::run_logp(programs, logp::Params{16, 1, 4}, options);
  Word expected = 0;
  for (ProcId i = 1; i < p; ++i)
    for (Time j = 0; j < k; ++j) expected += i * 100 + j;
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum[0], expected);
  EXPECT_EQ(stats.messages_sent, static_cast<std::int64_t>(p - 1) * k);
  EXPECT_EQ(stats.messages_acquired, stats.messages_sent);
}

TEST(NativeStress, RepeatedRunsOnASharedPool) {
  // Pool reuse across many runs: thread-local or leftover state from a
  // previous run (stale arrivals, unreset barrier phases) would surface as
  // a wrong sum in a later iteration.
  const ProcId p = 8;
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Word> sums;
    const auto programs = workload::all_to_all(p, &sums);
    native::NativeLogpOptions options;
    options.pool = &shared_pool();
    (void)native::run_logp(programs, logp::Params{16, 1, 4}, options);
    ASSERT_EQ(sums.size(), static_cast<std::size_t>(p));
    const Word all = p * (p + 1) / 2;
    for (ProcId i = 0; i < p; ++i)
      EXPECT_EQ(sums[static_cast<std::size_t>(i)], all - (i + 1))
          << "iter " << iter << " pid " << i;
  }
}

TEST(NativeStress, ConcurrentEmissionCountsAreExact) {
  // p threads emit through MutexSink(CountingSink) simultaneously; the
  // serialized counts must balance: every submit delivered, every delivery
  // acquired.
  const ProcId p = 8;
  trace::CountingSink counts;
  trace::MutexSink sink(&counts);
  const auto programs = workload::all_to_all(p);
  native::NativeLogpOptions options;
  options.pool = &shared_pool();
  options.sink = &sink;
  (void)native::run_logp(programs, logp::Params{16, 1, 4}, options);
  const auto expected = static_cast<std::int64_t>(p) * (p - 1);
  EXPECT_EQ(counts.count(trace::EventKind::Submit), expected);
  EXPECT_EQ(counts.count(trace::EventKind::Delivery), expected);
  EXPECT_EQ(counts.count(trace::EventKind::Acquire), expected);
  for (ProcId i = 0; i < p; ++i)
    EXPECT_EQ(counts.count(trace::EventKind::Acquire, i), p - 1);
  EXPECT_EQ(counts.runs(), 1);
}

TEST(NativeLogp, RecvWithNoSenderTimesOut) {
  // Both processors wait for a message nobody sends: a real deadlock, which
  // the recv timeout turns into an error.
  native::NativeLogpOptions options;
  options.recv_timeout = std::chrono::milliseconds(50);
  const logp::ProgramFn wait_forever = [](logp::Proc& pr) -> logp::Task<> {
    (void)co_await pr.recv();
  };
  try {
    (void)native::run_logp(2, wait_forever, logp::Params{16, 1, 4}, options);
    ADD_FAILURE() << "run_logp returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("recv timed out"), std::string::npos)
        << e.what();
  }
}

TEST(NativeLogp, ThrowingProgramUnparksBlockedSiblings) {
  // Processor 0 throws while 1 and 2 block in recv under the default 30 s
  // timeout. run_logp must wake them and rethrow processor 0's exception
  // long before the timeout would.
  std::vector<logp::ProgramFn> programs;
  programs.emplace_back([](logp::Proc&) -> logp::Task<> {
    throw std::logic_error("processor 0 failed");
    co_return;  // makes the lambda a coroutine
  });
  for (int i = 1; i < 3; ++i)
    programs.emplace_back([](logp::Proc& pr) -> logp::Task<> {
      (void)co_await pr.recv();
    });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)native::run_logp(programs, logp::Params{16, 1, 4}),
               std::logic_error);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
}

}  // namespace
}  // namespace bsplogp

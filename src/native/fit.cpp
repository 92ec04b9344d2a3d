#include "src/native/fit.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "src/bsp/program.h"
#include "src/core/contracts.h"
#include "src/logp/proc.h"
#include "src/logp/task.h"
#include "src/native/bsp_exec.h"
#include "src/native/logp_exec.h"
#include "src/native/spmd.h"

namespace bsplogp::native {
namespace {

/// The two h values whose difference in exchange time yields g's slope.
constexpr Time kHLo = 4;
constexpr Time kHHi = 64;

double wall_ns_of(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Minimum of `k` timings: the standard defense against scheduler noise —
/// the minimum is the run least perturbed by preemption.
double best_of(int k, const std::function<void()>& fn) {
  double best = wall_ns_of(fn);
  for (int i = 1; i < k; ++i) best = std::min(best, wall_ns_of(fn));
  return best;
}

/// Wall time of one run of `reps` full-exchange supersteps at degree h
/// (every processor sends h messages spread over the other processors: a
/// balanced h-relation, like the paper's exchange benchmarks).
double exchange_ns(ProcId p, Time h, int reps, core::ThreadPool* pool) {
  NativeBspOptions options;
  options.pool = pool;
  const auto programs =
      bsp::make_programs(p, [h, reps](bsp::Ctx& c) {
        for (Time j = 0; j < h; ++j) {
          const auto dst = static_cast<ProcId>(
              (c.pid() + 1 + j % (c.nprocs() - 1)) % c.nprocs());
          c.send(dst, j);
        }
        return c.superstep() + 1 < reps;
      });
  return wall_ns_of([&] { (void)run_bsp(programs, options); });
}

logp::Task<> ping_program(logp::Proc& pr, int reps) {
  for (int r = 0; r < reps; ++r) {
    co_await pr.send(1, r);
    (void)co_await pr.recv();
  }
}

logp::Task<> pong_program(logp::Proc& pr, int reps) {
  for (int r = 0; r < reps; ++r) {
    (void)co_await pr.recv();
    co_await pr.send(0, r);
  }
}

logp::Task<> flood_send_program(logp::Proc& pr, int n) {
  for (int i = 0; i < n; ++i) co_await pr.send(1, i);
}

logp::Task<> flood_recv_program(logp::Proc& pr, int n) {
  for (int i = 0; i < n; ++i) (void)co_await pr.recv();
}

}  // namespace

bsp::Params BspFit::params() const {
  return bsp::Params{std::max<Time>(1, std::llround(g_ns)),
                     std::max<Time>(1, std::llround(l_ns))};
}

logp::Params LogpFit::params() const {
  const Time o = std::max<Time>(0, std::llround(o_ns));
  const Time G = std::max({Time{2}, o, static_cast<Time>(std::llround(G_ns))});
  const Time L = std::max(G, static_cast<Time>(std::llround(L_ns)));
  return logp::Params{L, o, G};
}

BspFit fit_bsp(ProcId p, core::ThreadPool* pool, const FitOptions& options) {
  BSPLOGP_EXPECTS(p >= 2);
  BSPLOGP_EXPECTS(options.barrier_reps >= 1 && options.exchange_reps >= 1);
  BspFit fit;
  fit.p = p;

  // l: barrier-only supersteps, with the constant spawn/teardown overhead
  // measured separately and subtracted.
  const int reps = options.barrier_reps;
  const double with_barriers = best_of(3, [&] {
    spawn(p, [reps](World& w) {
      for (int r = 0; r < reps; ++r) w.barrier();
    }, pool);
  });
  const double empty = best_of(3, [&] { spawn(p, [](World&) {}, pool); });
  fit.l_ns = std::max(0.0, (with_barriers - empty) / reps);

  // g: slope of exchange-superstep time in h (the barrier term cancels).
  double lo = exchange_ns(p, kHLo, options.exchange_reps, pool);
  double hi = exchange_ns(p, kHHi, options.exchange_reps, pool);
  for (int i = 1; i < 3; ++i) {
    lo = std::min(lo, exchange_ns(p, kHLo, options.exchange_reps, pool));
    hi = std::min(hi, exchange_ns(p, kHHi, options.exchange_reps, pool));
  }
  fit.g_ns = std::max(
      0.0, (hi - lo) / (static_cast<double>(options.exchange_reps) *
                        static_cast<double>(kHHi - kHLo)));
  return fit;
}

LogpFit fit_logp(ProcId p, core::ThreadPool* pool,
                 const FitOptions& options) {
  BSPLOGP_EXPECTS(p >= 2);
  BSPLOGP_EXPECTS(options.pingpong_reps >= 1 && options.flood_msgs >= 1);
  BSPLOGP_EXPECTS(options.overhead_reps >= 1);
  LogpFit fit;
  fit.p = p;

  // o: uncontended staging of one message (lock, push, unlock) — the
  // processor-occupied cost of a send with nobody racing for the queue.
  {
    std::mutex mu;
    std::deque<Message> queue;
    const int n = options.overhead_reps;
    const double total = best_of(3, [&] {
      for (int i = 0; i < n; ++i) {
        const std::lock_guard<std::mutex> lock(mu);
        queue.push_back(Message{0, 1, i});
      }
      queue.clear();
    });
    fit.o_ns = total / n;
  }

  // The traffic microbenchmarks run on the real executor, parameterized
  // with any valid model params (the model clock does not pace real
  // execution).
  const logp::Params model_params{};
  NativeLogpOptions run_options;
  run_options.pool = pool;

  // L: ping-pong; rtt = 2L + 2o for one-word messages.
  {
    const int reps = options.pingpong_reps;
    std::vector<logp::ProgramFn> programs;
    programs.emplace_back(
        [reps](logp::Proc& pr) { return ping_program(pr, reps); });
    programs.emplace_back(
        [reps](logp::Proc& pr) { return pong_program(pr, reps); });
    const double total = best_of(
        3, [&] { (void)run_logp(programs, model_params, run_options); });
    const double rtt = total / reps;
    fit.L_ns = std::max(0.0, rtt / 2 - 2 * fit.o_ns);
  }

  // G: sustained per-message cost flooding one destination.
  {
    const int n = options.flood_msgs;
    std::vector<logp::ProgramFn> programs;
    programs.emplace_back(
        [n](logp::Proc& pr) { return flood_send_program(pr, n); });
    programs.emplace_back(
        [n](logp::Proc& pr) { return flood_recv_program(pr, n); });
    const double total = best_of(
        3, [&] { (void)run_logp(programs, model_params, run_options); });
    fit.G_ns = std::max(fit.o_ns, total / n);
  }
  return fit;
}

}  // namespace bsplogp::native

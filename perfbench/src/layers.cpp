#include "layers.h"

#include <stdexcept>
#include <string_view>

#include "src/workload/apps.h"

namespace perfbench {

using namespace bsplogp;

logp::RunStats run_logp(ProcId p, const logp::Params& prm,
                        std::span<const logp::ProgramFn> progs, Ledger* lg,
                        logp::Machine::Options opt) {
  const logp::RunStats st = timed(lg, kLogpRun, [&] {
    logp::Machine machine(p, prm, opt);
    return logp::RunStats(machine.run(progs));
  });
  if (lg != nullptr) {
    lg->logp_events += st.events_processed;
    lg->logp_messages += st.messages;
    lg->logp_stalls += st.stall_events;
  }
  return st;
}

bsp::RunStats run_bsp(ProcId p, const bsp::Params& prm,
                      std::span<const std::unique_ptr<bsp::ProcProgram>> progs,
                      Ledger* lg) {
  bsp::RunStats st = timed(lg, kBspRun, [&] {
    bsp::Machine machine(p, prm);
    return machine.run(progs);
  });
  if (lg != nullptr) {
    lg->bsp_messages += st.messages;
    lg->bsp_supersteps += st.supersteps;
  }
  return st;
}

xsim::LogpOnBspReport run_logp_on_bsp(ProcId p, const logp::Params& prm,
                                      const xsim::LogpOnBspOptions& opt,
                                      std::span<const logp::ProgramFn> progs,
                                      Ledger* lg) {
  xsim::LogpOnBspReport rp = timed(lg, kLogpOnBspRun, [&] {
    xsim::LogpOnBsp sim(p, prm, opt);
    return sim.run(progs);
  });
  if (lg != nullptr) lg->logp_on_bsp_cycles += rp.bsp.supersteps;
  return rp;
}

xsim::BspOnLogpReport run_bsp_on_logp(
    ProcId p, const logp::Params& prm, xsim::BspOnLogpOptions opt,
    std::span<const std::unique_ptr<bsp::ProcProgram>> progs, Ledger* lg) {
  if (lg != nullptr) opt.engine.sink = lg->phase_sink;
  xsim::BspOnLogpReport rp = timed(lg, kBspOnLogpRun, [&] {
    xsim::BspOnLogp sim(p, prm, opt);
    return sim.run(progs);
  });
  if (lg != nullptr) {
    lg->bsp_on_logp_events += rp.logp.events_processed;
    // Every processor sorts r padded records in a superstep that sends.
    for (const auto& st : rp.steps) lg->bsp_on_logp_sort_keys += p * st.r;
  }
  return rp;
}

xsim::RandomizedRoutingReport run_route_randomized(
    const routing::HRelation& rel, const logp::Params& prm,
    const xsim::RandomizedRoutingOptions& opt, Ledger* lg) {
  return timed(lg, kRouteRandomizedRun,
               [&] { return xsim::route_randomized(rel, prm, opt); });
}

net::PacketSim::Result run_net_route(const net::PacketSim& sim,
                                     const routing::HRelation& rel,
                                     std::uint64_t route_seed, Ledger* lg) {
  net::PacketSim::Options opt;
  opt.seed = route_seed;
  const net::PacketSim::Result res =
      timed(lg, kNetRoute, [&] { return sim.route(rel, opt); });
  if (lg != nullptr) lg->net_hops += res.total_hops;
  return res;
}

routing::HRelation gen_regular(ProcId p, Time h, core::Rng& rng, Ledger* lg) {
  return timed(lg, kRoutingGen,
               [&] { return routing::random_regular(p, h, rng); });
}

std::vector<AppPoint> app_points(std::uint64_t seed) {
  std::vector<AppPoint> pts;
  const auto add = [&](const char* family, ProcId p, std::int64_t nx,
                       std::int64_t ny, int rounds) {
    AppPoint pt;
    pt.label = std::string(family) + " p=" + std::to_string(p) +
               " nx=" + std::to_string(nx) + " ny=" + std::to_string(ny);
    pt.entry = workload::find(family);
    pt.spec.p = p;
    pt.spec.nx = nx;
    pt.spec.ny = ny;
    pt.spec.rounds = rounds;
    pt.spec.seed = mix_seed(11, seed);
    std::string error;
    if (pt.entry == nullptr || !workload::validate(*pt.entry, pt.spec, &error))
      throw std::invalid_argument("app point " + pt.label + ": " + error);
    const std::string_view f = family;
    pt.oracle = f == "stencil-2d"    ? workload::stencil2d_expected(pt.spec)
                : f == "sample-sort" ? workload::samplesort_expected(pt.spec)
                                     : workload::bsf_expected(pt.spec);
    pts.push_back(std::move(pt));
  };
  for (const ProcId p : {4, 8, 16}) add("stencil-2d", p, 32, 24, 4);
  add("stencil-2d", 8, 64, 48, 4);
  for (const std::int64_t n : {256, 1024, 4096}) add("sample-sort", 8, n, 1, 1);
  add("sample-sort", 16, 4096, 1, 1);
  for (const std::int64_t n : {128, 512, 2048})
    add("bsf-iterative", 8, n, 1, 6);
  add("bsf-iterative", 16, 2048, 1, 6);
  // --deep
  add("stencil-2d", 16, 96, 64, 6);
  add("sample-sort", 16, 16384, 1, 1);
  add("bsf-iterative", 16, 8192, 1, 10);
  return pts;
}

void PhaseClock::run_begin(const trace::RunInfo& /*info*/) {
  open_.fill(0);
  current_ = -1;
}

void PhaseClock::run_end(Time /*finish*/) { close(Clock::now()); }

void PhaseClock::emit(const trace::Event& event) {
  const bool begin = event.kind == trace::EventKind::PhaseBegin;
  if (!begin && event.kind != trace::EventKind::PhaseEnd) return;
  const auto phase = static_cast<std::size_t>(event.a);
  const auto now = Clock::now();
  if (begin) {
    if (open_[phase]++ == 0) {
      close(now);
      current_ = static_cast<int>(phase);
      mark_ = now;
    }
  } else if (--open_[phase] == 0 && current_ == static_cast<int>(phase)) {
    close(now);
  }
}

void PhaseClock::close(Clock::time_point now) {
  if (current_ < 0) return;
  lg_.phase_seconds[static_cast<std::size_t>(current_)] +=
      std::chrono::duration<double>(now - mark_).count();
  current_ = -1;
}

}  // namespace perfbench

// Shared vocabulary of the suite benchmark: grid points and their checked
// outcomes, the per-layer ledger a traced pass fills, and one wrapper per
// layer entry point. Every call into a layer goes through a wrapper here,
// so a traced pass times each layer from outside, at its public boundary,
// and an untraced pass (null ledger) pays one pointer test per call.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/bsp/machine.h"
#include "src/logp/machine.h"
#include "src/net/packet_sim.h"
#include "src/routing/h_relation.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"
#include "src/xsim/bsp_on_logp.h"
#include "src/xsim/logp_on_bsp.h"
#include "src/xsim/randomized_routing.h"

namespace perfbench {

using bsplogp::ProcId;
using bsplogp::Time;
using bsplogp::Word;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Layers timed at their entry points. The pass layers partition a traced
/// pass (BspOnLogp's time is further split by SimPhase); the setup layers
/// are timed while the inputs are built.
enum Layer : int {
  kWorkloadGen,         // workload factories: programs for one run
  kLogpRun,             // direct logp::Machine construction + run
  kBspRun,              // direct bsp::Machine construction + run
  kLogpOnBspRun,        // xsim::LogpOnBsp construction + run
  kBspOnLogpRun,        // xsim::BspOnLogp construction + run
  kRouteRandomizedRun,  // xsim::route_randomized
  kNetRoute,            // net::PacketSim::route
  kNumPassLayers,
  kRoutingGen = kNumPassLayers,  // routing:: relation generators (setup)
  kNetBuild,                     // make_topology + PacketSim + diameter
  kNumLayers,
};

inline constexpr int kNumPhases = 5;  // trace::SimPhase values

/// Host seconds and work counts per layer, filled by one traced pass (or
/// one traced setup).
struct Ledger {
  std::array<double, kNumLayers> seconds{};
  /// BspOnLogp host seconds per SimPhase (part of seconds[kBspOnLogpRun]).
  std::array<double, kNumPhases> phase_seconds{};
  std::int64_t logp_events = 0;
  std::int64_t logp_messages = 0;
  std::int64_t logp_stalls = 0;
  std::int64_t bsp_messages = 0;
  std::int64_t bsp_supersteps = 0;
  std::int64_t logp_on_bsp_cycles = 0;
  std::int64_t bsp_on_logp_events = 0;
  std::int64_t bsp_on_logp_sort_keys = 0;
  std::int64_t net_hops = 0;
  /// Installed on every BspOnLogp run of the pass (phase host clock).
  bsplogp::trace::TraceSink* phase_sink = nullptr;
};

/// Runs f(); with a ledger, adds its host seconds to `layer`.
template <class F>
auto timed(Ledger* lg, Layer layer, F&& f) {
  if (lg == nullptr) return f();
  const auto t0 = Clock::now();
  auto result = f();
  lg->seconds[static_cast<std::size_t>(layer)] += seconds_since(t0);
  return result;
}

/// What one run of a grid point leaves behind for the checks.
struct Outcome {
  /// Model-visible results (what the source bench prints, plus verdict
  /// flags): the input of the point's digest. Engine-internal counters
  /// such as events_processed stay out.
  std::vector<std::int64_t> fields;
  /// Program outputs of the point's runs, compared against `want` (the
  /// serial oracle or closed form built at setup).
  std::vector<Word> got;
  const std::vector<Word>* want = nullptr;
  /// First executor verdict that failed (not completed, stuck, stalled
  /// where Theorem 2 forbids it, ...); empty when all held.
  std::string failure;

  void add(std::initializer_list<std::int64_t> values) {
    for (const std::int64_t v : values) fields.push_back(v);
  }
  void require(bool ok, const char* what) {
    if (!ok && failure.empty()) failure = what;
  }
};

/// One grid point of a source bench: inputs are built at setup, run() may
/// be called any number of times, from any thread.
struct Point {
  std::string label;
  std::function<Outcome(Ledger*)> run;
};

/// One source bench grid (or the part of it one executor runs). A parallel
/// pass runs each section as one pool batch, as the bench's sweep does.
using Section = std::vector<Point>;
using Workload = std::vector<Section>;

/// The per-point input stream of a source bench: at seed 0 it is the
/// bench's own constant, so seed 0 reproduces the suite's inputs exactly.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t bench_seed,
                                            std::uint64_t seed) {
  return bench_seed + seed * 0xd1342543de82ef95ULL;
}

/// One point of bench_app_crossover --deep: a registered application
/// family, its Spec, and its serial oracle (built at setup).
struct AppPoint {
  std::string label;
  const bsplogp::workload::Entry* entry = nullptr;
  bsplogp::workload::Spec spec;
  std::vector<Word> oracle;
};

/// The bench's 14 points, each Spec seeded from `seed`. Both workloads
/// share them: BspOnLogp runs the Theorem-2 leg, the other executors the
/// rest.
std::vector<AppPoint> app_points(std::uint64_t seed);

Workload build_bsp_on_logp(std::uint64_t seed, Ledger* setup);
Workload build_logp_on_bsp(std::uint64_t seed, Ledger* setup);
Workload build_netsim(std::uint64_t seed, Ledger* setup);

// ---- layer entry points ----------------------------------------------------

bsplogp::logp::RunStats run_logp(ProcId p, const bsplogp::logp::Params& prm,
                                 std::span<const bsplogp::logp::ProgramFn> progs,
                                 Ledger* lg,
                                 bsplogp::logp::Machine::Options opt = {});

bsplogp::bsp::RunStats run_bsp(
    ProcId p, const bsplogp::bsp::Params& prm,
    std::span<const std::unique_ptr<bsplogp::bsp::ProcProgram>> progs,
    Ledger* lg);

bsplogp::xsim::LogpOnBspReport run_logp_on_bsp(
    ProcId p, const bsplogp::logp::Params& prm,
    const bsplogp::xsim::LogpOnBspOptions& opt,
    std::span<const bsplogp::logp::ProgramFn> progs, Ledger* lg);

bsplogp::xsim::BspOnLogpReport run_bsp_on_logp(
    ProcId p, const bsplogp::logp::Params& prm,
    bsplogp::xsim::BspOnLogpOptions opt,
    std::span<const std::unique_ptr<bsplogp::bsp::ProcProgram>> progs,
    Ledger* lg);

bsplogp::xsim::RandomizedRoutingReport run_route_randomized(
    const bsplogp::routing::HRelation& rel, const bsplogp::logp::Params& prm,
    const bsplogp::xsim::RandomizedRoutingOptions& opt, Ledger* lg);

bsplogp::net::PacketSim::Result run_net_route(
    const bsplogp::net::PacketSim& sim, const bsplogp::routing::HRelation& rel,
    std::uint64_t route_seed, Ledger* lg);

/// routing::random_regular, timed as setup work.
bsplogp::routing::HRelation gen_regular(ProcId p, Time h,
                                        bsplogp::core::Rng& rng, Ledger* lg);

/// Host clock for BspOnLogp's protocol phases: the span of a phase runs
/// from the first processor entering it until the next phase is entered or
/// the last processor leaves it. The protocol keeps every processor on one
/// static schedule, so the spans are disjoint and their sum is the host
/// time the simulation spent inside phases.
class PhaseClock final : public bsplogp::trace::TraceSink {
 public:
  explicit PhaseClock(Ledger& lg) : lg_(lg) {}
  PhaseClock(const PhaseClock&) = delete;
  PhaseClock& operator=(const PhaseClock&) = delete;

  void run_begin(const bsplogp::trace::RunInfo& info) override;
  void run_end(Time finish) override;
  void emit(const bsplogp::trace::Event& event) override;

 private:
  void close(Clock::time_point now);

  Ledger& lg_;
  std::array<std::int64_t, kNumPhases> open_{};
  int current_ = -1;
  Clock::time_point mark_{};
};

}  // namespace perfbench

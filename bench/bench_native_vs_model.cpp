// Measured vs modeled: do the paper's cost formulas predict this machine?
//
// For each core count p the bench first FITS the machine constants the
// Culler way (src/native/fit.h): barrier supersteps give l, full-exchange
// slopes give g, staged microbenchmarks give (L, o, G). It then runs a
// panel of registry workloads on the native shared-memory backend
// (src/native) with a wall clock, prices the very same programs with the
// fitted parameters (bsp::Machine accounting / logp::Machine simulation at
// 1 step = 1 ns), and reports measured/predicted per (workload, model, p).
//
// A ratio near 1 means the model's formula transfers to real threads; a
// systematic drift is itself a result (the models deliberately ignore
// memory hierarchy and contention beyond their parameters — Section 2 of
// the paper). Everything here is wall-clock and machine-dependent by
// design, so this bench registers no jobs-determinism check and runs
// serially.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/bsp/machine.h"
#include "src/core/parallel.h"
#include "src/logp/machine.h"
#include "src/native/bsp_exec.h"
#include "src/native/fit.h"
#include "src/native/logp_exec.h"
#include "src/trace/sink.h"
#include "src/workload/workload.h"

namespace bsplogp {
namespace {

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

workload::Spec panel_spec(ProcId p, bool smoke) {
  workload::Spec spec;
  spec.p = p;
  spec.k = smoke ? 2 : 8;       // hotspot msgs/sender, relation degree h
  spec.rounds = smoke ? 2 : 8;  // ring-shift rounds, fuzz supersteps
  spec.seed = 42;
  return spec;
}

int run(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "native_vs_model");
  rep.use_workloads({"all-to-all", "ring-shift", "hotspot", "h-relation-step",
                     "fuzz-supersteps"});
  bench::Series& fits = rep.series(
      "fits", {"p", "l_ns", "g_ns", "L_ns", "o_ns", "G_ns"});
  bench::Series& rows = rep.series(
      "native_vs_model",
      {"workload", "model", "p", "measured_ns", "predicted_ns", "ratio"});
  if (rep.list()) return rep.finish();

  const std::vector<ProcId> core_counts =
      rep.smoke() ? std::vector<ProcId>{2} : std::vector<ProcId>{2, 4, 8};
  const int reps = rep.smoke() ? 3 : 9;

  native::FitOptions fit_options;
  if (rep.smoke()) {
    fit_options.barrier_reps = 50;
    fit_options.exchange_reps = 5;
    fit_options.pingpong_reps = 50;
    fit_options.flood_msgs = 500;
    fit_options.overhead_reps = 2000;
  }

  // One warm pool sized for the largest p, shared by fits and runs, so
  // thread start-up never pollutes a measurement.
  core::ThreadPool pool(static_cast<int>(core_counts.back()) - 1);

  // Native LogP emits from p threads at once; the Chrome trace sink is
  // single-threaded, so traced native runs go through the serializer.
  std::optional<trace::MutexSink> traced;
  if (rep.trace_sink() != nullptr) traced.emplace(rep.trace_sink());

  double log_ratio_sum = 0;
  int ratio_count = 0;

  for (const ProcId p : core_counts) {
    const native::BspFit bsp_fit = native::fit_bsp(p, &pool, fit_options);
    const native::LogpFit logp_fit = native::fit_logp(p, &pool, fit_options);
    fits.row({static_cast<std::int64_t>(p), bsp_fit.l_ns, bsp_fit.g_ns,
              logp_fit.L_ns, logp_fit.o_ns, logp_fit.G_ns});
    const bsp::Params bsp_params = bsp_fit.params();
    const logp::Params logp_params = logp_fit.params();
    const workload::Spec spec = panel_spec(p, rep.smoke());

    for (const workload::Entry& entry : workload::registry()) {
      const bool in_panel =
          entry.name == "all-to-all" || entry.name == "ring-shift" ||
          entry.name == "hotspot" || entry.name == "h-relation-step" ||
          entry.name == "fuzz-supersteps";
      if (!in_panel) continue;

      if (entry.logp) {
        const auto programs = entry.logp(spec);
        native::NativeLogpOptions options;
        options.pool = &pool;
        options.sink = traced ? &*traced : nullptr;
        std::vector<double> walls;
        for (int r = 0; r < reps; ++r)
          walls.push_back(native::run_logp(programs, logp_params, options)
                              .wall_ns);
        logp::Machine machine(p, logp_params);
        const double predicted =
            static_cast<double>(machine.run(programs).finish_time);
        const double measured = median(walls);
        const double ratio = measured / std::max(predicted, 1.0);
        rows.row({entry.name, "logp", static_cast<std::int64_t>(p), measured,
                  predicted, ratio});
        log_ratio_sum += std::log(ratio);
        ratio_count += 1;
      }

      if (entry.bsp) {
        // BSP programs are stateful: fresh instances every repetition.
        native::NativeBspOptions options;
        options.pool = &pool;
        options.sink = rep.trace_sink();
        options.params = bsp_params;
        std::vector<double> walls;
        double predicted = 0;
        for (int r = 0; r < reps; ++r) {
          const auto programs = entry.bsp(spec);
          const native::NativeBspStats stats =
              native::run_bsp(programs, options);
          walls.push_back(stats.wall_ns);
          // The native model accounting equals bsp::Machine::run's
          // (differentially tested), so it doubles as the prediction.
          predicted = static_cast<double>(stats.model.finish_time);
        }
        const double measured = median(walls);
        const double ratio = measured / std::max(predicted, 1.0);
        rows.row({entry.name, "bsp", static_cast<std::int64_t>(p), measured,
                  predicted, ratio});
        log_ratio_sum += std::log(ratio);
        ratio_count += 1;
      }
    }
  }

  rep.metric("geomean_measured_over_predicted",
             std::exp(log_ratio_sum / std::max(ratio_count, 1)));
  rep.metric("panel_rows", static_cast<std::int64_t>(ratio_count));
  return rep.finish();
}

}  // namespace
}  // namespace bsplogp

int main(int argc, char** argv) { return bsplogp::run(argc, argv); }

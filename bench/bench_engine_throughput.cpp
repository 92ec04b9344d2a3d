// Wall-clock throughput of the LogP discrete-event engine itself: how many
// engine events per second each scheduler core sustains, measured on the
// workloads the paper's experiments lean on. This is the perf trajectory
// anchor for the scheduler rewrite — the calendar/bucket queue
// (SchedulerKind::Bucket) versus the original priority-queue baseline
// (SchedulerKind::ReferenceHeap) — so BENCH_engine.json records events/sec,
// model finish times, and the bucket/heap speedup per workload.
//
// It also anchors two sweep-runner trajectories on a deterministic
// model-time grid:
//   * sweep_scaling — the grid run with --jobs 1 and --jobs max(2, hw),
//     model results asserted identical, both wall clocks recorded
//     (`sweep_speedup` = serial/parallel);
//   * micro_sweep — the grid tiled to growing sizes and run at jobs
//     {1, 2, hw}, recording grid points/sec per leg.
//
//   bench_engine_throughput --json BENCH_engine.json
#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/alloc_counter.h"
#include "src/core/parallel.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"

using namespace bsplogp;

namespace {

struct Workload {
  std::string name;
  logp::Params prm;
  ProcId p;
  logp::DeliverySchedule delivery;
  std::vector<logp::ProgramFn> progs;
};

struct Measurement {
  double events_per_sec = 0;
  std::int64_t events = 0;
  Time finish = 0;
  int reps = 0;
  // Steady-state allocator traffic per event across the timed loop, via
  // core::AllocCounter (-1 when the counting hooks are not linked, e.g.
  // sanitizer builds). The zero-allocation engine claim, as a trajectory
  // metric: any O(events) allocation regression shows up here long before
  // it dominates wall-clock.
  double allocs_per_event = -1;
  double bytes_per_event = -1;
};

Measurement measure_once(const Workload& w, logp::SchedulerKind sched,
                         double min_seconds) {
  logp::Machine::Options o;
  o.scheduler = sched;
  o.delivery = w.delivery;
  logp::Machine machine(w.p, w.prm, o);
  const std::span<const logp::ProgramFn> progs(w.progs);

  Measurement out;
  out.finish = machine.run(progs).finish_time;  // warmup (untimed)

  using clock = std::chrono::steady_clock;
  const auto alloc0 = core::AllocCounter::now();
  double elapsed = 0;
  while (elapsed < min_seconds) {
    const auto t0 = clock::now();
    const logp::RunStats& st = machine.run(progs);
    elapsed += std::chrono::duration<double>(clock::now() - t0).count();
    out.events += st.events_processed;
    out.reps += 1;
  }
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  if (core::AllocCounter::installed() && out.events > 0) {
    const auto d = core::AllocCounter::since(alloc0);
    out.allocs_per_event =
        static_cast<double>(d.allocs) / static_cast<double>(out.events);
    out.bytes_per_event =
        static_cast<double>(d.bytes) / static_cast<double>(out.events);
  }
  return out;
}

/// measure_once() under --repeat N: the median-throughput repetition wins,
/// so one preempted slice on a loaded runner cannot crater a trajectory
/// metric. Model results (finish, events/run) are identical across
/// repetitions by determinism; only the wall-clock rate varies.
Measurement measure(const Workload& w, logp::SchedulerKind sched,
                    double min_seconds, int repeat) {
  std::vector<Measurement> runs;
  runs.reserve(static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r)
    runs.push_back(measure_once(w, sched, min_seconds));
  std::sort(runs.begin(), runs.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.events_per_sec < b.events_per_sec;
            });
  return runs[runs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep(argc, argv, "engine_throughput");
  rep.use_workloads({"hotspot", "all-to-all"});
  auto& s = rep.series(
      "throughput",
      {"workload", "p", "events/run", "bucket ev/s", "heap ev/s", "speedup",
       "model finish"});
  auto& micro_series = rep.series(
      "micro_engine", {"p", "k", "events/run", "bucket ev/s", "model finish"});
  auto& sweep_series = rep.series(
      "sweep_scaling",
      {"grid points", "jobs", "wall s", "speedup", "model times equal"});
  auto& micro_sweep_series = rep.series(
      "micro_sweep", {"grid points", "jobs", "wall s", "points/s", "speedup"});
  if (rep.list()) return rep.finish();

  const double min_seconds = rep.smoke() ? 0.01 : 0.4;

  std::vector<Workload> workloads;
  if (rep.smoke()) {
    workloads.push_back(Workload{"hotspot", logp::Params{64, 1, 2}, 9,
                                 logp::DeliverySchedule::Earliest,
                                 workload::hotspot(9, 2)});
    workloads.push_back(Workload{"alltoall", logp::Params{16, 1, 2}, 8,
                                 logp::DeliverySchedule::Latest,
                                 workload::all_to_all(8)});
  } else {
    workloads.push_back(Workload{"hotspot", logp::Params{256, 1, 2}, 256,
                                 logp::DeliverySchedule::Earliest,
                                 workload::hotspot(256, 4)});
    workloads.push_back(Workload{"hotspot_smallcap", logp::Params{16, 1, 4},
                                 65, logp::DeliverySchedule::Latest,
                                 workload::hotspot(65, 8)});
    workloads.push_back(Workload{"alltoall", logp::Params{16, 1, 2}, 128,
                                 logp::DeliverySchedule::Latest,
                                 workload::all_to_all(128)});
  }

  std::cout << "Engine scheduler throughput: calendar/bucket queue vs the "
               "priority-queue baseline\n\n";
  for (const Workload& w : workloads) {
    const Measurement bucket =
        measure(w, logp::SchedulerKind::Bucket, min_seconds, rep.repeat());
    const Measurement heap = measure(w, logp::SchedulerKind::ReferenceHeap,
                                     min_seconds, rep.repeat());
    // Same seed + options => identical model results across schedulers.
    if (bucket.finish != heap.finish || bucket.events / bucket.reps !=
                                            heap.events / heap.reps) {
      std::cerr << "scheduler divergence on " << w.name << "!\n";
      return 1;
    }
    const double speedup = bucket.events_per_sec / heap.events_per_sec;
    s.row({w.name, w.p, bucket.events / bucket.reps,
           bench::Cell(bucket.events_per_sec, 0),
           bench::Cell(heap.events_per_sec, 0), bench::Cell(speedup, 2),
           bucket.finish});
    rep.metric("events_per_sec_bucket_" + w.name, bucket.events_per_sec);
    rep.metric("events_per_sec_heap_" + w.name, heap.events_per_sec);
    rep.metric("speedup_" + w.name, speedup);
    rep.metric("allocs_per_event_" + w.name, bucket.allocs_per_event);
    rep.metric("bytes_per_event_" + w.name, bucket.bytes_per_event);
    if (rep.trace_sink() != nullptr) {
      // One extra traced run per workload, outside the timed loops above:
      // the throughput numbers always measure the sink-free path.
      logp::Machine::Options o;
      o.scheduler = logp::SchedulerKind::Bucket;
      o.delivery = w.delivery;
      o.sink = rep.trace_sink();
      logp::Machine machine(w.p, w.prm, o);
      (void)machine.run(std::span<const logp::ProgramFn>(w.progs));
    }
  }
  s.print(std::cout);
  std::cout << "\nspeedup = bucket events/sec over the priority-queue "
               "baseline; both schedulers\nreplay the identical event "
               "sequence (RunStats are bit-identical per seed).\n\n";
  rep.metric("hardware_jobs", static_cast<std::int64_t>(core::hardware_jobs()));

  // Raw-engine micro series: one machine reused across runs at large p, so
  // this tracks exactly what the proc arena + ring buffers + bitmap rank
  // were built for — per-run cost with zero steady-state allocation. k
  // shrinks as p grows to keep the event count per run comparable.
  {
    struct MicroPoint {
      ProcId p;
      Time k;
    };
    const std::vector<MicroPoint> points =
        rep.smoke() ? std::vector<MicroPoint>{{17, 2}, {65, 1}, {129, 1}}
                    : std::vector<MicroPoint>{{256, 4}, {4096, 2}, {65536, 1}};
    for (const MicroPoint& mp : points) {
      const Workload w{"micro_hotspot", logp::Params{256, 1, 2}, mp.p,
                       logp::DeliverySchedule::Earliest,
                       workload::hotspot(mp.p, mp.k)};
      const Measurement m = measure(w, logp::SchedulerKind::Bucket,
                                    min_seconds / 2, rep.repeat());
      micro_series.row({mp.p, static_cast<std::int64_t>(mp.k),
                        m.events / m.reps, bench::Cell(m.events_per_sec, 0),
                        m.finish});
      rep.metric("micro_events_per_sec_p" + std::to_string(mp.p),
                 m.events_per_sec);
      rep.metric("micro_allocs_per_event_p" + std::to_string(mp.p),
                 m.allocs_per_event);
    }
    micro_series.print(std::cout);
    std::cout << "\nmicro_engine = bucket-scheduler hotspot throughput as p "
                 "grows; one machine is\nreused across runs, so the series "
                 "isolates steady-state engine cost.\n\n";
  }

  // The shared deterministic model-time grid behind both trajectory
  // sections below. Point results are a pure function of (p, k).
  struct Point {
    ProcId p;
    Time k;
  };
  std::vector<Point> grid;
  {
    const std::vector<ProcId> ps =
        rep.smoke() ? std::vector<ProcId>{9, 17}
                    : std::vector<ProcId>{17, 33, 65, 97, 129};
    const std::vector<Time> ks = rep.smoke() ? std::vector<Time>{1, 2}
                                             : std::vector<Time>{2, 4, 8, 16};
    for (const ProcId p : ps)
      for (const Time k : ks) grid.push_back(Point{p, k});
  }
  const std::function<Time(std::size_t)> compute_point = [&](std::size_t i) {
    logp::Machine m(grid[i].p, logp::Params{16, 1, 2});
    return m.run(workload::hotspot(grid[i].p, grid[i].k)).finish_time;
  };
  auto run_grid = [&](core::ThreadPool* pool, double* seconds) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    auto finishes =
        bench::SweepRunner(pool).map<Time>(grid.size(), compute_point);
    *seconds = std::chrono::duration<double>(clock::now() - t0).count();
    return finishes;
  };

  // SweepRunner scaling: --jobs 1 vs --jobs max(2, hw) on the grid, both
  // rows recorded. Model times must be identical (the sweep contract);
  // the wall-clock ratio is the `sweep_speedup` trajectory metric. The
  // parallel leg reuses one persistent pool — spawned before the clock
  // starts, exactly as a multi-grid bench would hold it — and each leg
  // gets one untimed warm-up pass so neither side pays first-touch costs.
  // Smoke runs stick to the harness --jobs value to stay cheap.
  {
    const int par_jobs = rep.smoke() ? std::max(2, rep.jobs())
                                     : std::max(2, core::hardware_jobs());
    core::ThreadPool pool(par_jobs - 1);
    double serial_s = 0, parallel_s = 0, warm = 0;
    (void)run_grid(nullptr, &warm);
    (void)run_grid(&pool, &warm);
    const auto serial = run_grid(nullptr, &serial_s);
    const auto parallel = run_grid(&pool, &parallel_s);
    const bool equal = serial == parallel;
    if (!equal) {
      std::cerr << "sweep model times diverge between --jobs 1 and --jobs "
                << par_jobs << "!\n";
      return 1;
    }
    const double sweep_speedup = serial_s / parallel_s;
    sweep_series.row({static_cast<std::int64_t>(grid.size()), 1,
                      bench::Cell(serial_s, 3), bench::Cell(1.0, 2),
                      equal ? "yes" : "NO"});
    sweep_series.row({static_cast<std::int64_t>(grid.size()), par_jobs,
                      bench::Cell(parallel_s, 3),
                      bench::Cell(sweep_speedup, 2), equal ? "yes" : "NO"});
    sweep_series.print(std::cout);
    rep.metric("sweep_speedup", sweep_speedup);
    rep.metric("sweep_jobs", static_cast<std::int64_t>(par_jobs));
    rep.metric("sweep_serial_s", serial_s);
    rep.metric("sweep_parallel_s", parallel_s);
    std::cout << "\nsweep_speedup = --jobs 1 wall-clock over --jobs "
              << par_jobs
              << " wall-clock for the same grid;\nmodel finish times are "
                 "asserted identical — parallelism never changes "
                 "results.\n\n";
  }

  // Sweep-size micro series: the base grid tiled to {20, 200, 2000} points
  // and run at jobs {1, 2, hw} (deduped). Small grids expose dispatch
  // overhead (chunk claims, pool hand-off), large ones the steady-state
  // point rate; together they locate where parallel sweeps start paying
  // off on a given host.
  {
    const std::vector<std::size_t> sizes =
        rep.smoke() ? std::vector<std::size_t>{4, 8}
                    : std::vector<std::size_t>{20, 200, 2000};
    std::vector<int> job_counts{1, 2};
    if (!rep.smoke() && core::hardware_jobs() > 2)
      job_counts.push_back(core::hardware_jobs());
    const std::function<Time(std::size_t)> tiled_point = [&](std::size_t i) {
      const std::size_t b = i % grid.size();
      logp::Machine m(grid[b].p, logp::Params{16, 1, 2});
      return m.run(workload::hotspot(grid[b].p, grid[b].k)).finish_time;
    };
    for (const std::size_t n : sizes) {
      double base_s = 0;
      for (const int jobs : job_counts) {
        // Each leg gets its own pool of jobs - 1 workers: for_ranges puts
        // every worker of a pool to work, so a shared wider pool would run
        // every leg at full width.
        using clock = std::chrono::steady_clock;
        core::ThreadPool pool(jobs - 1);
        core::ThreadPool* p = jobs > 1 ? &pool : nullptr;
        auto leg = [&](double* seconds) {
          const auto t0 = clock::now();
          const bench::SweepRunner r(p);
          auto out = r.map<Time>(n, tiled_point);
          *seconds =
              std::chrono::duration<double>(clock::now() - t0).count();
          return out;
        };
        double warm_s = 0, wall_s = 0;
        (void)leg(&warm_s);  // untimed warm-up
        (void)leg(&wall_s);
        if (jobs == 1) base_s = wall_s;
        const double pps = static_cast<double>(n) / wall_s;
        const double speedup = base_s / wall_s;
        micro_sweep_series.row({static_cast<std::int64_t>(n), jobs,
                                bench::Cell(wall_s, 4), bench::Cell(pps, 0),
                                bench::Cell(speedup, 2)});
        rep.metric("micro_sweep_pps_n" + std::to_string(n) + "_j" +
                       std::to_string(jobs),
                   pps);
      }
    }
    micro_sweep_series.print(std::cout);
    std::cout << "\nmicro_sweep = grid points/sec as the grid grows and jobs "
                 "scale; speedup is\nrelative to the jobs-1 leg of the same "
                 "grid size (persistent pool, warmed legs).\n";
  }

  return rep.finish();
}

// Workload logp-on-bsp: every direct logp::Machine and bsp::Machine run of
// the suite and every LogpOnBsp run. The BSP superstep exchange does real
// work only here, and the LogP engine runs program-driven traffic that
// stalls at hot spots.
#include <memory>
#include <string_view>

#include "layers.h"
#include "src/algo/logp_collectives.h"
#include "src/workload/workload.h"

namespace perfbench {

namespace {

using namespace bsplogp;

/// Closed forms of the program outputs the factories can capture.
std::vector<Word> all_to_all_sums(ProcId p) {
  std::vector<Word> v;
  for (ProcId i = 0; i < p; ++i)
    v.push_back(static_cast<Word>(p) * (p + 1) / 2 - (i + 1));
  return v;
}

/// Every CB family here combines the ids with Max.
std::vector<Word> cb_max(ProcId p) {
  return std::vector<Word>(static_cast<std::size_t>(p), p - 1);
}

/// The hot spot receives label i*100 + j from sender i, message j.
std::vector<Word> hotspot_sum(ProcId p, Time k) {
  const Word senders = p - 1;
  return {100 * k * senders * p / 2 + senders * k * (k - 1) / 2};
}

void append(std::vector<Word>& to, const std::vector<Word>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// `times` copies of `v`: the expected outputs of a point that runs the
/// same program on several executors.
std::vector<Word> repeat(const std::vector<Word>& v, int times) {
  std::vector<Word> out;
  for (int i = 0; i < times; ++i) append(out, v);
  return out;
}

/// A LogP program family with an output capture.
using LogpFamily = std::function<std::vector<logp::ProgramFn>(std::vector<Word>*)>;

std::vector<logp::ProgramFn> make(const LogpFamily& family,
                                  std::vector<Word>* out, Ledger* lg) {
  return timed(lg, kWorkloadGen, [&] { return family(out); });
}

/// Adds a point running one LogP program family on logp::Machine.
void add_logp_point(Section& sec, std::string label, ProcId p,
                    logp::Params prm, LogpFamily family,
                    std::vector<Word> want,
                    logp::Machine::Options opt = {}) {
  const auto expected =
      std::make_shared<const std::vector<Word>>(std::move(want));
  sec.push_back(
      {std::move(label), [=](Ledger* lg) {
         Outcome o;
         const auto progs = make(family, &o.got, lg);
         const auto st = run_logp(p, prm, progs, lg, opt);
         o.add({st.finish_time, st.stall_events});
         o.require(st.completed(), "LogP run did not complete");
         o.want = expected.get();
         return o;
       }});
}

/// bench_thm1_logp_on_bsp --deep: stall-free programs natively and on BSP.
Section thm1() {
  const logp::Params prm{16, 1, 4};
  Section sec;
  for (const ProcId p : {16, 64, 128}) {
    const std::pair<const char*, LogpFamily> families[] = {
        {"all-to-all",
         [p](std::vector<Word>* out) { return workload::all_to_all(p, out); }},
        {"cb-x4", [p](std::vector<Word>* out) {
           return workload::cb_rounds(p, 4, algo::ReduceOp::Max, {}, out);
         }}};
    for (const auto& [name, family] : families) {
      const auto want = std::make_shared<const std::vector<Word>>(
          repeat(std::string_view(name) == "all-to-all" ? all_to_all_sums(p)
                                                        : cb_max(p),
                 2));
      for (const Time gr : {1, 2, 4, 8, 16})
        for (const Time lr : {1, 4, 16, 64}) {
          xsim::LogpOnBspOptions opt;
          opt.bsp = bsp::Params{gr * prm.G, lr * prm.L};
          sec.push_back(
              {std::string("thm1 ") + name + " p=" + std::to_string(p) +
                   " g/G=" + std::to_string(gr) + " l/L=" + std::to_string(lr),
               [=, family = family](Ledger* lg) {
                 Outcome o;
                 std::vector<Word> out;
                 const auto native = run_logp(p, prm, make(family, &out, lg), lg);
                 append(o.got, out);
                 const auto rp = run_logp_on_bsp(p, prm, opt,
                                                 make(family, &out, lg), lg);
                 append(o.got, out);
                 o.add({native.finish_time, rp.bsp.finish_time,
                        rp.capacity_ok});
                 o.require(native.completed(), "LogP run did not complete");
                 o.require(!rp.stuck, "LogpOnBsp run stuck");
                 o.want = want.get();
                 return o;
               }});
        }
    }
  }
  return sec;
}

/// bench_stalling_hotspot: the naive (stalling) and slot-staged hot spot.
Section stalling_hotspot() {
  const logp::Params prm{16, 1, 4};
  Section sec;
  for (const ProcId p : {9, 17, 33, 65})
    for (const Time k : {1, 4}) {
      const auto want =
          std::make_shared<const std::vector<Word>>(repeat(hotspot_sum(p, k), 2));
      sec.push_back(
          {"hotspot p=" + std::to_string(p) + " k=" + std::to_string(k),
           [=](Ledger* lg) {
             Outcome o;
             for (const bool staged : {false, true}) {
               std::vector<Word> sum;
               const auto progs = timed(lg, kWorkloadGen, [&] {
                 return workload::hotspot(p, k, staged, &sum);
               });
               const auto st = run_logp(p, prm, progs, lg);
               o.add({st.finish_time, st.stall_events, st.stall_time_total,
                      st.stall_time_max});
               o.require(st.completed(), "LogP run did not complete");
               append(o.got, sum);
             }
             o.want = want.get();
             return o;
           }});
    }
  return sec;
}

/// bench_stalling_sim_gap: a stalling hot spot natively and on BSP.
Section stalling_sim_gap() {
  const logp::Params prm{16, 1, 4};
  const bsp::Params host{prm.G, prm.L};
  const Time k = 2;
  Section sec;
  for (const ProcId p : {9, 17, 33, 65}) {
    const auto want =
        std::make_shared<const std::vector<Word>>(repeat(hotspot_sum(p, k), 2));
    sec.push_back(
        {"sim_gap p=" + std::to_string(p), [=](Ledger* lg) {
           Outcome o;
           std::vector<Word> sum;
           const auto hot = [&] {
             return timed(lg, kWorkloadGen,
                          [&] { return workload::hotspot(p, k, false, &sum); });
           };
           const auto native = run_logp(p, prm, hot(), lg);
           append(o.got, sum);
           const auto rp =
               run_logp_on_bsp(p, prm, xsim::LogpOnBspOptions{host}, hot(), lg);
           append(o.got, sum);
           o.add({native.finish_time, rp.bsp.finish_time,
                  rp.preprocessed_time(host, p, prm.capacity()),
                  rp.stall_events, rp.overloaded_supersteps});
           o.require(native.completed(), "LogP run did not complete");
           o.require(!rp.stuck, "LogpOnBsp run stuck");
           o.want = want.get();
           return o;
         }});
  }
  return sec;
}

/// bench_prop1_cb_synch: one CB per capacity regime and p.
Section prop1() {
  Section sec;
  for (const logp::Params prm : {logp::Params{4, 1, 4}, logp::Params{8, 1, 4},
                                 logp::Params{16, 1, 2}, logp::Params{64, 1, 2}})
    for (const ProcId p : {4, 16, 64, 256, 1024}) {
      const auto want = std::make_shared<const std::vector<Word>>(cb_max(p));
      sec.push_back(
          {"prop1 L=" + std::to_string(prm.L) + " G=" + std::to_string(prm.G) +
               " p=" + std::to_string(p),
           [=](Ledger* lg) {
             Outcome o;
             const auto progs = timed(lg, kWorkloadGen, [&] {
               return workload::cb_rounds(p, 1, algo::ReduceOp::Max, {},
                                          &o.got);
             });
             const auto st = run_logp(p, prm, progs, lg);
             o.add({st.finish_time, st.stall_free()});
             o.require(st.completed(), "LogP run did not complete");
             o.require(st.stall_free(), "CB stalled");
             o.want = want.get();
             return o;
           }});
    }
  return sec;
}

/// bench_ablation_cb (a)-(c) run a CB over this many processors, except
/// (b), which sweeps p.
constexpr ProcId kAblationP = 256;

/// bench_ablation_cb (a): tree arity.
Section ablation_arity() {
  const ProcId big_p = kAblationP;
  Section arity;
  for (const logp::Params prm : {logp::Params{16, 1, 2}, logp::Params{8, 1, 4}})
    for (const ProcId a : {2, 4, 8, 16, 32})
      add_logp_point(arity,
                     "arity L=" + std::to_string(prm.L) + " G=" +
                         std::to_string(prm.G) + " arity=" + std::to_string(a),
                     big_p, prm,
                     [big_p, a](std::vector<Word>* out) {
                       return workload::cb_arity(big_p, a, out);
                     },
                     cb_max(big_p));
  return arity;
}

/// bench_ablation_cb (b): the d-ary tree CB next to the greedy pair.
Section ablation_greedy() {
  Section greedy;
  const logp::Params gprm{10, 2, 3};
  for (const ProcId p : {16, 64, 256, 1024}) {
    const auto want = std::make_shared<const std::vector<Word>>(repeat(cb_max(p), 2));
    greedy.push_back(
        {"greedy p=" + std::to_string(p), [=](Ledger* lg) {
           Outcome o;
           std::vector<Word> out;
           const LogpFamily families[] = {
               [&](std::vector<Word>* v) {
                 return workload::cb_arity(p, algo::cb_arity(gprm), v);
               },
               [&](std::vector<Word>* v) {
                 return workload::cb_greedy_pair(p, gprm, v);
               }};
           for (const auto& family : families) {
             const auto st = run_logp(p, gprm, make(family, &out, lg), lg);
             o.add({st.finish_time, st.stall_events});
             o.require(st.completed(), "LogP run did not complete");
             append(o.got, out);
           }
           o.want = want.get();
           return o;
         }});
  }
  return greedy;
}

/// bench_ablation_cb (c): delivery-policy sensitivity of the CB.
Section ablation_policy(std::uint64_t seed) {
  const ProcId big_p = kAblationP;
  Section policy;
  const logp::Params pprm{16, 1, 2};
  for (const auto& [schedule, name] :
       {std::pair{logp::DeliverySchedule::Latest, "latest"},
        std::pair{logp::DeliverySchedule::Earliest, "earliest"},
        std::pair{logp::DeliverySchedule::UniformRandom, "uniform"}}) {
    logp::Machine::Options opt;
    opt.delivery = schedule;
    opt.seed = mix_seed(3, seed);
    add_logp_point(policy, std::string("policy ") + name, big_p, pprm,
                   [big_p, pprm](std::vector<Word>* out) {
                     return workload::cb_arity(big_p, algo::cb_arity(pprm),
                                               out);
                   },
                   cb_max(big_p), opt);
  }
  return policy;
}

/// bench_ablation_cb (e): Theorem 1's cycle length.
Section ablation_cycle() {
  const ProcId p = 16;
  const logp::Params prm{16, 1, 2};
  Section sec;
  const auto want = std::make_shared<const std::vector<Word>>(all_to_all_sums(p));
  for (const Time cycle : {prm.L / 4, prm.L / 2, prm.L, 2 * prm.L}) {
    xsim::LogpOnBspOptions opt;
    opt.bsp = bsp::Params{prm.G, prm.L};
    opt.cycle_length = cycle;
    sec.push_back(
        {"cycle=" + std::to_string(cycle), [=](Ledger* lg) {
           Outcome o;
           const auto progs = timed(lg, kWorkloadGen,
                                    [&] { return workload::all_to_all(p, &o.got); });
           const auto rp = run_logp_on_bsp(p, prm, opt, progs, lg);
           o.add({rp.bsp.supersteps, rp.bsp.finish_time, rp.capacity_ok,
                  rp.max_cycle_fan_in});
           o.require(!rp.stuck, "LogpOnBsp run stuck");
           o.want = want.get();
           return o;
         }});
  }
  return sec;
}

/// bench_app_crossover --deep, BSP, LogP and Theorem-1 legs, each pinned
/// against the family's serial oracle.
Section app_legs(std::uint64_t seed) {
  const logp::Params lprm{16, 1, 4};
  const bsp::Params bprm{3, 5};
  Section sec;
  for (AppPoint& ap : app_points(seed)) {
    ap.oracle = repeat(ap.oracle, 3);
    const auto pt = std::make_shared<const AppPoint>(std::move(ap));
    sec.push_back({"app " + pt->label, [=](Ledger* lg) {
      Outcome o;
      std::vector<Word> out;
      workload::Spec spec = pt->spec;
      spec.result = &out;
      const auto bsp_progs =
          timed(lg, kWorkloadGen, [&] { return pt->entry->bsp(spec); });
      const auto b = run_bsp(spec.p, bprm, bsp_progs, lg);
      append(o.got, out);
      const auto logp_progs = [&] {
        return timed(lg, kWorkloadGen, [&] { return pt->entry->logp(spec); });
      };
      const auto l = run_logp(spec.p, lprm, logp_progs(), lg);
      append(o.got, out);
      const auto t1 = run_logp_on_bsp(spec.p, lprm,
                                      xsim::LogpOnBspOptions{bprm},
                                      logp_progs(), lg);
      append(o.got, out);
      o.add({b.finish_time, l.finish_time, t1.bsp.finish_time});
      o.require(b.all_finished() && !b.hit_superstep_limit,
                "BSP run did not finish");
      o.require(l.completed(), "LogP run did not complete");
      o.require(!t1.stuck, "LogpOnBsp run stuck");
      o.want = &pt->oracle;
      return o;
    }});
  }
  return sec;
}

}  // namespace

Workload build_logp_on_bsp(std::uint64_t seed, Ledger* /*setup*/) {
  Workload w;
  w.push_back(thm1());
  w.push_back(stalling_hotspot());
  w.push_back(stalling_sim_gap());
  w.push_back(prop1());
  w.push_back(ablation_arity());
  w.push_back(ablation_greedy());
  w.push_back(ablation_policy(seed));
  w.push_back(ablation_cycle());
  w.push_back(app_legs(seed));
  return w;
}

}  // namespace perfbench

// Workload bsp-on-logp: every BspOnLogp and route_randomized run of the
// suite. The LogP engine runs stall-free, protocol-clocked traffic here and
// the Sort phase dominates; bsp::Machine and net do no work.
#include <memory>

#include "layers.h"
#include "src/core/rng.h"
#include "src/workload/workload.h"

namespace perfbench {

namespace {

using namespace bsplogp;

/// The verdicts the benches apply to a Theorem-2 run: it completed and met
/// every protocol window, and where the bench reports it, never stalled.
void require_thm2(Outcome& o, const xsim::BspOnLogpReport& rp,
                  bool stall_free) {
  o.require(rp.logp.completed(), "BspOnLogp run did not complete");
  o.require(rp.schedule_violations == 0, "Theorem-2 schedule violated");
  if (stall_free) o.require(rp.logp.stall_free(), "Theorem-2 protocol stalled");
}

std::vector<std::unique_ptr<bsp::ProcProgram>> relation_programs(
    const routing::HRelation& rel, Ledger* lg) {
  return timed(lg, kWorkloadGen, [&] { return workload::relation_step(rel); });
}

/// bench_thm2_bsp_on_logp: one-superstep random h-relations.
Section thm2(std::uint64_t seed, Ledger* setup) {
  const logp::Params prm{16, 1, 2};
  Section sec;
  std::uint64_t index = 0;
  for (const ProcId p : {4, 8, 16, 64})
    for (const Time h : {1, 4, 16, 64, 256, 1024}) {
      core::Rng rng = core::rng_for_index(mix_seed(4242, seed), index++);
      const auto rel = std::make_shared<const routing::HRelation>(
          gen_regular(p, h, rng, setup));
      sec.push_back(
          {"thm2 p=" + std::to_string(p) + " h=" + std::to_string(h),
           [rel, p, prm](Ledger* lg) {
             const auto progs = relation_programs(*rel, lg);
             const auto rp = run_bsp_on_logp(p, prm, {}, progs, lg);
             Time ref = 0;
             for (const auto& st : rp.steps)
               ref += st.w_max + prm.G * st.h + prm.L;
             const auto& s0 = rp.steps.front();
             Outcome o;
             o.add({rp.logp.finish_time, ref, s0.r, s0.s, s0.h,
                    rp.logp.stall_free(), rp.schedule_violations});
             require_thm2(o, rp, true);
             return o;
           }});
    }
  return sec;
}

/// bench_sorting_crossover --deep: each relation routed with the sort
/// forced to bitonic, then to Columnsort.
Section sorting(std::uint64_t seed, Ledger* setup) {
  const ProcId p = 8;
  const logp::Params prm{16, 1, 2};
  Section sec;
  std::uint64_t index = 0;
  for (const Time r : {1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096}) {
    core::Rng rng = core::rng_for_index(mix_seed(31, seed), index++);
    const auto rel = std::make_shared<const routing::HRelation>(
        gen_regular(p, r, rng, setup));
    sec.push_back(
        {"sorting r=" + std::to_string(r), [rel, p, prm](Ledger* lg) {
           Outcome o;
           for (const auto method :
                {xsim::SortMethod::Bitonic, xsim::SortMethod::Columnsort}) {
             const auto progs = relation_programs(*rel, lg);
             xsim::BspOnLogpOptions opt;
             opt.sort = method;
             const auto rp = run_bsp_on_logp(p, prm, opt, progs, lg);
             o.add({rp.logp.finish_time, rp.logp.stall_free(),
                    rp.schedule_violations});
             require_thm2(o, rp, true);
           }
           return o;
         }});
  }
  return sec;
}

/// bench_thm3_randomized: 20 relations per point through the randomized
/// batch protocol. Stalls are a measured outcome here, not a failure.
Section thm3(std::uint64_t seed, Ledger* setup) {
  const ProcId p = 32;
  const int trials = 20;
  Section sec;
  std::uint64_t index = 0;
  for (const logp::Params prm :
       {logp::Params{8, 1, 2}, logp::Params{16, 1, 2}, logp::Params{64, 1, 2}})
    for (const Time h : {8, 32, 128}) {
      core::Rng rng = core::rng_for_index(mix_seed(9, seed), index++);
      auto rels = std::make_shared<std::vector<routing::HRelation>>();
      for (int t = 0; t < trials; ++t)
        rels->push_back(gen_regular(p, h, rng, setup));
      sec.push_back(
          {"thm3 L=" + std::to_string(prm.L) + " h=" + std::to_string(h),
           [rels, prm, seed](Ledger* lg) {
             Outcome o;
             for (std::size_t t = 0; t < rels->size(); ++t) {
               xsim::RandomizedRoutingOptions opt;
               opt.oversample = 2.0;
               opt.seed = mix_seed(1000 + t, seed);
               const auto& rel = (*rels)[t];
               const auto rp = run_route_randomized(rel, prm, opt, lg);
               o.add({rp.clean(), rp.logp.stall_events, rp.leftover,
                      rp.protocol_time()});
               o.require(rp.logp.completed(), "randomized routing stuck");
               o.require(std::cmp_equal(rp.logp.messages, rel.size()),
                         "randomized routing lost a message");
             }
             return o;
           }});
    }
  return sec;
}

/// bench_ablation_cb (d): the same relation routed on the global cycle
/// clock and free-running (which may stall by design).
Section ablation_clocked(std::uint64_t seed, Ledger* setup) {
  const logp::Params prm{16, 1, 2};
  Section sec;
  std::uint64_t index = 0;
  for (const ProcId p : {8, 16})
    for (const bool regular : {true, false}) {
      core::Rng rng = core::rng_for_index(mix_seed(71, seed), index++);
      const auto rel = std::make_shared<const routing::HRelation>(
          regular ? gen_regular(p, 32, rng, setup)
                  : timed(setup, kRoutingGen,
                          [&] { return routing::hotspot(p, 0, 8); }));
      sec.push_back(
          {std::string("clocked p=") + std::to_string(p) +
               (regular ? " regular" : " fan-in"),
           [rel, p, prm](Ledger* lg) {
             Outcome o;
             for (const bool clocked : {true, false}) {
               const auto progs = relation_programs(*rel, lg);
               xsim::BspOnLogpOptions opt;
               opt.clocked_cycles = clocked;
               const auto rp = run_bsp_on_logp(p, prm, opt, progs, lg);
               o.add({rp.logp.finish_time, rp.logp.stall_events});
               if (clocked)
                 require_thm2(o, rp, true);
               else
                 o.require(rp.logp.completed(), "free-running run stuck");
             }
             return o;
           }});
    }
  return sec;
}

/// bench_app_crossover --deep, Theorem-2 leg: the BSP programs hosted on
/// LogP, pinned against the family's serial oracle.
Section app_thm2(std::uint64_t seed) {
  const logp::Params prm{16, 1, 4};
  Section sec;
  for (AppPoint& ap : app_points(seed)) {
    const auto pt = std::make_shared<const AppPoint>(std::move(ap));
    sec.push_back({"app " + pt->label, [pt, prm](Ledger* lg) {
      std::vector<Word> got;
      workload::Spec spec = pt->spec;
      spec.result = &got;
      const auto progs =
          timed(lg, kWorkloadGen, [&] { return pt->entry->bsp(spec); });
      const auto rp = run_bsp_on_logp(spec.p, prm, {}, progs, lg);
      Outcome o;
      o.add({rp.logp.finish_time});
      require_thm2(o, rp, false);
      o.got = std::move(got);
      o.want = &pt->oracle;
      return o;
    }});
  }
  return sec;
}

}  // namespace

Workload build_bsp_on_logp(std::uint64_t seed, Ledger* setup) {
  Workload w;
  w.push_back(thm2(seed, setup));
  w.push_back(sorting(seed, setup));
  w.push_back(thm3(seed, setup));
  w.push_back(ablation_clocked(seed, setup));
  w.push_back(app_thm2(seed));
  return w;
}

}  // namespace perfbench

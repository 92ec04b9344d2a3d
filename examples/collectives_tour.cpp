// A tour of the LogP collective library (Section 4.1 and the Karp-et-al
// algorithms the paper cites): CB, barrier, tree and greedy broadcast,
// time-reversed reduction, prefix scan, scatter and gather — each with its
// exact model-time cost on the same machine. Exits 1 (after printing) if
// any processor's CB sum misses the "(expect ...)" value.
#include <algorithm>
#include <iostream>

#include "src/algo/logp_broadcast_opt.h"
#include "src/algo/logp_collectives.h"
#include "src/algo/mailbox.h"
#include "src/core/table.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"

using namespace bsplogp;

namespace {

constexpr Word kCbSum = 2080;  // 1 + 2 + ... + 64

struct Row {
  std::string name;
  Time time = 0;
  std::int64_t messages = 0;
  bool stall_free = true;
  std::string result;
};

template <typename MakeProgs>
Row run(const std::string& name, ProcId p, const logp::Params& prm,
        MakeProgs make, std::string result) {
  logp::Machine m(p, prm);
  const logp::RunStats st = m.run(make());
  return Row{name, st.finish_time, st.messages, st.stall_free(),
             std::move(result)};
}

}  // namespace

int main() {
  const ProcId p = 64;
  const logp::Params prm{16, 1, 4};  // capacity 4
  std::cout << "LogP collectives on p=" << p << ", L=16 o=1 G=4\n\n";

  const algo::BroadcastSchedule sched =
      algo::optimal_broadcast_schedule(p, prm);
  std::vector<Row> rows;

  std::vector<Word> cb_results;
  rows.push_back(run("combine_broadcast (sum)", p, prm, [&] {
    // The registry's cb-rounds family, contribution i+1 per processor.
    return workload::cb_rounds(
        p, /*rounds=*/1, algo::ReduceOp::Sum,
        [](ProcId i) { return static_cast<Word>(i) + 1; }, &cb_results);
  }, "sum 1..64 = 2080"));

  rows.push_back(run("barrier", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i](logp::Proc& pr) -> logp::Task<> {
        co_await pr.compute((i * 13) % 50);  // staggered joins
        algo::Mailbox mb(pr);
        co_await algo::barrier(mb);
      });
    return progs;
  }, "releases after last join"));

  rows.push_back(run("tree_broadcast", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::tree_broadcast(mb, i == 0 ? 42 : 0);
      });
    return progs;
  }, "42 everywhere"));

  rows.push_back(run("broadcast_opt (greedy)", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &sched](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::broadcast_opt(mb, i == 0 ? 42 : 0, sched);
      });
    return progs;
  }, "42 everywhere"));

  rows.push_back(run("reduce_opt (reversed greedy)", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &sched](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::reduce_opt(mb, i + 1, algo::ReduceOp::Sum,
                                        sched);
      });
    return progs;
  }, "2080 at the root"));

  rows.push_back(run("prefix_scan (sum)", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::prefix_scan(mb, i + 1, algo::ReduceOp::Sum);
      });
    return progs;
  }, "proc i gets (i+1)(i+2)/2"));

  std::vector<Word> values(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    values[static_cast<std::size_t>(i)] = 100 + i;
  rows.push_back(run("scatter", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([&values](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::scatter(mb, values);
      });
    return progs;
  }, "proc i gets 100+i"));

  rows.push_back(run("gather (staggered)", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::gather(mb, i, /*start=*/0);
      });
    return progs;
  }, "root collects 0..63"));

  rows.push_back(run("gather (burst, stalls)", p, prm, [&] {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        (void)co_await algo::gather(mb, i);
      });
    return progs;
  }, "same data, Stalling Rule pays"));

  core::Table table({"collective", "model time", "messages", "stall-free",
                     "result"});
  for (const Row& r : rows)
    table.add_row({r.name, core::fmt(r.time), core::fmt(r.messages),
                   r.stall_free ? "yes" : "no", r.result});
  table.print(std::cout);
  std::cout << "\nCB sanity: " << cb_results.front() << " (expect "
            << kCbSum << "); "
            << "T_CB bound (Prop. 2 shape): "
            << algo::cb_time_bound(prm, p) << "\n";
  if (std::all_of(cb_results.begin(), cb_results.end(),
                  [](Word v) { return v == kCbSum; }))
    return 0;
  std::cerr << "collectives_tour: a processor's CB sum is not " << kCbSum
            << "\n";
  return 1;
}

// A tour of the LogP collective library (Section 4.1 and the Karp-et-al
// algorithms the paper cites): CB, barrier, tree and greedy broadcast,
// time-reversed reduction, prefix scan, scatter and gather — each with its
// exact model-time cost on the same machine. Every row's "result" is
// checked against what each processor's collective returned; main exits 1
// (after printing) and names each row that missed.
#include <algorithm>
#include <iostream>
#include <utility>

#include "src/algo/logp_broadcast_opt.h"
#include "src/algo/logp_collectives.h"
#include "src/algo/mailbox.h"
#include "src/core/table.h"
#include "src/logp/machine.h"
#include "src/workload/workload.h"

using namespace bsplogp;

namespace {

constexpr Word kSum = 2080;  // 1 + 2 + ... + 64, what CB and reduce_opt sum
constexpr Word kUnset = -1;  // no collective here returns it

/// What the processors' collectives returned: program i stores its value
/// at [i] (gather stores the root's whole vector).
using Results = std::vector<Word>;

struct Row {
  std::string name;
  Time time = 0;
  std::int64_t messages = 0;
  bool stall_free = true;
  std::string result;
  bool ok = false;  // the returned values match `result`
};

/// Runs make(got)'s programs, then asks check(got) whether they computed
/// what the row's `result` says.
template <typename MakeProgs, typename Check>
Row run(const std::string& name, ProcId p, const logp::Params& prm,
        MakeProgs make, std::string result, Check check) {
  Results got(static_cast<std::size_t>(p), kUnset);
  logp::Machine m(p, prm);
  const logp::RunStats st = m.run(make(got));
  return Row{name, st.finish_time, st.messages, st.stall_free(),
             std::move(result), check(got)};
}

/// True iff got[i] == want(i) for every i.
template <typename Want>
bool every(const Results& got, Want want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != want(static_cast<Word>(i))) return false;
  return true;
}

Word& at(Results& got, ProcId i) { return got[static_cast<std::size_t>(i)]; }

}  // namespace

int main() {
  const ProcId p = 64;
  const logp::Params prm{16, 1, 4};  // capacity 4
  std::cout << "LogP collectives on p=" << p << ", L=16 o=1 G=4\n\n";

  const algo::BroadcastSchedule sched =
      algo::optimal_broadcast_schedule(p, prm);
  std::vector<Row> rows;

  std::vector<Word> cb_results;
  rows.push_back(run("combine_broadcast (sum)", p, prm, [&](Results&) {
    // The registry's cb-rounds family, contribution i+1 per processor.
    return workload::cb_rounds(
        p, /*rounds=*/1, algo::ReduceOp::Sum,
        [](ProcId i) { return static_cast<Word>(i) + 1; }, &cb_results);
  }, "sum 1..64 = 2080", [&](const Results&) {
    return every(cb_results, [](Word) { return kSum; });
  }));

  // joined[i] and got[i]: the model times processor i enters and leaves
  // the barrier.
  Results joined(static_cast<std::size_t>(p), kUnset);
  rows.push_back(run("barrier", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &got, &joined](logp::Proc& pr) -> logp::Task<> {
        co_await pr.compute((i * 13) % 50);  // staggered joins
        at(joined, i) = pr.now();
        algo::Mailbox mb(pr);
        co_await algo::barrier(mb);
        at(got, i) = pr.now();
      });
    return progs;
  }, "releases after last join", [&](const Results& got) {
    const Word last = *std::max_element(joined.begin(), joined.end());
    return last != kUnset &&
           std::all_of(got.begin(), got.end(),
                       [last](Word left) { return left >= last; });
  }));

  auto everywhere = [](Word v) {
    return [v](const Results& got) {
      return every(got, [v](Word) { return v; });
    };
  };
  rows.push_back(run("tree_broadcast", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        at(got, i) = co_await algo::tree_broadcast(mb, i == 0 ? 42 : 0);
      });
    return progs;
  }, "42 everywhere", everywhere(42)));

  rows.push_back(run("broadcast_opt (greedy)", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &sched, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        at(got, i) =
            co_await algo::broadcast_opt(mb, i == 0 ? 42 : 0, sched);
      });
    return progs;
  }, "42 everywhere", everywhere(42)));

  rows.push_back(run("reduce_opt (reversed greedy)", p, prm,
                     [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &sched, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        at(got, i) = co_await algo::reduce_opt(mb, i + 1,
                                               algo::ReduceOp::Sum, sched);
      });
    return progs;
  }, "2080 at the root", [](const Results& got) {
    return got.front() == kSum;
  }));

  rows.push_back(run("prefix_scan (sum)", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        at(got, i) =
            co_await algo::prefix_scan(mb, i + 1, algo::ReduceOp::Sum);
      });
    return progs;
  }, "proc i gets (i+1)(i+2)/2", [](const Results& got) {
    return every(got, [](Word i) { return (i + 1) * (i + 2) / 2; });
  }));

  std::vector<Word> values(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i)
    values[static_cast<std::size_t>(i)] = 100 + i;
  rows.push_back(run("scatter", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &values, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        at(got, i) = co_await algo::scatter(mb, values);
      });
    return progs;
  }, "proc i gets 100+i", [](const Results& got) {
    return every(got, [](Word i) { return 100 + i; });
  }));

  // Gather returns the vector indexed by source at the root alone.
  auto root_collects_ids = [p](const Results& got) {
    return std::cmp_equal(got.size(), p) &&
           every(got, [](Word i) { return i; });
  };
  rows.push_back(run("gather (staggered)", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        auto v = co_await algo::gather(mb, i, /*start=*/0);
        if (i == 0) got = std::move(v);
      });
    return progs;
  }, "root collects 0..63", root_collects_ids));

  rows.push_back(run("gather (burst, stalls)", p, prm, [&](Results& got) {
    std::vector<logp::ProgramFn> progs;
    for (ProcId i = 0; i < p; ++i)
      progs.emplace_back([i, &got](logp::Proc& pr) -> logp::Task<> {
        algo::Mailbox mb(pr);
        auto v = co_await algo::gather(mb, i);
        if (i == 0) got = std::move(v);
      });
    return progs;
  }, "same data, Stalling Rule pays", root_collects_ids));

  core::Table table({"collective", "model time", "messages", "stall-free",
                     "result"});
  for (const Row& r : rows)
    table.add_row({r.name, core::fmt(r.time), core::fmt(r.messages),
                   r.stall_free ? "yes" : "no", r.result});
  table.print(std::cout);
  std::cout << "\nCB sanity: " << cb_results.front() << " (expect "
            << kSum << "); "
            << "T_CB bound (Prop. 2 shape): "
            << algo::cb_time_bound(prm, p) << "\n";
  int status = 0;
  for (const Row& r : rows)
    if (!r.ok) {
      std::cerr << "collectives_tour: " << r.name << " missed \"" << r.result
                << "\"\n";
      status = 1;
    }
  return status;
}

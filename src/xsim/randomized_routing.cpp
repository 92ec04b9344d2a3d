#include "src/xsim/randomized_routing.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/algo/mailbox.h"
#include "src/core/contracts.h"
#include "src/core/rng.h"

namespace bsplogp::xsim {

namespace {

using algo::Channel;

}  // namespace

RandomizedRoutingReport route_randomized(const routing::HRelation& rel,
                                         logp::Params params,
                                         RandomizedRoutingOptions opt) {
  params.validate();
  BSPLOGP_EXPECTS(opt.oversample >= 1.0);
  const ProcId p = rel.nprocs();
  const Time h = std::max<Time>(rel.degree(), 1);
  const Time cap = params.capacity();
  const Time rounds =
      std::max<Time>(1, static_cast<Time>(std::ceil(
                            opt.oversample * static_cast<double>(h) /
                            static_cast<double>(cap))));
  const Time round_len = 2 * (params.L + params.o);

  // Distribute the relation: per-processor send lists and receive counts.
  std::vector<std::vector<Message>> sends(static_cast<std::size_t>(p));
  std::vector<Time> in_count(static_cast<std::size_t>(p), 0);
  for (const Message& m : rel.messages()) {
    sends[static_cast<std::size_t>(m.src)].push_back(m);
    in_count[static_cast<std::size_t>(m.dst)] += 1;
  }

  auto leftover_total = std::make_shared<std::int64_t>(0);
  core::Rng seeder(opt.seed);

  std::vector<logp::ProgramFn> progs;
  progs.reserve(static_cast<std::size_t>(p));
  for (ProcId i = 0; i < p; ++i) {
    const std::uint64_t proc_seed = seeder();
    progs.emplace_back([&sends, &in_count, leftover_total, proc_seed, rounds,
                        round_len, cap, i](logp::Proc& pr) -> logp::Task<> {
      // Step 1: independent uniform batch per message.
      core::Rng rng(proc_seed);
      std::vector<std::vector<Message>> batch(
          static_cast<std::size_t>(rounds));
      for (const Message& m : sends[static_cast<std::size_t>(i)])
        batch[rng.below(static_cast<std::uint64_t>(rounds))].push_back(m);

      // Step 2: R rounds of 2(L+o) steps; up to cap messages per round.
      std::vector<Message> leftover;
      for (Time j = 0; j < rounds; ++j) {
        co_await pr.wait_until(j * round_len);
        auto& b = batch[static_cast<std::size_t>(j)];
        Time quota = cap;
        for (const Message& m : b) {
          if (quota == 0) {
            leftover.push_back(m);
            continue;
          }
          quota -= 1;
          co_await pr.send(m.dst, m.payload, m.tag, 0, Channel::kData);
        }
      }
      // Step 3: cleanup — may stall, which the Stalling Rule resolves.
      *leftover_total += static_cast<std::int64_t>(leftover.size());
      for (const Message& m : leftover)
        co_await pr.send(m.dst, m.payload, m.tag, 0, Channel::kData);

      // Drain: the receive count is known in advance (theorem hypothesis).
      for (Time k = 0; k < in_count[static_cast<std::size_t>(i)]; ++k)
        (void)co_await pr.recv();
    });
  }

  logp::Machine machine(p, params, opt.engine);
  RandomizedRoutingReport report;
  report.logp = machine.run(progs);
  report.rounds = rounds;
  report.h = h;
  report.leftover = *leftover_total;
  return report;
}

}  // namespace bsplogp::xsim

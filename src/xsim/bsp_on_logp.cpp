#include "src/xsim/bsp_on_logp.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "src/algo/logp_collectives.h"
#include "src/algo/mailbox.h"
#include "src/core/contracts.h"
#include "src/routing/bitonic.h"
#include "src/routing/columnsort.h"

namespace bsplogp::xsim {

namespace {

using algo::Channel;
using algo::combine_broadcast;
using algo::Mailbox;
using algo::ReduceOp;
using algo::tree_broadcast;
using logp::Proc;
using logp::Task;

/// A message-in-flight of the routing protocol: key is the destination
/// (p = dummy), src the BSP sender, payload/tag the BSP message's contents.
struct Record {
  Word key = 0;
  Word payload = 0;
  std::int32_t tag = 0;
  ProcId src = 0;
};

bool record_less(const Record& a, const Record& b) {
  return std::tie(a.key, a.payload, a.tag, a.src) <
         std::tie(b.key, b.payload, b.tag, b.src);
}

/// Sort traffic carries (key, BSP source) packed in the aux header word.
Word pack_aux(Word key, ProcId src) {
  return (key << 32) | static_cast<Word>(static_cast<std::uint32_t>(src));
}
Record unpack_record(const Message& m) {
  return Record{m.aux >> 32, m.payload, m.tag,
                static_cast<ProcId>(m.aux & 0xffffffff)};
}

// Sort-traffic channels: one per network round so that deliveries from
// adjacent rounds can never be confused, whatever their transit order.
constexpr std::int32_t kChSortBase = -1000;    // bitonic round k: base - k
constexpr std::int32_t kChColDeal = -1500;     // columnsort redistributions
constexpr std::int32_t kChColUndeal = -1501;
constexpr std::int32_t kChColBoundA = -1502;
constexpr std::int32_t kChColBoundB = -1503;
// Control tags on Channel::kControl.
constexpr std::int32_t kTagLastKey = 1;
constexpr std::int32_t kTagExclScan = 2;
constexpr std::int32_t kTagFirstKey = 3;
constexpr std::int32_t kTagScanBase = 100;  // scan round k: base + k

/// Cost of sequentially sorting n records by destination key (keys in
/// [0, p]): Radixsort passes min(log n, ceil(log p / log n)), as the paper
/// charges in Section 4.2 — O(n) once n = p^Theta(1).
Time seq_sort_charge(Time n, ProcId p) {
  if (n <= 1) return 1;
  const int logn = ceil_log2(n + 1);
  const int logp = ceil_log2(static_cast<Time>(p) + 1);
  const int passes = std::max(1, (logp + logn - 1) / logn);
  return n * std::min(logn, passes);
}

/// Cost of merging two sorted runs of n records total: linear, as the
/// paper charges for the AKS merge-split steps.
Time merge_charge(Time n) { return n + 1; }

/// Conservative window for one merge-split exchange of r records per side:
/// send r (paced G), receive r (deliveries within L, acquisitions paced G
/// after the sends), merge 2r.
Time exchange_window(Time r, const logp::Params& prm) {
  return 2 * prm.o + 2 * r * prm.G + prm.L + merge_charge(2 * r) + 8;
}

/// Conservative window for a columnsort redistribution: p groups of q
/// G-spaced slots, then receive up to r and radix-sort.
Time redist_window(Time r, Time q, ProcId p, const logp::Params& prm) {
  return 2 * prm.o + (static_cast<Time>(p) * q + r) * prm.G + prm.L +
         seq_sort_charge(r, p) + 8;
}

/// Conservative window for one boundary phase (send/receive up to r
/// records with a neighbor and radix-sort the r-record window).
Time boundary_window(Time r, ProcId p, const logp::Params& prm) {
  return 2 * prm.o + 2 * r * prm.G + prm.L + seq_sort_charge(r, p) + 8;
}

/// Window for a single-message neighbor exchange (the shifts and scan
/// rounds of the receive-degree computation).
Time control_window(const logp::Params& prm) {
  return 2 * (prm.L + 2 * prm.o) + 2 * prm.G + 4;
}


struct Shared {
  ProcId p = 0;
  logp::Params prm;
  BspOnLogpOptions opt;
  /// Same sink the LogP engine reports to (opt.engine.sink): the protocol
  /// coroutines add PhaseBegin/PhaseEnd markers for the superstep
  /// structure on top of the engine's message-level events.
  trace::TraceSink* sink = nullptr;

  void phase_begin(ProcId proc, Time t, trace::SimPhase ph,
                   std::int64_t step) {
    if (sink != nullptr)
      sink->emit(trace::Event::phase_begin(proc, t, ph, step));
  }
  void phase_end(ProcId proc, Time t, trace::SimPhase ph,
                 std::int64_t step) {
    if (sink != nullptr)
      sink->emit(trace::Event::phase_end(proc, t, ph, step));
  }
  // Host-side aggregation; the engine is single-threaded so shared writes
  // from the per-processor coroutines are safe.
  std::vector<BspOnLogpReport::SuperstepInfo> steps;
  std::int64_t schedule_violations = 0;
  // Precomputed bitonic matchings: partner_keep_low[round][proc].
  std::vector<std::vector<std::pair<ProcId, bool>>> bitonic_partners;

  BspOnLogpReport::SuperstepInfo& info(std::int64_t step) {
    if (std::cmp_less_equal(steps.size(), step))
      steps.resize(static_cast<std::size_t>(step) + 1);
    return steps[static_cast<std::size_t>(step)];
  }
};

enum class Method { Bitonic, Columnsort };

/// Deterministic sort-method choice (identical on every processor).
std::pair<Method, Time> choose_sort(const Shared& sh, Time r_raw) {
  const Time thresh =
      2 * static_cast<Time>(sh.p - 1) * static_cast<Time>(sh.p - 1);
  auto pad_col = [&](Time r) {
    r = std::max<Time>(std::max(r, thresh), 1);
    return ceil_div(r, sh.p) * sh.p;
  };
  switch (sh.opt.sort) {
    case SortMethod::Bitonic:
      BSPLOGP_EXPECTS(is_pow2(sh.p));
      return {Method::Bitonic, r_raw};
    case SortMethod::Columnsort:
      return {Method::Columnsort, pad_col(r_raw)};
    case SortMethod::Auto:
      if (r_raw >= thresh) return {Method::Columnsort, pad_col(r_raw)};
      if (is_pow2(sh.p)) return {Method::Bitonic, r_raw};
      return {Method::Columnsort, pad_col(r_raw)};
  }
  return {Method::Bitonic, r_raw};
}

/// Total model time the distributed sort occupies from its start t0 —
/// identical on every processor, which is what lets the rest of the
/// routing protocol run on a static schedule.
Time sort_duration(Method method, Time r, ProcId p, const logp::Params& prm,
                   std::size_t bitonic_rounds) {
  if (method == Method::Bitonic)
    return static_cast<Time>(bitonic_rounds) * exchange_window(r, prm);
  const Time q = r / p + 1;
  return 2 * redist_window(r, q, p, prm) + 2 * boundary_window(r, p, prm);
}

/// Receives `n` sort-traffic records on `channel` into `out`.
Task<> recv_records(Mailbox& mb, std::int32_t channel, std::size_t n,
                    std::vector<Record>& out) {
  return mb.recv_each(channel, n, [&out](const Message& m) {
    out.push_back(unpack_record(m));
  });
}

/// Exchange full blocks with `partner` on `channel` and keep the low or
/// high half of the 2r records, merging the two sorted runs straight into
/// the kept half. `theirs` and `kept` are scratch reused across rounds.
Task<> merge_exchange(Mailbox& mb, std::vector<Record>& recs, ProcId partner,
                      bool keep_low, std::int32_t channel,
                      std::vector<Record>& theirs,
                      std::vector<Record>& kept) {
  Proc& pr = mb.proc();
  const std::size_t r = recs.size();
  for (const Record& rec : recs)
    co_await pr.send(partner, rec.payload, rec.tag,
                     pack_aux(rec.key, rec.src), channel);
  theirs.clear();
  co_await recv_records(mb, channel, r, theirs);
  co_await pr.compute(merge_charge(static_cast<Time>(2 * r)));
  // The partner sent its run sorted; only a delivery schedule that
  // reorders transit (UniformRandom) hands it over out of order.
  if (!std::is_sorted(theirs.begin(), theirs.end(), record_less))
    std::sort(theirs.begin(), theirs.end(), record_less);
  // Both runs hold r records, so neither runs out before r are taken.
  // Records that compare equal are equal in every field, so the result
  // matches sorting all 2r and keeping the half.
  kept.resize(r);
  if (keep_low) {
    std::size_t a = 0;  // next unmerged record of each run, from the front
    std::size_t b = 0;
    for (Record& out : kept)
      out = record_less(theirs[b], recs[a]) ? theirs[b++] : recs[a++];
  } else {
    std::size_t a = r;  // one past the last unmerged record of each run
    std::size_t b = r;
    for (std::size_t k = r; k-- > 0;)
      kept[k] = record_less(recs[a - 1], theirs[b - 1]) ? theirs[--b]
                                                         : recs[--a];
  }
  recs.swap(kept);
}

/// Bitonic merge-split sort across all processors, rounds aligned to
/// global windows from t0 so that only the round's partner ever sends to a
/// processor (stall-freeness).
Task<> sort_bitonic(Mailbox& mb, std::vector<Record>& recs, Time t0,
                    Shared& sh) {
  Proc& pr = mb.proc();
  const Time w = exchange_window(static_cast<Time>(recs.size()), sh.prm);
  std::vector<Record> theirs;
  std::vector<Record> kept;
  theirs.reserve(recs.size());
  for (std::size_t round = 0; round < sh.bitonic_partners.size(); ++round) {
    const Time wstart = t0 + static_cast<Time>(round) * w;
    co_await pr.wait_until(wstart);
    const auto [partner, keep_low] =
        sh.bitonic_partners[round][static_cast<std::size_t>(pr.id())];
    co_await merge_exchange(mb, recs, partner, keep_low,
                            kChSortBase - static_cast<std::int32_t>(round),
                            theirs, kept);
    if (pr.now() > wstart + w) sh.schedule_violations += 1;
  }
}

/// Columnsort across all processors (column j = processor j). recs must be
/// presorted and have size r with p | r and r >= 2(p-1)^2.
Task<> sort_columnsort(Mailbox& mb, std::vector<Record>& recs, Time t0,
                       Shared& sh) {
  Proc& pr = mb.proc();
  const ProcId p = sh.p;
  const ProcId me = pr.id();
  const logp::Params& prm = sh.prm;
  if (p == 1) co_return;
  const auto r = static_cast<Time>(recs.size());
  const Time q = r / p + 1;
  const Time wr = redist_window(r, q, p, prm);

  // Phases 2-5: deal (transpose) then undeal (untranspose), each followed
  // by a local sort. Destination columns depend only on the sorted
  // position i: deal: i mod p; undeal: (i*p + me) / r. Group-by-destination
  // send order with per-group slot quotas makes every G-slot a partial
  // permutation (see DESIGN.md), hence stall-free.
  for (int phase = 0; phase < 2; ++phase) {
    const std::int32_t channel = phase == 0 ? kChColDeal : kChColUndeal;
    const Time w0 = t0 + phase * wr;
    co_await pr.wait_until(w0);
    std::vector<Record> kept;
    for (ProcId k = 0; k < p; ++k) {
      const auto d = static_cast<ProcId>((me + k) % p);
      Time idx = 0;
      for (Time i = 0; i < r; ++i) {
        const auto dest = phase == 0
                              ? static_cast<ProcId>(i % p)
                              : static_cast<ProcId>((i * p + me) / r);
        if (dest != d) continue;
        if (d == me) {
          kept.push_back(recs[static_cast<std::size_t>(i)]);
        } else {
          const Time slot = w0 + (static_cast<Time>(k) * q + idx) * prm.G;
          if (pr.earliest_submit() > slot) sh.schedule_violations += 1;
          co_await pr.wait_until(std::max(pr.now(), slot - prm.o));
          const Record& rec = recs[static_cast<std::size_t>(i)];
          co_await pr.send(d, rec.payload, rec.tag,
                           pack_aux(rec.key, rec.src), channel);
        }
        idx += 1;
      }
      BSPLOGP_ASSERT(idx <= q);
    }
    const auto expect = r - static_cast<Time>(kept.size());
    std::vector<Record> next = std::move(kept);
    next.reserve(static_cast<std::size_t>(r));
    co_await recv_records(mb, channel, static_cast<std::size_t>(expect),
                          next);
    BSPLOGP_ASSERT(std::cmp_equal(next.size(), r));
    co_await pr.compute(seq_sort_charge(r, p));
    std::sort(next.begin(), next.end(), record_less);
    recs = std::move(next);
    if (pr.now() > w0 + wr) sh.schedule_violations += 1;
  }

  // Steps 6-8 in boundary-window form. Shifted column c+1 is
  // [last r/2 records of column c ; first r - r/2 records of column c+1];
  // processor c owns window (c, c+1).
  const Time half = r / 2;       // contribution of the left column
  const Time tcnt = r - half;    // contribution of the right column
  const Time wb = t0 + 2 * wr;
  co_await pr.wait_until(wb);
  // Phase A: send my first tcnt records (smallest) left.
  if (me > 0) {
    for (Time i = 0; i < tcnt; ++i) {
      const Record& rec = recs[static_cast<std::size_t>(i)];
      co_await pr.send(static_cast<ProcId>(me - 1), rec.payload, rec.tag,
                       pack_aux(rec.key, rec.src), kChColBoundA);
    }
  }
  std::vector<Record> window;
  if (me < p - 1) {
    window.assign(recs.begin() + static_cast<std::ptrdiff_t>(tcnt),
                  recs.end());  // my last half records
    co_await recv_records(mb, kChColBoundA, static_cast<std::size_t>(tcnt),
                          window);
    co_await pr.compute(seq_sort_charge(r, p));
    std::sort(window.begin(), window.end(), record_less);
  }
  // Phase B: return the window's largest tcnt records to the right
  // neighbor (its new first records); keep the smallest half as my last.
  const Time wb2 = wb + boundary_window(r, p, prm);
  co_await pr.wait_until(wb2);
  if (me < p - 1) {
    for (Time i = half; i < r; ++i) {
      const Record& rec = window[static_cast<std::size_t>(i)];
      co_await pr.send(static_cast<ProcId>(me + 1), rec.payload, rec.tag,
                       pack_aux(rec.key, rec.src), kChColBoundB);
    }
  }
  std::vector<Record> next;
  next.reserve(static_cast<std::size_t>(r));
  if (me > 0) {
    co_await recv_records(mb, kChColBoundB, static_cast<std::size_t>(tcnt),
                          next);
  } else {
    next.assign(recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(tcnt));
  }
  if (me < p - 1) {
    next.insert(next.end(), window.begin(),
                window.begin() + static_cast<std::ptrdiff_t>(half));
  } else {
    next.insert(next.end(),
                recs.begin() + static_cast<std::ptrdiff_t>(tcnt), recs.end());
  }
  BSPLOGP_ASSERT(std::cmp_equal(next.size(), r));
  co_await pr.compute(seq_sort_charge(r, p));
  std::sort(next.begin(), next.end(), record_less);
  recs = std::move(next);
  if (pr.now() > wb2 + boundary_window(r, p, prm)) sh.schedule_violations += 1;
}

/// Number of control windows compute_s consumes (used to build the static
/// schedule): two boundary-key shifts, ceil(log2 p) scan rounds, and the
/// exclusive-scan shift.
Time s_window_count(ProcId p) {
  return 3 + (p > 1 ? ceil_log2(p) : 0);
}

/// Model time compute_s occupies from its base: its control windows plus
/// the trailing local group-length pass (r operations).
Time s_duration(ProcId p, Time r, const logp::Params& prm) {
  return s_window_count(p) * control_window(prm) + r + 4;
}

/// Exact maximum receive degree of the sorted relation: group runs can span
/// processors, so group starts are located with boundary-key shifts plus a
/// prefix-max scan of start ranks, and lengths are evaluated at group ends.
/// Every neighbor exchange and scan round runs in its own control window
/// starting at `base`, so at most one message is ever in transit per
/// destination (stall-free at any capacity).
Task<Time> compute_s(Mailbox& mb, const std::vector<Record>& recs, Time r,
                     Time base, Shared& sh) {
  Proc& pr = mb.proc();
  const ProcId p = sh.p;
  const ProcId me = pr.id();
  const Word dummy_key = p;
  const Time wc = control_window(sh.prm);
  Time window = 0;
  auto next_window = [&]() -> Time { return base + (window++) * wc; };

  // 1a. Every processor learns its left neighbor's last key.
  co_await pr.wait_until(next_window());
  Word left_last = -1;
  if (me + 1 < p)
    co_await pr.send(static_cast<ProcId>(me + 1), recs.back().key,
                     kTagLastKey, 0, Channel::kControl);
  if (me > 0)
    left_last =
        (co_await mb.recv_channel_tag(Channel::kControl, kTagLastKey))
            .payload;
  // 1b. ...and its right neighbor's first key (for boundary group ends).
  co_await pr.wait_until(next_window());
  Word right_first = -1;
  if (me > 0)
    co_await pr.send(static_cast<ProcId>(me - 1), recs.front().key,
                     kTagFirstKey, 0, Channel::kControl);
  if (me + 1 < p)
    right_first =
        (co_await mb.recv_channel_tag(Channel::kControl, kTagFirstKey))
            .payload;

  // 2. Local group starts; v = rank of the last start in my block (-1 if
  // my whole block continues an earlier group).
  auto rank_of = [&](Time j) { return static_cast<Word>(me) * r + j; };
  std::vector<Time> starts;
  for (Time j = 0; j < r; ++j) {
    const Word key = recs[static_cast<std::size_t>(j)].key;
    const bool start =
        j == 0 ? (me == 0 || key != left_last)
               : key != recs[static_cast<std::size_t>(j - 1)].key;
    if (start) starts.push_back(j);
  }
  const Word v = starts.empty() ? Word{-1} : rank_of(starts.back());

  // 3. Inclusive prefix max of start ranks, Hillis-Steele with one control
  // window per round.
  Word incl = v;
  for (std::int32_t k = 0; (ProcId{1} << k) < p; ++k) {
    co_await pr.wait_until(next_window());
    const ProcId stride = ProcId{1} << k;
    if (me + stride < p)
      co_await pr.send(me + stride, incl, kTagScanBase + k, 0,
                       Channel::kControl);
    if (me >= stride) {
      const Message m =
          co_await mb.recv_channel_tag(Channel::kControl, kTagScanBase + k);
      incl = std::max(incl, m.payload);
    }
  }
  // 4. Shift to make it exclusive: the start of the group overlapping my
  // block's beginning.
  co_await pr.wait_until(next_window());
  Word excl = -1;
  if (me + 1 < p)
    co_await pr.send(static_cast<ProcId>(me + 1), incl, kTagExclScan, 0,
                     Channel::kControl);
  if (me > 0)
    excl = (co_await mb.recv_channel_tag(Channel::kControl, kTagExclScan))
               .payload;

  // 5. Longest real (non-dummy) group ending in my block. A group ends at
  // local position j if the following record (local or the right
  // neighbor's first) has a different key; the global last record always
  // ends its group.
  Time best = 0;
  std::size_t next_start = 0;
  Word cur_start = excl;  // start rank of the group containing position j
  for (Time j = 0; j < r; ++j) {
    if (next_start < starts.size() && starts[next_start] == j) {
      cur_start = rank_of(j);
      ++next_start;
    }
    const Word key = recs[static_cast<std::size_t>(j)].key;
    const bool end =
        j + 1 < r ? key != recs[static_cast<std::size_t>(j + 1)].key
                  : (me == p - 1 || key != right_first);
    if (end && key != dummy_key) {
      BSPLOGP_ASSERT(cur_start >= 0);
      best = std::max<Time>(best, rank_of(j) - cur_start + 1);
    }
  }
  co_await pr.compute(r);
  if (pr.now() > base + s_duration(p, r, sh.prm))
    sh.schedule_violations += 1;

  // 6. Global maximum; all processors enter at or before the common
  // schedule point, so CB traffic meets an otherwise-quiet network.
  co_await pr.wait_until(base + s_duration(p, r, sh.prm));
  co_return co_await combine_broadcast(mb, best, ReduceOp::Max);
}

struct RouteResult {
  std::vector<Message> incoming;
  bool continue_flag = false;
};

/// One superstep's synchronization + communication phase (steps 2-4 of the
/// simulation; the caller has already run the local phase).
Task<RouteResult> route_superstep(Mailbox& mb, std::vector<Message> outbox,
                                  bool more, std::int64_t step, Shared& sh) {
  Proc& pr = mb.proc();
  const ProcId p = sh.p;
  const ProcId me = pr.id();
  const logp::Params& prm = sh.prm;
  RouteResult res;

  // Self-messages never touch the network in LogP (the model forbids
  // self-sends); they are a local pool move.
  std::vector<Record> recs;
  for (Message& m : outbox) {
    if (m.dst == me) {
      m.src = me;
      res.incoming.push_back(m);
    } else {
      recs.push_back(Record{m.dst, m.payload, m.tag, me});
    }
  }

  // Step 1+2 of the paper's superstep structure: the CB computing
  // r = max out-degree is also the barrier.
  sh.phase_begin(me, pr.now(), trace::SimPhase::Cb, step);
  const Word r_raw = co_await combine_broadcast(
      mb, static_cast<Word>(recs.size()), ReduceOp::Max);
  sh.phase_end(me, pr.now(), trace::SimPhase::Cb, step);

  if (r_raw == 0) {
    res.continue_flag =
        co_await combine_broadcast(mb, more ? 1 : 0, ReduceOp::Or) != 0;
    std::stable_sort(res.incoming.begin(), res.incoming.end(),
                     [](const Message& a, const Message& b) {
                       return a.src < b.src;
                     });
    co_return res;
  }

  sh.phase_begin(me, pr.now(), trace::SimPhase::Sort, step);
  const auto [method, r] = choose_sort(sh, r_raw);
  while (std::cmp_less(recs.size(), r))
    recs.push_back(Record{p, 0, 0, me});  // dummies sort after real keys

  // Broadcast the sort start time T0 (covers the broadcast itself plus
  // everyone's presort).
  const Time presort = seq_sort_charge(r, p);
  const Word t0 = co_await tree_broadcast(
      mb, me == 0 ? pr.now() + algo::cb_time_bound(prm, p) + presort + 4 : 0);
  co_await pr.compute(presort);
  std::sort(recs.begin(), recs.end(), record_less);
  if (pr.now() > t0) sh.schedule_violations += 1;
  co_await pr.wait_until(t0);

  // Everything after t0 runs on a static schedule, identical on every
  // processor: phases can never overlap in time, so no destination ever
  // sees traffic from two protocol layers at once.
  const Time t_sort_end =
      t0 + sort_duration(method, r, p, prm, sh.bitonic_partners.size());
  if (method == Method::Bitonic) {
    co_await sort_bitonic(mb, recs, t0, sh);
  } else {
    co_await sort_columnsort(mb, recs, t0, sh);
  }
  if (pr.now() > t_sort_end) sh.schedule_violations += 1;
  co_await pr.wait_until(t_sort_end);
  sh.phase_end(me, pr.now(), trace::SimPhase::Sort, step);

  // Step 3: exact max receive degree.
  sh.phase_begin(me, pr.now(), trace::SimPhase::Route, step);
  const Time s = co_await compute_s(mb, recs, r, t_sort_end, sh);
  const Time h = std::max<Time>(r, s);

  // Step 4: h globally clocked routing cycles; cycle k starts at
  // t_cycles + k*G and carries the records of global rank ≡ k (mod h).
  // t_cycles bounds the completion of compute_s's closing CB from its
  // common entry point, so it is computable locally by every processor.
  const Time t_cycles =
      t_sort_end + s_duration(p, r, prm) + algo::cb_time_bound(prm, p);
  if (pr.now() > t_cycles) sh.schedule_violations += 1;
  // Visit my records in slot order (their cycles form a wrapped range).
  std::vector<std::pair<Time, Time>> by_cycle;  // (cycle, local index)
  for (Time j = 0; j < r; ++j) {
    const Record& rec = recs[static_cast<std::size_t>(j)];
    if (rec.key == p) continue;  // dummy
    by_cycle.emplace_back((static_cast<Time>(me) * r + j) % h, j);
  }
  std::sort(by_cycle.begin(), by_cycle.end());
  for (const auto& [cycle, j] : by_cycle) {
    const Record& rec = recs[static_cast<std::size_t>(j)];
    if (rec.key == me) {
      // A record that ended up on its destination: local delivery.
      res.incoming.push_back(
          Message{rec.src, me, rec.payload, rec.tag, 0, Channel::kData});
      continue;
    }
    if (sh.opt.clocked_cycles) {
      const Time slot = t_cycles + cycle * prm.G;
      if (pr.earliest_submit() > slot) sh.schedule_violations += 1;
      co_await pr.wait_until(std::max(pr.now(), slot - prm.o));
    }
    co_await pr.send(static_cast<ProcId>(rec.key), rec.payload, rec.tag,
                     rec.src, Channel::kData);
  }
  sh.phase_end(me, pr.now(), trace::SimPhase::Route, step);
  sh.phase_begin(me, pr.now(), trace::SimPhase::Drain, step);

  // Termination. Clocked: the last cycle's submissions happen by
  // t_cycles + (h-1)G and are delivered within L, so at t_drain every
  // processor's data is buffered; drain, then run the closing CB (which
  // also ORs the continue flags). Unclocked (ablation): no static bound
  // exists, so the CB itself is the proof that every send was accepted —
  // CB first, then wait L and drain.
  if (sh.opt.clocked_cycles) {
    const Time t_drain = t_cycles + h * prm.G + prm.L;
    co_await pr.wait_until(t_drain);
    co_await mb.acquire_pending();
    for (Message& m : mb.take_stashed(Channel::kData)) {
      m.src = static_cast<ProcId>(m.aux);  // original BSP sender
      m.dst = me;
      res.incoming.push_back(m);
    }
    res.continue_flag =
        co_await combine_broadcast(mb, more ? 1 : 0, ReduceOp::Or) != 0;
  } else {
    res.continue_flag =
        co_await combine_broadcast(mb, more ? 1 : 0, ReduceOp::Or) != 0;
    co_await pr.wait_until(pr.now() + prm.L);
    co_await mb.acquire_pending();
    for (Message& m : mb.take_stashed(Channel::kData)) {
      m.src = static_cast<ProcId>(m.aux);
      m.dst = me;
      res.incoming.push_back(m);
    }
  }
  sh.phase_end(me, pr.now(), trace::SimPhase::Drain, step);
  std::stable_sort(
      res.incoming.begin(), res.incoming.end(),
      [](const Message& a, const Message& b) { return a.src < b.src; });

  auto& info = sh.info(step);
  info.r = std::max(info.r, r);
  info.s = std::max(info.s, s);
  info.h = std::max(info.h, h);
  info.messages += static_cast<Time>(by_cycle.size());
  co_return res;
}

Task<> simulate_proc(Proc& pr, bsp::ProcProgram& prog, Shared& sh) {
  Mailbox mb(pr);
  std::vector<Message> inbox;
  for (std::int64_t step = 0; step < sh.opt.max_supersteps; ++step) {
    std::vector<Message> outbox;
    Time work = static_cast<Time>(inbox.size());  // pool extraction cost
    bsp::Ctx ctx(pr.id(), sh.p, step, inbox, outbox, work);
    sh.phase_begin(pr.id(), pr.now(), trace::SimPhase::Local, step);
    const bool more = prog.step(ctx);
    co_await pr.compute(work);
    sh.phase_end(pr.id(), pr.now(), trace::SimPhase::Local, step);
    auto& info = sh.info(step);
    info.w_max = std::max(info.w_max, work);

    RouteResult result =
        co_await route_superstep(mb, std::move(outbox), more, step, sh);
    inbox = std::move(result.incoming);
    if (!result.continue_flag) break;
  }
}

}  // namespace

Time BspOnLogpReport::bsp_reference_time(const bsp::Params& prm) const {
  // Each superstep is charged h = max(r, s), the cycles the protocol
  // routed. s is the exact receive degree, but r is the send degree the
  // sort ran with, which Columnsort pads up to 2(p-1)^2, so the charge can
  // exceed the cost of the true h-relation.
  Time total = 0;
  for (const auto& st : steps)
    total += bsp::SuperstepCost{st.w_max, st.h}.total(prm);
  return total;
}

double BspOnLogpReport::slowdown(const logp::Params& prm) const {
  const Time ref = bsp_reference_time(bsp::Params{prm.G, prm.L});
  return ref > 0 ? static_cast<double>(logp.finish_time) /
                       static_cast<double>(ref)
                 : 0.0;
}

BspOnLogp::BspOnLogp(ProcId nprocs, logp::Params params, BspOnLogpOptions opt)
    : nprocs_(nprocs), params_(params), opt_(opt) {
  BSPLOGP_EXPECTS(nprocs >= 1);
  params_.validate();
}

BspOnLogpReport BspOnLogp::run(
    std::span<const std::unique_ptr<bsp::ProcProgram>> programs) {
  BSPLOGP_EXPECTS(std::cmp_equal(programs.size(), nprocs_));
  for (const auto& prog : programs) BSPLOGP_EXPECTS(prog != nullptr);

  Shared sh;
  sh.p = nprocs_;
  sh.prm = params_;
  sh.opt = opt_;
  sh.sink = opt_.engine.sink;
  if (is_pow2(nprocs_) && nprocs_ > 1) {
    for (const auto& round : routing::bitonic_schedule(nprocs_)) {
      std::vector<std::pair<ProcId, bool>> partners(
          static_cast<std::size_t>(nprocs_));
      for (const routing::CompareExchange& ce : round) {
        partners[static_cast<std::size_t>(ce.lo)] = {ce.hi, ce.ascending};
        partners[static_cast<std::size_t>(ce.hi)] = {ce.lo, !ce.ascending};
      }
      sh.bitonic_partners.push_back(std::move(partners));
    }
  }

  std::vector<logp::ProgramFn> fns;
  fns.reserve(static_cast<std::size_t>(nprocs_));
  for (ProcId i = 0; i < nprocs_; ++i) {
    bsp::ProcProgram* prog = programs[static_cast<std::size_t>(i)].get();
    fns.emplace_back([prog, &sh](Proc& pr) -> Task<> {
      return simulate_proc(pr, *prog, sh);
    });
  }

  logp::Machine machine(nprocs_, params_, opt_.engine);
  BspOnLogpReport report;
  report.logp = machine.run(fns);
  report.supersteps = static_cast<std::int64_t>(sh.steps.size());
  report.steps = std::move(sh.steps);
  report.schedule_violations = sh.schedule_violations;
  return report;
}

}  // namespace bsplogp::xsim

// The workload registry: every named program family the paper's
// experiments (E1-E9, A1) sweep over, defined exactly once.
//
// Before this library each bench binary, example, and parameterized test
// carried its own anonymous-namespace copy of the same LogP/BSP programs
// (all-to-all, CB rounds, hotspots, random h-relations, ...). Here each
// family exists once, as a factory:
//
//   * LogP families return std::vector<logp::ProgramFn> and run unchanged
//     on the native logp::Machine or under xsim::LogpOnBsp (Theorem 1);
//   * BSP families return bsp::ProcProgram vectors and run unchanged on
//     the native bsp::Machine or under xsim::BspOnLogp (Theorem 2).
//
// The free functions below are the single definitions; the registry() at
// the bottom names them for `--list`, validation, and generic Spec-based
// instantiation (bench/harness.h, DESIGN.md §9). Factories are pure: no
// shared mutable state between two instantiations, so grid sweeps may
// instantiate and run points concurrently (one machine per point).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/algo/reduce_op.h"
#include "src/bsp/program.h"
#include "src/core/rng.h"
#include "src/core/types.h"
#include "src/logp/proc.h"
#include "src/logp/task.h"
#include "src/routing/h_relation.h"

namespace bsplogp::workload {

// ---- LogP program families --------------------------------------------------

/// All-to-all exchange: every processor sends payload (id + 1) to each of
/// the other p-1 processors, then receives p-1 messages. If `sums` is
/// given (resized to p), processor i stores the sum of received payloads —
/// sum of 1..p minus (i + 1) — for end-to-end result checking.
[[nodiscard]] std::vector<logp::ProgramFn> all_to_all(
    ProcId p, std::vector<Word>* sums = nullptr);

/// `rounds` consecutive Combine-and-Broadcasts (Section 4.1) on the
/// paper's max{2, ceil(L/G)}-ary tree, chained: round k combines round
/// k-1's result. value(i) is processor i's initial contribution (default:
/// the id itself); if `out` is given (resized to p) each processor stores
/// its final CB result.
[[nodiscard]] std::vector<logp::ProgramFn> cb_rounds(
    ProcId p, int rounds, algo::ReduceOp op = algo::ReduceOp::Max,
    std::function<Word(ProcId)> value = {}, std::vector<Word>* out = nullptr);

/// One CB on a tree of the given arity instead of the paper's choice —
/// the ablation knob for bench_ablation_cb (a). If `out` is given (resized
/// to p) each processor stores its CB result (max of all ids = p - 1).
[[nodiscard]] std::vector<logp::ProgramFn> cb_arity(
    ProcId p, ProcId arity, std::vector<Word>* out = nullptr);

/// One combine+broadcast realized as the Karp-et-al greedy schedule pair
/// (reduce_opt then broadcast_opt); the schedule is computed internally
/// from (p, prm) and owned by the programs. If `out` is given (resized to
/// p) each processor stores the broadcast total.
[[nodiscard]] std::vector<logp::ProgramFn> cb_greedy_pair(
    ProcId p, const logp::Params& prm, std::vector<Word>* out = nullptr);

/// Ring shift: `rounds` rounds in which every processor sends its round
/// counter to (id + 1) mod p and receives from (id - 1) mod p. A sparse,
/// perfectly balanced 1-relation workload (contrast with hotspot). If
/// `sums` is given (resized to p) each processor stores the sum of
/// received payloads — rounds*(rounds-1)/2 when everything arrives.
[[nodiscard]] std::vector<logp::ProgramFn> ring_shift(
    ProcId p, int rounds, std::vector<Word>* sums = nullptr);

/// Hot spot (Section 2.2): processors 1..p-1 each fire k messages at
/// processor 0, which receives all (p-1)*k. k = 1 is the classic all-to-one
/// fan-in; k > 1 is the k-hotspot that keeps the acceptance queue saturated.
/// staged = false is the naive program that runs into the Stalling Rule;
/// staged = true is the slot-staged stall-free variant (sender i waits for
/// its own G-aligned slot), the comparison program of E5. Sender i's j-th
/// payload is the label i*100 + j (distinct while k <= 100); if `sum` is
/// given (resized to 1) the receiver stores the payload total, so
/// differential tests can check delivery end to end.
[[nodiscard]] std::vector<logp::ProgramFn> hotspot(
    ProcId p, Time k, bool staged = false, std::vector<Word>* sum = nullptr);

/// Random point-to-point traffic with compute jitter: each processor sends
/// msgs_per_proc messages to uniform other processors, computing a uniform
/// [0, max_jump] burst before each send, then receives its exact expected
/// count (the traffic matrix is drawn up front from `seed`, so the program
/// is deterministic and deadlock-free). Large max_jump pushes events past
/// the calendar queue's wheel horizon, through its overflow buffer.
[[nodiscard]] std::vector<logp::ProgramFn> random_traffic(
    ProcId p, int msgs_per_proc, Time max_jump, std::uint64_t seed,
    std::vector<Word>* sums = nullptr);

// ---- BSP program families ---------------------------------------------------

/// One-superstep program routing a fixed h-relation: in superstep 0
/// processor i sends exactly its messages of `rel`, then halts after
/// reading its inbox in superstep 1. The workhorse of E2, E6, and the
/// clocked-cycles ablation.
[[nodiscard]] std::vector<std::unique_ptr<bsp::ProcProgram>> relation_step(
    const routing::HRelation& rel);

/// The complete (p-1)-regular all-pairs relation: every processor sends one
/// message (payload 1) to every other. relation_step(all_pairs(p)) is the
/// BSP twin of the LogP all_to_all family.
[[nodiscard]] routing::HRelation all_pairs(ProcId p);

/// Received-message log of a fuzz_supersteps program:
/// received[superstep][pid] = sorted (src, payload, tag) triples. Two
/// instances built from the same seed must produce identical logs on any
/// correct executor — the differential-testing oracle.
struct FuzzLog {
  std::vector<
      std::vector<std::vector<std::tuple<ProcId, Word, std::int32_t>>>>
      received;
};

/// A deterministic random multi-superstep BSP program: in each superstep
/// every processor draws a traffic pattern (silent / sparse / bursty /
/// fan-in to processor 0) from (seed, pid, superstep) and logs the sorted
/// multiset of everything it received. Behavior depends only on the seed
/// triple, so native BSP and any simulation must produce identical logs.
[[nodiscard]] std::vector<std::unique_ptr<bsp::ProcProgram>> fuzz_supersteps(
    ProcId p, std::int64_t supersteps, std::uint64_t seed, FuzzLog& log);

/// Per-processor inbox log of an arbitrary BSP program:
/// per_pid[pid][superstep] = sorted (src, payload, tag) triples the
/// processor's program saw in that step. Storage is per-processor (each
/// program instance appends only to its own vector), so a log can be
/// filled from the native backend's concurrent threads as safely as from
/// the serial Machine.
struct InboxLog {
  std::vector<
      std::vector<std::vector<std::tuple<ProcId, Word, std::int32_t>>>>
      per_pid;
};

/// Wraps each program so every step's inbox is recorded into `log` (resized
/// to programs.size()) before delegating. Any two executors that present
/// the same pools in any order produce identical logs — the generic
/// differential-testing oracle for BSP families without result captures.
[[nodiscard]] std::vector<std::unique_ptr<bsp::ProcProgram>> logged(
    std::vector<std::unique_ptr<bsp::ProcProgram>> programs, InboxLog& log);

// ---- Sorting inputs ---------------------------------------------------------

/// p blocks of n uniform words in [lo, hi] — the input family for the
/// sorting experiments (odd-even block sort, bitonic merge-split).
[[nodiscard]] std::vector<std::vector<Word>> random_blocks(ProcId p,
                                                           std::size_t n,
                                                           Word lo, Word hi,
                                                           core::Rng& rng);

// ---- Registry ---------------------------------------------------------------

/// Knobs for generic instantiation of a registered family. Each entry's
/// description says which knobs it reads; unread knobs are ignored.
struct Spec {
  ProcId p = 8;
  /// Messages per sender (hotspot), relation degree h (h-relation-step),
  /// or block size (odd-even-sort).
  Time k = 1;
  /// CB / ring-shift rounds, fuzz supersteps, random-traffic messages per
  /// processor.
  int rounds = 1;
  /// Compute jitter bound (random-traffic).
  Time max_jump = 8;
  /// Staged stall-free variant (hotspot).
  bool staged = false;
  /// Seed for the stochastic families.
  std::uint64_t seed = 1;
  /// Global problem size along the first axis: stencil-2d grid rows,
  /// sample-sort total keys, bsf-iterative elements.
  std::int64_t nx = 64;
  /// Global problem size along the second axis (stencil-2d grid columns).
  std::int64_t ny = 32;
  /// Processor-grid rows for the 2-D partitioned families; must divide p.
  /// 0 picks the most nearly square factorization of p.
  ProcId grid_rows = 0;
  /// Optional end-to-end result capture for the families that support one
  /// (all-to-all, cb-rounds, cb-arity, cb-greedy-pair, ring-shift,
  /// hotspot, random-traffic, and — on both the LogP and BSP side —
  /// stencil-2d, sample-sort, bsf-iterative): resized by the factory; must
  /// outlive the programs. The differential suite instantiates the same
  /// Spec twice with two captures and compares them across executors.
  std::vector<Word>* result = nullptr;
};

/// One accepted parameter range of a family: Spec field `name` must lie in
/// [lo, hi]. Printed by `--list` and enforced by validate(); `note`
/// documents sentinel values ("0 = auto") or units.
struct ParamDomain {
  std::string name;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::string note;
};

struct Entry {
  std::string name;
  std::string description;
  /// Null when the family is not a LogP (resp. BSP) program family. A LogP
  /// factory's programs run natively or under xsim::LogpOnBsp; a BSP
  /// factory's programs run natively or under xsim::BspOnLogp.
  std::function<std::vector<logp::ProgramFn>(const Spec&)> logp;
  std::function<std::vector<std::unique_ptr<bsp::ProcProgram>>(const Spec&)>
      bsp;
  /// Accepted Spec parameter domains. Empty means "unconstrained": the
  /// family reads whatever knobs its description names and tolerates any
  /// value the Spec defaults make sensible.
  std::vector<ParamDomain> domains = {};
  /// Optional cross-field check (e.g. grid_rows must divide p). Returns
  /// false and fills *error with a "bad <field> ..." message on violation.
  std::function<bool(const Spec&, std::string*)> constraint = {};
};

/// Reads the Spec field `name` ("p", "k", "rounds", "max_jump", "staged",
/// "seed", "nx", "ny", "grid_rows") as an integer, for domain checks and
/// domain-aware printing.
[[nodiscard]] std::int64_t spec_field(const Spec& s, std::string_view name);

/// One line per domain, e.g. "p in 1..512; nx in 4..1048576 (total keys)".
/// Empty string when the entry declares no domains.
[[nodiscard]] std::string describe_domains(const Entry& e);

/// True iff `s` lies inside every declared domain of `e` and satisfies its
/// constraint. On violation fills *error (if non-null) with a message
/// naming the offending value and the accepted domain, e.g.
/// "bad nx '8' for sample-sort (want 4..1048576)".
[[nodiscard]] bool validate(const Entry& e, const Spec& s,
                            std::string* error = nullptr);

/// All registered families, in stable display order.
[[nodiscard]] const std::vector<Entry>& registry();

/// Lookup by name; null if not registered.
[[nodiscard]] const Entry* find(std::string_view name);

}  // namespace bsplogp::workload

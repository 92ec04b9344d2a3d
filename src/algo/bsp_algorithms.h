// The two BSP algorithms the rest of the tree runs: the inclusive prefix
// scan (examples/quickstart) and the odd-even transposition block sort
// (the `odd-even-sort` workload-registry family and
// examples/cross_simulation).
//
// Each factory returns one ProcProgram per processor; results are written
// into caller-owned output ranges when the program halts.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/algo/reduce_op.h"
#include "src/bsp/machine.h"
#include "src/core/types.h"

namespace bsplogp::algo {

using BspPrograms = std::vector<std::unique_ptr<bsp::ProcProgram>>;

/// Inclusive prefix scan: out[i] = op(in[0..i]). ceil(log2 p) supersteps of
/// degree 1.
[[nodiscard]] BspPrograms bsp_prefix_scan(ProcId p, std::span<const Word> in,
                                          ReduceOp op,
                                          std::vector<Word>& out);

/// Odd–even transposition sort of p blocks of b keys each. Each processor
/// starts with blocks[i] (size b) and ends with the globally sorted
/// sequence's i-th block. p merge-split phases; each phase exchanges whole
/// blocks (h = b) between neighbors.
[[nodiscard]] BspPrograms bsp_odd_even_sort(
    ProcId p, const std::vector<std::vector<Word>>& blocks,
    std::vector<std::vector<Word>>& out);

}  // namespace bsplogp::algo

#pragma once
// The library's legacy free-function front door: solve L X = B on a
// simulated p-processor machine with everything configured automatically —
// regime classification, algorithm selection, grid factorization, block
// counts — exactly the recommendations of the paper's Section VIII.
//
//   catrsm::trsm::SolveResult r = catrsm::trsm::solve(L, B, /*p=*/64);
//   r.x          — the solution
//   r.stats      — measured S/W/F per rank and the critical-path time
//   r.config     — what was chosen and why (regime, algorithm, grids)
//   r.residual   — ||L X - B|| / (||L|| ||X|| + ||B||)
//
// Both functions are thin shims over the handle-based plan/execute API in
// api/catrsm.hpp (catrsm::api::Context + catrsm::api::Plan) — prefer that
// interface for repeated traffic: it caches plans and reuses the iterative
// algorithm's inverted diagonal blocks across solves.

#include "api/catrsm.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/trsm.hpp"
#include "model/tuning.hpp"
#include "sim/machine.hpp"

namespace catrsm::trsm {

/// Which side the triangular operand acts on: T X = B or X T = B.
using Side = api::Side;

struct SolveOptions {
  /// Triangle actually stored in the operand (upper solves reduce to the
  /// lower kernel via the index-reversal identity: J U J is lower).
  la::Uplo uplo = la::Uplo::kLower;
  /// Solve with the transpose of the operand (T^T X = B) — the second
  /// half of a Cholesky solve. For a lower operand this uses
  /// X = J * lower_solve(J T^T J, J B) with J the reversal permutation.
  bool transpose_l = false;
  /// Left (T X = B) or right (X T = B) solve; right solves transpose the
  /// system (op(T)^T X^T = B^T) and delegate.
  Side side = Side::kLeft;
  /// Override the automatic algorithm choice.
  bool force_algorithm = false;
  model::Algorithm algorithm = model::Algorithm::kIterative;
  /// Override the diagonal block count (iterative) / base size (recursive).
  int nblocks = 0;
  la::index_t rec_n0 = 0;
  /// Machine parameters for the virtual clock.
  sim::MachineParams machine{};
};

struct SolveResult {
  la::Matrix x;
  /// Stats of the run: the "algorithm" phase (the distributed solve
  /// itself — compare THIS against the paper's formulas). Operands are
  /// uploaded and X downloaded host-side, which charges nothing.
  sim::RunStats stats;
  model::Config config;
  double residual = 0.0;

  /// Max-over-ranks cost of the distributed solve.
  sim::Cost algorithm_cost() const { return stats.phase_cost("algorithm"); }
};

/// Build the plan descriptor equivalent to a solve of `l` against `b`
/// under `opts` (the shape normalization the planner keys on).
api::OpDesc solve_desc(const la::Matrix& l, const la::Matrix& b,
                       const SolveOptions& opts);

/// Solve with a fresh machine of p ranks.
SolveResult solve(const la::Matrix& l, const la::Matrix& b, int p,
                  SolveOptions opts = {});

/// Solve on an existing machine. Repeated calls on the SAME machine share
/// one plan-caching api::Context (see context_on), so the plan cache and
/// the iterative algorithm's inverted diagonal blocks are reused across
/// calls instead of being rebuilt per solve.
SolveResult solve_on(sim::Machine& machine, const la::Matrix& l,
                     const la::Matrix& b, SolveOptions opts = {});

/// The per-machine Context behind solve_on: created on first use and
/// stored in the machine's driver slot, so it lives exactly as long as
/// the machine (the returned reference is valid for the machine's
/// lifetime). Exposed so callers and tests can observe cache_stats() /
/// pre-plan ops. Follows the machine's thread-affinity rules: one
/// machine per client thread.
api::Context& context_on(sim::Machine& machine);

}  // namespace catrsm::trsm

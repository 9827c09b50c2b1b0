#pragma once
// Internal: the per-op distributed bodies behind api::Program — one
// implementation of each algorithm invocation. Every driver reaches them
// through a Program run: Plan::execute_dist is a one-step Program, the
// Cholesky pipeline a three-step one, and the matrix-in entries
// (Plan::execute, execute_batch) upload into resident handles, run that
// path, and download. A run loads per-rank blocks from the machine's
// sim::HandleStore, runs the bodies, and stores result blocks — no
// scatter, no collect, redistributing between steps only on layout
// mismatch.
//
// Also here: realization of api::Layout descriptors into concrete
// dist::Distribution objects — in-run (live communicators, so algorithms
// can collective through the face) and host-side (describe-only
// communicators, for upload/download arithmetic). Both construct the
// exact same element->rank maps as the solvers' canonical helpers
// (it_inv_l_face / it_inv_b_dist / cyclic_on), which is what makes
// "handle layout == required layout" a zero-redistribution guarantee.

#include <cstdint>
#include <memory>

#include "api/catrsm.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "sim/handle_store.hpp"
#include "trsm/diag_inverter.hpp"

namespace catrsm::api {

/// Shared state of a DistHandle: identifies resident per-rank blocks in a
/// machine's HandleStore. The last handle copy releases the storage.
struct DistHandle::State {
  sim::Machine* machine = nullptr;
  std::uint64_t id = 0;
  Layout layout;
  index_t rows = 0;
  index_t cols = 0;
  std::uint64_t epoch = 0;
  /// Recovery source for Context::repair: the generator the handle was
  /// uploaded from (matrix uploads store a lambda over a shared copy).
  /// Empty for handles produced by a Program/execute_dist run.
  Gen source;

  State(sim::Machine* m, std::uint64_t i, Layout lay, index_t r, index_t c,
        std::uint64_t e)
      : machine(m), id(i), layout(lay), rows(r), cols(c), epoch(e) {}
  ~State();
  State(const State&) = delete;
  State& operator=(const State&) = delete;
};

namespace detail {

/// Throws unless the layout's grid fits a p-rank machine.
void check_layout_fits(const Layout& lay, int p);

/// Realize a layout over the canonical world ranks, with live
/// communicators subset from `base` (pass the world communicator; for
/// ops on a rank-prefix subgrid the canonical members are the same).
std::shared_ptr<const dist::Distribution> realize(const Layout& lay,
                                                  index_t rows, index_t cols,
                                                  const sim::Comm& base);

/// Same element->rank map, built outside any run from describe-only
/// communicators (Context::upload / download arithmetic).
std::shared_ptr<const dist::Distribution> realize_host(const Layout& lay,
                                                       index_t rows,
                                                       index_t cols, int p);

/// World ranks the op's grid occupies (ranks >= this idle through the
/// body — the Cholesky pipeline's square subgrid on a non-square p).
int grid_ranks(const OpDesc& desc, const model::Config& cfg, int p);

/// Cross-execute state of the iterative TRSM (the plan's diagonal-inverse
/// cache threads through here).
struct TrsmBodyOptions {
  std::vector<trsm::DiagInverse>* ltilde_store = nullptr;
  bool reuse_ltilde = false;
};

/// Solve L X = B with the planned algorithm (the normalized lower-left
/// non-transposed kernel; dl/db in the plan's input layouts).
dist::DistMatrix trsm_solve(const OpDesc& desc, const model::Config& cfg,
                            const sim::Comm& grid, const dist::DistMatrix& dl,
                            const dist::DistMatrix& db,
                            const TrsmBodyOptions& opts);

/// L^T X = B entirely in the distributed domain: J L^T J is lower, so
/// transpose + reverse, solve iteratively, reverse back — the Cholesky
/// pipeline's backward step (exact: permutations introduce no rounding).
dist::DistMatrix trsm_transposed_solve(const model::Config& cfg,
                                       const sim::Comm& grid,
                                       const dist::DistMatrix& dl,
                                       const dist::DistMatrix& db);

/// Dispatch `desc.op` against already-distributed operands. Ranks outside
/// `grid` return an empty DistMatrix without communicating. `b` is
/// ignored by the unary ops.
dist::DistMatrix op_body(const OpDesc& desc, const model::Config& cfg,
                         const sim::Comm& grid, const dist::DistMatrix& a,
                         const dist::DistMatrix& b,
                         const TrsmBodyOptions& opts);

/// Move rank `me`'s resident block out of the store into a DistMatrix
/// view under `d` (shape-checked; a mismatch throws and leaves the slot
/// in place); restore_slot moves it back. Never copies or zero-fills.
dist::DistMatrix load_slot(sim::HandleStore& store, std::uint64_t id,
                           std::shared_ptr<const dist::Distribution> d,
                           int me);
void restore_slot(sim::HandleStore& store, std::uint64_t id,
                  dist::DistMatrix& dm);

}  // namespace detail
}  // namespace catrsm::api

#pragma once
// The paper's main contribution (Section VI): iterative TRSM with selective
// block-diagonal inversion.
//
// After inverting the n/n0 diagonal blocks (Diagonal-Inverter), every step
// of the block forward-substitution becomes a matrix *multiplication*
// against a precomputed inverse instead of a latency-bound small TRSM:
//
//   for i = 0 .. n/n0 - 1:
//     X(Si) = Ltilde(Si,Si) * B(Si)        (local gemms + allreduce over y)
//     B(S_{i+1}) -= [accumulated L(T,Si) * X(Si) updates]   (lazy, reduced
//                                           one block-row per iteration)
//
// Cost (Section VII):
//   S = O((n/n0) log p + log^2 p)
//   W = (n/n0)[n0^2/p1^2 + O(n0 k/(p1 p2))] + updates + inversion
//   F = n^2 k / (p1^2 p2) + n0^2 n / (p1^2 p2) + inversion
//
// With the Section VIII parameter choices this beats the recursive
// algorithm's latency by Theta((n/k)^{1/6} p^{2/3}) in the 3D regime while
// keeping W and F asymptotically equal — the paper's headline result.
//
// Distribution contract (use the helpers below to build it):
//   L: cyclic on the front face of the p1 x p1 x p2 grid — rank (x, y, 0)
//      owns rows ≡ x, cols ≡ y (mod p1).
//   B: on the y = 0 plane — rank (x, 0, z) owns rows ≡ x (mod p1) and the
//      z-th contiguous slab of ceil(k/p2) columns.
//   X is returned with B's distribution.

#include <memory>
#include <vector>

#include "dist/dist_matrix.hpp"
#include "sim/comm.hpp"
#include "trsm/diag_inverter.hpp"

namespace catrsm::trsm {

struct ItInvOptions {
  /// Number of inverted diagonal blocks; 0 = automatic (Section VIII).
  int nblocks = 0;
  DiagInvOptions diag;
  /// Cross-run reuse of the inverted diagonal blocks (what makes repeated
  /// solves against the same L cheap — the Plan cache hooks in here).
  /// When non-null, slot [world rank] holds that rank's pieces of the
  /// inverted diagonal blocks (a DiagInverse: about n n0 / p1^2 doubles on
  /// the L face, nothing elsewhere); the off-diagonal panels are always
  /// read from L. With `reuse_ltilde` true the store is read in place
  /// instead of running the Diagonal-Inverter; otherwise the freshly
  /// inverted pieces are moved into the store. The caller must size the
  /// vector to the machine's rank count and is responsible for only
  /// requesting reuse against the same L and nblocks.
  std::vector<DiagInverse>* ltilde_store = nullptr;
  bool reuse_ltilde = false;
};

/// The canonical L face (front face of the grid) for it_inv_trsm inputs.
dist::Face2D it_inv_l_face(const sim::Comm& comm, int p1, int p2);

/// Comm-relative member indices of the y = 0 plane (the canonical B
/// face) of the p1 x p1 x p2 grid, z-major. Single source of truth for
/// that rank set: it_inv_b_face AND the api layer's resident-operand
/// layout realizer both build from it, so uploaded blocks can never land
/// on different ranks than the solver reads.
std::vector<int> it_inv_b_face_members(int p1, int p2);

/// The canonical B face (the y = 0 plane) for it_inv_trsm inputs.
dist::Face2D it_inv_b_face(const sim::Comm& comm, int p1, int p2);

/// The canonical B distribution: rows cyclic over p1, columns in p2 slabs.
std::shared_ptr<dist::BlockCyclicDist> it_inv_b_dist(const sim::Comm& comm,
                                                     int p1, int p2,
                                                     index_t n, index_t k);

/// Automatic block count n/n0 per the Section VIII tuning tables.
int it_inv_auto_nblocks(index_t n, index_t k, int p);

/// Solve L X = B on a p1 x p1 x p2 grid over `comm`.
DistMatrix it_inv_trsm(const DistMatrix& l, const DistMatrix& b,
                       const sim::Comm& comm, int p1, int p2,
                       ItInvOptions opts = {});

}  // namespace catrsm::trsm

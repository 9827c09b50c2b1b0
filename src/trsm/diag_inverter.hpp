#pragma once
// The paper's Section VI-A: Diagonal-Inverter. Invert the n/n0 triangular
// blocks along the diagonal of L, each on its own r1 x r1 x r2 subgrid of
// p * n0/n ranks, all in parallel.
//
// All blocks travel to their subgrids in ONE personalized all-to-all (and
// back in one more), so the layout transitions cost O(alpha log p +
// beta (n n0 / p) log p) — the paper's lines 6/9/16/17 — and the inversions
// themselves add only O(log^2 (p n0 / n)) latency. Only the inverted
// blocks come back: each rank receives its pieces of them in L's layout
// (about n n0 / p1^2 doubles on a p1 x p1 face, against n^2 / p1^2 for a
// full copy of L), and the iterative solver reads the off-diagonal panels
// from L itself.

#include <vector>

#include "dist/dist_matrix.hpp"
#include "sim/comm.hpp"

namespace catrsm::trsm {

using dist::DistMatrix;
using la::index_t;

struct DiagInvOptions {
  /// Base-case size handed down to the per-block recursive inversions.
  index_t base_size = 16;
};

/// One rank's pieces of the inverted diagonal blocks. Entry b is
/// inv(L(S_b, S_b)) restricted to the rank's rows x cols of L's layout
/// that fall in block b — |my rows ∩ S_b| x |my cols ∩ S_b|, row-major in
/// ascending global index (the rank's local block of L, cut to S_b x S_b).
/// Empty on ranks outside L's face.
using DiagInverse = std::vector<la::Matrix>;

/// `l` is n x n lower-triangular, cyclic (unit blocks) on a face over
/// `comm`; the diagonal blocks S_b = [b nb, min((b + 1) nb, n)) with
/// nb = ceil(n / nblocks) are inverted (nblocks must leave none of them
/// empty). With more blocks than ranks a subgrid inverts several of them
/// in turn; otherwise each block gets floor(p / nblocks) ranks. Returns
/// this rank's pieces of the inverses, one entry per block.
DiagInverse diag_inverter(const DistMatrix& l, const sim::Comm& comm,
                          int nblocks, DiagInvOptions opts = {});

}  // namespace catrsm::trsm

#pragma once
// Generic layout transitions between arbitrary distributions, built on the
// personalized all-to-all (so every transition costs the paper's
// O(alpha log p + beta (words/2) log p) under the Bruck schedule).
//
// All routing is derived arithmetically from the two Distribution
// descriptors: the sender emits its elements in ascending global order per
// destination, the receiver consumes each source stream in the same order,
// and no size or index metadata beyond the all-to-all's own headers ever
// travels. The four transitions share one separable element map (an
// optional axis swap plus an optional reversal of each axis), so the host
// index math is per axis, not per element: owner tables over the part
// grid, per-axis part vectors on the send side, and per-source-part
// position lists on the receive side, walked in ascending source order —
// O(local block + (rows + cols) * parts) per call, with no sort. Ranks outside either distribution's face still participate in
// the exchange (with empty payloads), so a matrix can move between
// disjoint rank subsets of a larger communicator.

#include <memory>
#include <vector>

#include "coll/alltoall.hpp"
#include "dist/dist_matrix.hpp"
#include "sim/cost.hpp"

namespace catrsm::dist {

/// Owner table of a distribution over a communicator: the comm index of
/// the rank holding each (row part, col part) intersection. Built once per
/// transition from the part grid (O(parts + comm size)), it replaces a
/// per-element virtual owner lookup plus a linear rank search with one
/// array read. Throws catrsm::Error, naming `who`, when an owner lies
/// outside `comm`.
class OwnerTable {
 public:
  OwnerTable(const Distribution& d, const sim::Comm& comm, const char* who);

  int col_parts() const { return col_parts_; }
  /// Comm index of the owner of (rpart, cpart).
  int at(int rpart, int cpart) const {
    return (*this)[rpart * col_parts_ + cpart];
  }
  /// The same, by flat part key rpart * col_parts() + cpart.
  int operator[](int key) const {
    return owner_[static_cast<std::size_t>(key)];
  }

 private:
  int col_parts_;
  std::vector<int> owner_;  // row-major over (rpart, cpart)
};

/// Move `src` into layout `dst` (same global shape). Collective over
/// `comm`, which must contain every rank of both faces.
DistMatrix redistribute(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm,
                        coll::AlltoallAlgo algo = coll::AlltoallAlgo::kBruck);

/// The transpose of `src` under `dst` (dst must be cols x rows of src).
DistMatrix transpose(const DistMatrix& src,
                     std::shared_ptr<const Distribution> dst,
                     const sim::Comm& comm,
                     coll::AlltoallAlgo algo = coll::AlltoallAlgo::kBruck);

/// Row-reversed copy J * src under `dst` (same shape): element (i, j)
/// moves to (rows - 1 - i, j).
DistMatrix reverse_rows(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm,
                        coll::AlltoallAlgo algo = coll::AlltoallAlgo::kBruck);

/// Fully reversed copy J * src * J under `dst` (same shape).
DistMatrix reverse_both(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm,
                        coll::AlltoallAlgo algo = coll::AlltoallAlgo::kBruck);

/// Estimated number of elements that change owner in a src -> dst
/// transition (same global shape). Sampled on a deterministic <= 64 x 64
/// index grid and scaled — exact for shapes up to 64 per dimension, and
/// for the cyclic/blocked layouts here the sampled fraction is
/// representative at any size. Host-side; used by the Program optimizer's
/// placement pass, never by execution.
double moved_words(const Distribution& src, const Distribution& dst);

/// Modeled cost of redistribute() between the two layouts on a p-rank
/// communicator under the Bruck schedule: S = ceil(log2 p) rounds, W =
/// (moved / 2) * ceil(log2 p) — the same O(alpha log p + beta (w/2) log p)
/// the executed transition charges.
sim::Cost redistribute_model_cost(const Distribution& src,
                                  const Distribution& dst, int p);

/// Materialize the full global matrix on EVERY rank of `comm` (allgather).
la::Matrix collect(const DistMatrix& m, const sim::Comm& comm);

/// Assemble the sub-block [rlo, rhi) x [clo, chi) on every rank of `comm`
/// from the members' pieces, reading element values from `local` (a
/// working copy that may have evolved past the DistMatrix that defined the
/// layout). Elements owned by no member of `comm` are left zero.
la::Matrix gather_region(const Distribution& d, const la::Matrix& local,
                         int me, const sim::Comm& comm, index_t rlo,
                         index_t rhi, index_t clo, index_t chi);

/// Purely local re-indexing of the sub-block [i0, i0+rows) x [j0, j0+cols)
/// of a unit-block cyclic matrix: the result is cyclic on the same face
/// with shifted source parts, and every rank keeps exactly its own
/// elements (no communication).
DistMatrix cyclic_subblock(const DistMatrix& m, index_t i0, index_t j0,
                           index_t rows, index_t cols);

/// Inverse of cyclic_subblock: write `sub`'s elements back into `m` at
/// offset (i0, j0). Purely local.
void set_cyclic_subblock(DistMatrix& m, index_t i0, index_t j0,
                         const DistMatrix& sub);

}  // namespace catrsm::dist

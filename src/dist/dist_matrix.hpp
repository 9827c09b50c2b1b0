#pragma once
// A distributed matrix as seen by ONE simulated rank: a shared ownership
// descriptor (the Distribution) plus this rank's local block, stored
// row-major over the sorted global indices the rank owns. Ranks outside the
// distribution's face hold an empty 0 x 0 local block and report
// participates() == false — they can still describe, redistribute, and
// collect the matrix.

#include <functional>
#include <memory>
#include <vector>

#include "dist/layout.hpp"
#include "la/matrix.hpp"

namespace catrsm::dist {

class DistMatrix {
 public:
  DistMatrix() = default;

  /// My view of a matrix distributed by `d`; `me` is my world rank. The
  /// local block is allocated (zero-filled) immediately.
  DistMatrix(std::shared_ptr<const Distribution> d, int me);

  /// The same view adopting `local` as my block — no zero-fill, no copy.
  /// Throws catrsm::Error, leaving `local` untouched, unless its shape is
  /// exactly my local shape under `d`.
  DistMatrix(std::shared_ptr<const Distribution> d, int me,
             la::Matrix&& local);

  const Distribution& dist() const { return *dist_; }
  std::shared_ptr<const Distribution> dist_ptr() const { return dist_; }
  int me() const { return me_; }
  bool participates() const { return participates_; }

  la::Matrix& local() { return local_; }
  const la::Matrix& local() const { return local_; }

  /// Sorted global row (resp. column) indices of my local block.
  const std::vector<index_t>& my_rows() const { return my_rows_; }
  const std::vector<index_t>& my_cols() const { return my_cols_; }

  /// Set every local element from a generator over GLOBAL indices.
  /// No-op for non-participants.
  void fill(const std::function<double(index_t, index_t)>& f);

  /// Set every local element from a full global matrix (shape-checked).
  void fill_from_global(const la::Matrix& global);

 private:
  std::shared_ptr<const Distribution> dist_;
  int me_ = -1;
  bool participates_ = false;
  std::vector<index_t> my_rows_;
  std::vector<index_t> my_cols_;
  la::Matrix local_;

  /// Resolve my parts and sorted index lists from dist_ and me_.
  void init_indices();
};

}  // namespace catrsm::dist

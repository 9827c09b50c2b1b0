#include "dist/dist_matrix.hpp"

#include "support/check.hpp"

namespace catrsm::dist {

DistMatrix::DistMatrix(std::shared_ptr<const Distribution> d, int me)
    : dist_(std::move(d)), me_(me) {
  init_indices();
  local_ = la::Matrix(static_cast<index_t>(my_rows_.size()),
                      static_cast<index_t>(my_cols_.size()));
}

DistMatrix DistMatrix::uninit(std::shared_ptr<const Distribution> d,
                              int me) {
  DistMatrix out;
  out.dist_ = std::move(d);
  out.me_ = me;
  out.init_indices();
  out.local_ = la::Matrix::uninit(static_cast<index_t>(out.my_rows_.size()),
                                  static_cast<index_t>(out.my_cols_.size()));
  return out;
}

DistMatrix::DistMatrix(std::shared_ptr<const Distribution> d, int me,
                       la::Matrix&& local)
    : dist_(std::move(d)), me_(me) {
  init_indices();
  CATRSM_CHECK(local.rows() == static_cast<index_t>(my_rows_.size()) &&
                   local.cols() == static_cast<index_t>(my_cols_.size()),
               "DistMatrix: adopted block does not match my local shape");
  local_ = std::move(local);
}

void DistMatrix::init_indices() {
  CATRSM_CHECK(dist_ != nullptr, "DistMatrix: null distribution");
  const auto parts = dist_->parts_of_world(me_);
  participates_ = parts.has_value();
  if (participates_) {
    my_rows_ = dist_->rows_of_part(parts->first);
    my_cols_ = dist_->cols_of_part(parts->second);
  }
}

void DistMatrix::fill(const std::function<double(index_t, index_t)>& f) {
  for (std::size_t r = 0; r < my_rows_.size(); ++r)
    for (std::size_t c = 0; c < my_cols_.size(); ++c)
      local_(static_cast<index_t>(r), static_cast<index_t>(c)) =
          f(my_rows_[r], my_cols_[c]);
}

void DistMatrix::fill_from_global(const la::Matrix& global) {
  CATRSM_CHECK(global.rows() == dist_->rows() &&
                   global.cols() == dist_->cols(),
               "fill_from_global: shape mismatch with distribution");
  fill([&](index_t i, index_t j) { return global(i, j); });
}

}  // namespace catrsm::dist

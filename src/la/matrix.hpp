#pragma once
// Dense row-major matrix type used for all local (per-rank) storage.
//
// Design notes (per C++ Core Guidelines): owning value type with RAII
// storage, cheap moves, no implicit expensive copies hidden behind
// operators; element access is bounds-checked through CATRSM_ASSERT only in
// the (i, j) accessor used outside of kernels — kernels index the raw span.

#include <cstddef>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace catrsm::la {

using index_t = long long;

/// Minimal allocator giving matrix storage cache-line (64-byte) alignment.
/// SIMD kernels get aligned loads for free, and the non-temporal store
/// fast path — which hard-requires 64-byte-aligned rows — can engage on
/// Matrix-backed outputs instead of only on incidental allocations.
template <class T>
struct CacheAlignedAlloc {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheAlignedAlloc() = default;
  template <class U>
  CacheAlignedAlloc(const CacheAlignedAlloc<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }

  /// Default-initialize on argumentless construction, so a vector sized
  /// without a fill value is left uninitialized (Matrix::uninit); every
  /// other construction forwards as usual.
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <class U>
  bool operator==(const CacheAlignedAlloc<U>&) const {
    return true;
  }
  template <class U>
  bool operator!=(const CacheAlignedAlloc<U>&) const {
    return false;
  }
};

using aligned_vector = std::vector<double, CacheAlignedAlloc<double>>;

class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(index_t rows, index_t cols);

  /// rows x cols matrix with UNINITIALIZED storage: for a block the caller
  /// overwrites element for element (an unpack, a GEMM with beta = 0),
  /// where the zero-fill would be a wasted pass over memory.
  static Matrix uninit(index_t rows, index_t cols);

  /// rows x cols matrix from existing row-major data (size must match).
  /// Copies into the matrix's aligned storage — a std::vector's buffer
  /// cannot be adopted at 64-byte alignment.
  Matrix(index_t rows, index_t cols, const std::vector<double>& data);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }

  double& operator()(index_t i, index_t j) {
    CATRSM_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                  "matrix index out of range");
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  double operator()(index_t i, index_t j) const {
    CATRSM_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                  "matrix index out of range");
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  /// Raw row-major storage (kernels use this; size() elements).
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }
  double* ptr() { return data_.data(); }
  const double* ptr() const { return data_.data(); }

  /// Copy of the block [i0, i0+r) x [j0, j0+c).
  Matrix block(index_t i0, index_t j0, index_t r, index_t c) const;

  /// Write src into the block starting at (i0, j0).
  void set_block(index_t i0, index_t j0, const Matrix& src);

  /// In-place += / -= of a same-shape matrix.
  void add(const Matrix& other);
  void sub(const Matrix& other);
  void scale(double s);

  /// New transposed copy.
  Matrix transposed() const;

  /// Exact elementwise equality (used by determinism tests).
  bool equals(const Matrix& other) const;

  static Matrix identity(index_t n);
  static Matrix zeros(index_t rows, index_t cols);

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  aligned_vector data_;
};

}  // namespace catrsm::la

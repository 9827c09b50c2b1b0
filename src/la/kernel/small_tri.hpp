#pragma once
// Strided scalar f64 kernels for small triangular diagonal blocks. The
// blocked la::trsm / la::trmm / la::tri_inv algorithms resolve all
// cross-block dependencies through packed GEMM panels (kernel::gemm) and
// only ever hand these routines one diagonal block at a time, so nb stays
// at the block size and the O(nb^2 k) substitution work is a small
// fraction of the total. Inner loops run over the contiguous RHS dimension
// with no data-dependent branches, so they auto-vectorize.

#include "la/matrix.hpp"

namespace catrsm::la::kernel {

/// Solve T X = B in place (B := T^-1 B). T: nb x nb lower triangular with
/// leading dim ldt; B: nb x k with leading dim ldb.
void trsm_ll_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit);

/// Same with T upper triangular (backward substitution).
void trsm_lu_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit);

/// Solve X T = B in place with T upper triangular. B: m x nb.
void trsm_ru_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t m, index_t nb, bool unit);

/// Solve X T = B in place with T lower triangular. B: m x nb.
void trsm_rl_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t m, index_t nb, bool unit);

/// B := T * B in place with T lower triangular. B: nb x k.
void trmm_ll_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit);

/// B := T * B in place with T upper triangular. B: nb x k.
void trmm_lu_block(const double* t, index_t ldt, double* b, index_t ldb,
                   index_t nb, index_t k, bool unit);

/// inv := T^-1 for an nb x nb lower triangular block by column-wise
/// forward substitution on the identity (nb^3/3 flops — the substitution
/// skips the identity's structural zeros). Writes ONLY the lower triangle
/// of inv; the strict upper triangle is never touched, so a zero-
/// initialized destination stays exactly triangular.
void tri_inv_ll_block(const double* t, index_t ldt, double* inv, index_t ldi,
                      index_t nb);

/// Same for an upper triangular block (writes only the upper triangle).
void tri_inv_uu_block(const double* t, index_t ldt, double* inv, index_t ldi,
                      index_t nb);

}  // namespace catrsm::la::kernel

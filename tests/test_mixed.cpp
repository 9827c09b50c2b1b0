// Mixed-precision triangular solve: the f32 blocked solve must be
// correct to f32 accuracy on its own, and the refined solve must land
// within a small constant of the pure-f64 residual — "fast path, full
// accuracy" is the whole point of the precision envelope.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/generate.hpp"
#include "la/matrix.hpp"
#include "la/mixed.hpp"
#include "la/norms.hpp"
#include "la/trsm.hpp"

namespace catrsm::la {
namespace {

TEST(Mixed, F32SolveIsCorrectToF32Accuracy) {
  for (const index_t n : {index_t{7}, index_t{64}, index_t{129},
                          index_t{257}}) {
    const index_t k = 33;
    const Matrix l = make_lower_triangular(1000 + n, n);
    const Matrix b = make_dense(2000 + n, n, k);

    // f64 reference solve.
    Matrix x64 = b;
    trsm_left(Uplo::kLower, Diag::kNonUnit, l, x64);

    // f32 solve of the same system.
    std::vector<float> lf(static_cast<std::size_t>(n) * n);
    std::vector<float> bf(static_cast<std::size_t>(n) * k);
    for (std::size_t i = 0; i < lf.size(); ++i)
      lf[i] = static_cast<float>(l.data()[i]);
    for (std::size_t i = 0; i < bf.size(); ++i)
      bf[i] = static_cast<float>(b.data()[i]);
    trsm_left_f32(Uplo::kLower, Diag::kNonUnit, n, k, lf.data(), n, bf.data(),
                  k);

    double maxrel = 0.0;
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < k; ++j) {
        const double den = std::max(1.0, std::abs(x64(i, j)));
        maxrel = std::max(
            maxrel,
            std::abs(static_cast<double>(
                         bf[static_cast<std::size_t>(i * k + j)]) -
                     x64(i, j)) / den);
      }
    // Well inside f32 forward-error territory for these benign triangles,
    // far outside anything a broken index computation could produce.
    EXPECT_LT(maxrel, 5e-3) << "n=" << n;
  }
}

TEST(Mixed, F32SolveUpperTriangle) {
  const index_t n = 129, k = 17;
  const Matrix u = make_upper_triangular(31, n);
  const Matrix b = make_dense(32, n, k);
  Matrix x64 = b;
  trsm_left(Uplo::kUpper, Diag::kNonUnit, u, x64);

  std::vector<float> uf(static_cast<std::size_t>(n) * n);
  std::vector<float> bf(static_cast<std::size_t>(n) * k);
  for (std::size_t i = 0; i < uf.size(); ++i)
    uf[i] = static_cast<float>(u.data()[i]);
  for (std::size_t i = 0; i < bf.size(); ++i)
    bf[i] = static_cast<float>(b.data()[i]);
  trsm_left_f32(Uplo::kUpper, Diag::kNonUnit, n, k, uf.data(), n, bf.data(),
                k);

  double maxrel = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < k; ++j) {
      const double den = std::max(1.0, std::abs(x64(i, j)));
      maxrel = std::max(
          maxrel, std::abs(static_cast<double>(
                               bf[static_cast<std::size_t>(i * k + j)]) -
                           x64(i, j)) / den);
    }
  EXPECT_LT(maxrel, 5e-3);
}

TEST(Mixed, RefinementReachesF64LevelResidual) {
  for (const index_t n : {index_t{129}, index_t{257}, index_t{512}}) {
    const index_t k = 64;
    const Matrix l = make_lower_triangular(4000 + n, n);
    const Matrix b = make_dense(5000 + n, n, k);

    Matrix x64 = b;
    trsm_left(Uplo::kLower, Diag::kNonUnit, l, x64);
    const double res64 = trsm_residual(l, x64, b);

    Matrix xr = b;
    const RefineStats rs =
        trsm_refined(Uplo::kLower, Diag::kNonUnit, l, xr, 8);

    const double res_ref = trsm_residual(l, xr, b);
    EXPECT_TRUE(rs.converged) << "n=" << n;
    EXPECT_GE(rs.iterations, 1) << "n=" << n;
    // The acceptance bar from the issue: within 10x of the pure-f64
    // residual. Measured ratios sit around 1.2-1.5x; 10x leaves room
    // for unlucky rounding without ever passing a broken refinement.
    EXPECT_LE(res_ref, 10.0 * res64 + 1e-300) << "n=" << n
                                              << " res64=" << res64
                                              << " refined=" << res_ref;
    // The reported residual is computed with a different formula (TRMM
    // inside the loop vs GEMM here), so at the rounding floor the two
    // only agree to within a small factor — check the magnitude, not
    // the digits.
    EXPECT_GT(rs.residual, 0.0) << "n=" << n;
    EXPECT_LE(rs.residual, 50.0 * res64 + 1e-300) << "n=" << n;
  }
}

TEST(Mixed, RefinementHandlesUnitDiagonal) {
  const index_t n = 257, k = 32;
  Matrix l = make_lower_triangular(61, n);
  // Stored diagonal is junk for a unit solve; make it clearly non-unit
  // but O(1) — a wildly scaled junk diagonal would only stress the
  // cancellation in the residual patch, not the solve being tested.
  for (index_t i = 0; i < n; ++i)
    l(i, i) = 2.5 + 0.01 * static_cast<double>(i);
  const Matrix b = make_dense(62, n, k);

  Matrix x64 = b;
  trsm_left(Uplo::kLower, Diag::kUnit, l, x64);

  Matrix xr = b;
  const RefineStats rs = trsm_refined(Uplo::kLower, Diag::kUnit, l, xr, 8);
  EXPECT_TRUE(rs.converged);

  // Residual against the unit-diagonal operator, computed directly.
  Matrix r64 = b;
  Matrix rref = b;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < k; ++j) {
      double s64 = x64(i, j);
      double sref = xr(i, j);
      for (index_t t = 0; t < i; ++t) {
        s64 += l(i, t) * x64(t, j);
        sref += l(i, t) * xr(t, j);
      }
      r64(i, j) -= s64;
      rref(i, j) -= sref;
    }
  const double f64n = frobenius_norm(r64);
  const double refn = frobenius_norm(rref);
  EXPECT_LE(refn, 10.0 * f64n + 1e-300);
}

TEST(Mixed, EmptyAndTinyProblems) {
  Matrix l0(0, 0);
  Matrix b0(0, 5);
  const RefineStats rs0 =
      trsm_refined(Uplo::kLower, Diag::kNonUnit, l0, b0, 4);
  EXPECT_TRUE(rs0.converged);
  EXPECT_EQ(rs0.iterations, 0);

  const Matrix l1 = make_lower_triangular(71, 1);
  const Matrix b1 = make_dense(72, 1, 1);
  Matrix x1 = b1;
  const RefineStats rs1 =
      trsm_refined(Uplo::kLower, Diag::kNonUnit, l1, x1, 4);
  EXPECT_TRUE(rs1.converged);
  EXPECT_NEAR(x1(0, 0), b1(0, 0) / l1(0, 0), 1e-12);
}

}  // namespace
}  // namespace catrsm::la

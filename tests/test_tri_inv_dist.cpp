// Tests for distributed recursive triangular inversion (Section V) and the
// diagonal-block inverter (Section VI-A).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dist/redistribute.hpp"
#include "la/generate.hpp"
#include "la/gemm.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "sim/machine.hpp"
#include "trsm/diag_inverter.hpp"
#include "trsm/tri_inv_dist.hpp"

namespace catrsm::trsm {
namespace {

using dist::Face2D;
using la::Matrix;
using sim::Comm;
using sim::Machine;
using sim::Rank;
using sim::RunStats;

struct InvCase {
  index_t n;
  int pr, pc;
  index_t base;
};

class TriInvSweep : public ::testing::TestWithParam<InvCase> {};

TEST_P(TriInvSweep, InverseResidualSmall) {
  const InvCase tc = GetParam();
  Machine m(tc.pr * tc.pc);
  const Matrix l = la::make_lower_triangular(21, tc.n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, tc.pr, tc.pc);
    auto ld = dist::cyclic_on(face, tc.n, tc.n);
    DistMatrix dl(ld, r.id());
    dl.fill_from_global(l);
    TriInvOptions opts;
    opts.base_size = tc.base;
    DistMatrix dinv = tri_inv_dist(dl, world, opts);
    const Matrix inv = collect(dinv, world);
    EXPECT_LT(la::inv_residual(l, inv), 1e-11)
        << "n=" << tc.n << " grid=" << tc.pr << "x" << tc.pc;
    // Distributed must match the sequential recursion closely.
    const Matrix seq = la::tri_inv(la::Uplo::kLower, l);
    EXPECT_LT(la::max_abs_diff(inv, seq), 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TriInvSweep,
    ::testing::Values(InvCase{8, 1, 1, 4},     // sequential
                      InvCase{16, 2, 2, 4},    // one split level
                      InvCase{32, 2, 2, 8},    // two levels
                      InvCase{32, 4, 4, 8},    // 16 ranks
                      InvCase{17, 2, 2, 4},    // odd n
                      InvCase{24, 2, 3, 4},    // non-square, non-pow2
                      InvCase{64, 2, 4, 16})); // rectangular grid

TEST(TriInvDist, LatencyIsPolylog) {
  // S = O(log^2 p): each of the log p recursion levels costs O(log p)
  // rounds (redistributions + MM collectives). The measured constant is
  // ~12 rounds per log p unit; assert the absolute polylog envelope and
  // sub-linear growth in p at several machine sizes.
  const index_t n = 96;
  auto measure = [&](int pr, int pc) {
    Machine m(pr * pc);
    const Matrix l = la::make_lower_triangular(23, n);
    return m.run([&](Rank& r) {
      Comm world = Comm::world(r);
      Face2D face(world, pr, pc);
      auto ld = dist::cyclic_on(face, n, n);
      DistMatrix dl(ld, r.id());
      dl.fill_from_global(l);
      TriInvOptions opts;
      opts.base_size = 4;
      (void)tri_inv_dist(dl, world, opts);
    });
  };
  const RunStats s4 = measure(2, 2);
  const RunStats s16 = measure(4, 4);
  const RunStats s64 = measure(8, 8);
  auto envelope = [](int p) {
    const double lg = std::log2(static_cast<double>(p));
    return 20.0 * lg * lg;
  };
  EXPECT_LT(s4.max_msgs(), envelope(4));
  EXPECT_LT(s16.max_msgs(), envelope(16));
  EXPECT_LT(s64.max_msgs(), envelope(64));
  // Growth from p=16 to p=64 must stay far below the 4x of a latency
  // schedule linear in p.
  EXPECT_LT(s64.max_msgs(), 2.8 * s16.max_msgs());
}

TEST(TriInvDist, ResultStaysLowerTriangular) {
  const index_t n = 20;
  Machine m(4);
  const Matrix l = la::make_lower_triangular(25, n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 2);
    auto ld = dist::cyclic_on(face, n, n);
    DistMatrix dl(ld, r.id());
    dl.fill_from_global(l);
    const Matrix inv = collect(tri_inv_dist(dl, world), world);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = i + 1; j < n; ++j)
        EXPECT_NEAR(inv(i, j), 0.0, 1e-14);
  });
}

struct DiagCase {
  index_t n;
  int p;
  int nblocks;
};

/// Check that `pieces` holds exactly one piece per diagonal block, each
/// |my rows ∩ block| x |my cols ∩ block| of `dl`'s layout, and write them
/// at their global positions in `lt` (the ranks' pieces are disjoint, so
/// every rank may write the shared host matrix).
void place_pieces(const DistMatrix& dl, const DiagInverse& pieces,
                  int nblocks, Matrix& lt) {
  if (!dl.participates()) {
    EXPECT_TRUE(pieces.empty());
    return;
  }
  const index_t n = dl.dist().rows();
  const index_t nb = ceil_div(n, nblocks);
  ASSERT_EQ(pieces.size(), static_cast<std::size_t>(nblocks));
  for (int bkt = 0; bkt < nblocks; ++bkt) {
    const index_t o = static_cast<index_t>(bkt) * nb;
    const index_t hi = std::min<index_t>(o + nb, n);
    const auto in_block = [&](index_t g) { return g >= o && g < hi; };
    std::vector<index_t> rows, cols;
    for (const index_t i : dl.my_rows())
      if (in_block(i)) rows.push_back(i);
    for (const index_t j : dl.my_cols())
      if (in_block(j)) cols.push_back(j);
    const Matrix& piece = pieces[static_cast<std::size_t>(bkt)];
    ASSERT_EQ(piece.rows(), static_cast<index_t>(rows.size()))
        << "block " << bkt << " rank " << dl.me();
    ASSERT_EQ(piece.cols(), static_cast<index_t>(cols.size()))
        << "block " << bkt << " rank " << dl.me();
    for (std::size_t a = 0; a < rows.size(); ++a)
      for (std::size_t c = 0; c < cols.size(); ++c)
        lt(rows[a], cols[c]) =
            piece(static_cast<index_t>(a), static_cast<index_t>(c));
  }
}

/// Host matrix of NaNs: a diagonal-block element no rank's piece covers
/// stays NaN and fails the inverse-residual bound.
Matrix nan_matrix(index_t n) {
  Matrix out(n, n);
  for (double& v : out.data()) v = std::numeric_limits<double>::quiet_NaN();
  return out;
}

class DiagInvSweep : public ::testing::TestWithParam<DiagCase> {};

TEST_P(DiagInvSweep, InvertsDiagonalBlocksIntoCompactPieces) {
  const DiagCase tc = GetParam();
  Machine m(tc.p);
  const Matrix l = la::make_lower_triangular(31, tc.n);
  Matrix lt = nan_matrix(tc.n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    const auto [pr, pc] = dist::balanced_factors(tc.p);
    Face2D face(world, pr, pc);
    auto ld = dist::cyclic_on(face, tc.n, tc.n);
    DistMatrix dl(ld, r.id());
    dl.fill_from_global(l);
    place_pieces(dl, diag_inverter(dl, world, tc.nblocks), tc.nblocks, lt);
  });
  const index_t nb = ceil_div(tc.n, tc.nblocks);
  for (int bkt = 0; bkt < tc.nblocks; ++bkt) {
    const index_t o = static_cast<index_t>(bkt) * nb;
    const index_t sz = std::min<index_t>(nb, tc.n - o);
    // Diagonal block must be the inverse of the original block.
    const Matrix orig = l.block(o, o, sz, sz);
    const Matrix got = lt.block(o, o, sz, sz);
    EXPECT_LT(la::inv_residual(orig, got), 1e-11)
        << "block " << bkt << " n=" << tc.n << " p=" << tc.p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiagInvSweep,
    ::testing::Values(DiagCase{16, 4, 1},    // full inversion, all ranks
                      DiagCase{16, 4, 2},    // two blocks, two ranks each
                      DiagCase{16, 4, 4},    // one rank per block
                      DiagCase{24, 8, 4},    // two ranks per block
                      DiagCase{17, 4, 3},    // ragged blocks
                      DiagCase{32, 6, 3},    // q=2 on non-pow2 p
                      DiagCase{32, 16, 4})); // subgrids of 4

TEST(DiagInverter, AllBlocksInvertInParallelLatency) {
  // Inverting 4 blocks with 4 subgrids should cost barely more latency
  // than inverting 1 block with one subgrid of the same size — the blocks
  // proceed concurrently (plus the shared scatter/gather all-to-alls).
  const index_t n = 64;
  auto measure = [&](int p, int nblocks) {
    Machine m(p);
    const Matrix l = la::make_lower_triangular(33, n);
    return m.run([&](Rank& r) {
      Comm world = Comm::world(r);
      const auto [pr, pc] = dist::balanced_factors(p);
      Face2D face(world, pr, pc);
      auto ld = dist::cyclic_on(face, n, n);
      DistMatrix dl(ld, r.id());
      dl.fill_from_global(l);
      (void)diag_inverter(dl, world, nblocks);
    });
  };
  const RunStats one = measure(4, 1);    // one 64-block on 4 ranks
  const RunStats four = measure(16, 4);  // four 16-blocks on 4 ranks each
  EXPECT_LT(four.max_msgs(), 2.5 * one.max_msgs());
}

TEST(DiagInverter, MoreBlocksThanRanksInvertSequentially) {
  const index_t n = 16;
  Machine m(2);
  const Matrix l = la::make_lower_triangular(35, n);
  Matrix lt = nan_matrix(n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 1, 2);
    auto ld = dist::cyclic_on(face, n, n);
    DistMatrix dl(ld, r.id());
    dl.fill_from_global(l);
    // 4 blocks on 2 ranks: each rank holds all 4 rows and 2 columns of
    // every block.
    const DiagInverse pieces = diag_inverter(dl, world, 4);
    for (const Matrix& piece : pieces) {
      EXPECT_EQ(piece.rows(), 4);
      EXPECT_EQ(piece.cols(), 2);
    }
    place_pieces(dl, pieces, 4, lt);
  });
  for (int bkt = 0; bkt < 4; ++bkt) {
    const index_t o = bkt * 4;
    EXPECT_LT(la::inv_residual(l.block(o, o, 4, 4), lt.block(o, o, 4, 4)),
              1e-12);
  }
}

}  // namespace
}  // namespace catrsm::trsm

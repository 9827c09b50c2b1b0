// Tests for processor grids, distributions, distributed matrices, and the
// generic redistribution engine.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "dist/dist_matrix.hpp"
#include "dist/grid.hpp"
#include "dist/layout.hpp"
#include "dist/redistribute.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "sim/machine.hpp"

namespace catrsm::dist {
namespace {

using la::Matrix;
using sim::Comm;
using sim::Machine;
using sim::Rank;

TEST(Grid, Face2DPositionsAndFibers) {
  Machine m(6);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 3);
    EXPECT_EQ(face.at(face.my_gi(), face.my_gj()), r.id());
    Comm row = face.row_comm();
    EXPECT_EQ(row.size(), 3);
    Comm col = face.col_comm();
    EXPECT_EQ(col.size(), 2);
    // Row comm is ordered by gj, so my index equals my gj.
    EXPECT_EQ(row.rank(), face.my_gj());
    EXPECT_EQ(col.rank(), face.my_gi());
  });
}

TEST(Grid, ProcGrid3DFibersContainSelf) {
  Machine m(2 * 2 * 3);
  m.run([](Rank& r) {
    ProcGrid3D g(Comm::world(r), 2, 3);
    EXPECT_EQ(g.at(g.my_x(), g.my_y(), g.my_z()), r.id());
    EXPECT_EQ(g.x_fiber().size(), 2);
    EXPECT_EQ(g.y_fiber().size(), 2);
    EXPECT_EQ(g.z_fiber().size(), 3);
    EXPECT_EQ(g.x_fiber().rank(), g.my_x());
    EXPECT_EQ(g.y_fiber().rank(), g.my_y());
    EXPECT_EQ(g.z_fiber().rank(), g.my_z());
  });
}

TEST(Grid, BalancedFactors) {
  EXPECT_EQ(balanced_factors(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(balanced_factors(12), (std::pair<int, int>{3, 4}));
  EXPECT_EQ(balanced_factors(7), (std::pair<int, int>{1, 7}));
  EXPECT_EQ(balanced_factors(1), (std::pair<int, int>{1, 1}));
}

TEST(Layout, BlockCyclicOwnershipPartition) {
  // Every element has exactly one owner and local shapes tile the matrix.
  Machine m(6);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 3);
    BlockCyclicDist d(face, 11, 13, 2, 3);
    index_t total = 0;
    for (int w = 0; w < 6; ++w) {
      const auto shape = d.local_shape(w);
      total += shape.first * shape.second;
    }
    EXPECT_EQ(total, 11 * 13);
    // parts_of_world and world_rank_of are inverse.
    const auto parts = d.parts_of_world(r.id());
    ASSERT_TRUE(parts.has_value());
    EXPECT_EQ(d.world_rank_of(parts->first, parts->second), r.id());
  });
}

TEST(Layout, CyclicIsBlockCyclicWithUnitBlocks) {
  Machine m(4);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 2);
    auto d = cyclic_on(face, 8, 8);
    EXPECT_EQ(d->part_of_row(5), 1);
    EXPECT_EQ(d->part_of_col(6), 0);
    const auto rows = d->rows_of_part(1);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0], 1);
    EXPECT_EQ(rows[3], 7);
  });
}

TEST(Layout, RowCyclicColBlockedSlabs) {
  Machine m(6);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 3);
    auto d = row_cyclic_col_blocked(face, 10, 9);
    // Columns fall into 3 contiguous slabs of 3.
    EXPECT_EQ(d->part_of_col(0), 0);
    EXPECT_EQ(d->part_of_col(2), 0);
    EXPECT_EQ(d->part_of_col(3), 1);
    EXPECT_EQ(d->part_of_col(8), 2);
    EXPECT_EQ(d->part_of_row(7), 1);
  });
}

TEST(Layout, Cyclic3DOwnershipPartition) {
  Machine m(2 * 2 * 2);
  m.run([](Rank& r) {
    ProcGrid3D g(Comm::world(r), 2, 2);
    Cyclic3DDist d(g, 9, 7);
    index_t total = 0;
    for (int w = 0; w < 8; ++w) {
      const auto shape = d.local_shape(w);
      total += shape.first * shape.second;
    }
    EXPECT_EQ(total, 9 * 7);
    const auto parts = d.parts_of_world(r.id());
    ASSERT_TRUE(parts.has_value());
    EXPECT_EQ(d.world_rank_of(parts->first, parts->second), r.id());
    // Row ownership: i = 5 has x = 1, z = (5/2) % 2 = 0 -> rpart = 1.
    EXPECT_EQ(d.part_of_row(5), 1);
  });
}

TEST(DistMatrix, FillAndCollectRoundTrip) {
  const index_t n = 12, k = 9;
  Machine m(6);
  const Matrix ref = la::make_dense(33, n, k);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 3);
    auto d = std::make_shared<BlockCyclicDist>(face, n, k, 2, 2);
    DistMatrix dm(d, r.id());
    dm.fill([&](index_t i, index_t j) { return ref(i, j); });
    Matrix got = collect(dm, world);
    EXPECT_LT(la::max_abs_diff(got, ref), 1e-15);
  });
}

TEST(DistMatrix, LocalRowsColsAreSortedGlobals) {
  Machine m(4);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 2);
    auto d = std::make_shared<BlockCyclicDist>(face, 10, 10, 3, 3);
    DistMatrix dm(d, r.id());
    const auto& rows = dm.my_rows();
    for (std::size_t i = 1; i < rows.size(); ++i)
      EXPECT_LT(rows[i - 1], rows[i]);
  });
}

struct RedistCase {
  int p;
  index_t rows, cols;
  index_t src_br, src_bc;
  index_t dst_br, dst_bc;
};

class RedistSweep : public ::testing::TestWithParam<RedistCase> {};

TEST_P(RedistSweep, PreservesEveryElement) {
  const RedistCase tc = GetParam();
  Machine m(tc.p);
  const Matrix ref = la::make_dense(77, tc.rows, tc.cols);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    const auto [pr, pc] = balanced_factors(tc.p);
    Face2D face(world, pr, pc);
    auto src_d = std::make_shared<BlockCyclicDist>(face, tc.rows, tc.cols,
                                                   tc.src_br, tc.src_bc);
    // Destination face deliberately transposed to force real movement.
    Face2D dface(world, pc, pr);
    auto dst_d = std::make_shared<BlockCyclicDist>(dface, tc.rows, tc.cols,
                                                   tc.dst_br, tc.dst_bc);
    DistMatrix src(src_d, r.id());
    src.fill_from_global(ref);
    DistMatrix dst = redistribute(src, dst_d, world);
    Matrix got = collect(dst, world);
    EXPECT_LT(la::max_abs_diff(got, ref), 1e-15);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedistSweep,
    ::testing::Values(RedistCase{1, 5, 5, 1, 1, 2, 2},
                      RedistCase{4, 8, 8, 1, 1, 2, 2},
                      RedistCase{4, 9, 7, 1, 1, 4, 4},
                      RedistCase{6, 12, 10, 2, 1, 1, 3},
                      RedistCase{8, 16, 16, 1, 1, 16, 16},
                      RedistCase{12, 13, 11, 3, 2, 1, 1},
                      RedistCase{16, 32, 8, 1, 1, 2, 2}));

TEST(Redistribute, CyclicToCyclic3DAndBack) {
  const index_t n = 12;
  const int p1 = 2, p2 = 2;
  Machine m(p1 * p1 * p2);
  const Matrix ref = la::make_lower_triangular(88, n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    const auto [pr, pc] = balanced_factors(world.size());
    Face2D face(world, pr, pc);
    auto c2d = cyclic_on(face, n, n);
    DistMatrix src(c2d, r.id());
    src.fill_from_global(ref);

    ProcGrid3D g(world, p1, p2);
    auto c3d = std::make_shared<Cyclic3DDist>(g, n, n);
    DistMatrix mid = redistribute(src, c3d, world);
    DistMatrix back = redistribute(mid, c2d, world);
    EXPECT_LT(la::max_abs_diff(collect(back, world), ref), 1e-15);
  });
}

TEST(Redistribute, DirectAlgoMatchesBruck) {
  const index_t n = 10;
  Machine m(4);
  const Matrix ref = la::make_dense(99, n, n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 2);
    auto src_d = std::make_shared<BlockCyclicDist>(face, n, n, 1, 1);
    auto dst_d = std::make_shared<BlockCyclicDist>(face, n, n, 3, 3);
    DistMatrix src(src_d, r.id());
    src.fill_from_global(ref);
    DistMatrix a = redistribute(src, dst_d, world, coll::AlltoallAlgo::kBruck);
    DistMatrix b = redistribute(src, dst_d, world,
                                coll::AlltoallAlgo::kDirect);
    EXPECT_TRUE(a.local().equals(b.local()));
  });
}

TEST(Redistribute, SubsetFacesInsideLargerComm) {
  // Source lives on ranks {0,1}, destination on ranks {2,3}; the exchange
  // happens over the full world.
  const index_t n = 6;
  Machine m(4);
  const Matrix ref = la::make_dense(111, n, n);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D src_face(Comm(world.ctx(), {0, 1}), 1, 2);
    Face2D dst_face(Comm(world.ctx(), {2, 3}), 2, 1);
    auto src_d = std::make_shared<BlockCyclicDist>(src_face, n, n, 1, 1);
    auto dst_d = std::make_shared<BlockCyclicDist>(dst_face, n, n, 1, 1);
    DistMatrix src(src_d, r.id());
    if (src.participates()) src.fill_from_global(ref);
    DistMatrix dst = redistribute(src, dst_d, world);
    EXPECT_EQ(dst.participates(), r.id() >= 2);
    Matrix got = collect(dst, world);
    EXPECT_LT(la::max_abs_diff(got, ref), 1e-15);
  });
}

TEST(GatherRegion, AssemblesArbitrarySubBlocksEverywhere) {
  const index_t n = 14, k = 11;
  Machine m(6);
  const Matrix ref = la::make_dense(123, n, k);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 3);
    auto d = std::make_shared<BlockCyclicDist>(face, n, k, 2, 1);
    DistMatrix dm(d, r.id());
    dm.fill_from_global(ref);
    for (const auto& [rlo, rhi, clo, chi] :
         std::vector<std::array<index_t, 4>>{
             {0, n, 0, k}, {3, 9, 2, 7}, {5, 6, 0, 1}, {0, 1, 10, 11}}) {
      const Matrix got = gather_region(dm.dist(), dm.local(), dm.me(), world,
                                       rlo, rhi, clo, chi);
      EXPECT_LT(la::max_abs_diff(got, ref.block(rlo, clo, rhi - rlo,
                                                chi - clo)),
                1e-15);
    }
  });
}

TEST(GatherRegion, WorkingCopyOverridesStoredValues) {
  // The `local` argument may be a working copy that evolved past the
  // DistMatrix — gather must read it, not the original.
  const index_t n = 8;
  Machine m(4);
  m.run([&](Rank& r) {
    Comm world = Comm::world(r);
    Face2D face(world, 2, 2);
    auto d = dist::cyclic_on(face, n, n);
    DistMatrix dm(d, r.id());
    dm.fill([](index_t, index_t) { return 1.0; });
    Matrix working = dm.local();
    working.scale(3.0);
    const Matrix got =
        gather_region(dm.dist(), working, dm.me(), world, 0, n, 0, n);
    EXPECT_DOUBLE_EQ(got(5, 5), 3.0);
  });
}

TEST(Redistribute, ShapeMismatchThrows) {
  Machine m(2);
  EXPECT_THROW(
      m.run([](Rank& r) {
        Comm world = Comm::world(r);
        Face2D face(world, 1, 2);
        auto a = std::make_shared<BlockCyclicDist>(face, 4, 4, 1, 1);
        auto b = std::make_shared<BlockCyclicDist>(face, 4, 5, 1, 1);
        DistMatrix src(a, r.id());
        (void)redistribute(src, b, world);
      }),
      Error);
}

TEST(DistMatrix, AdoptingConstructorTakesTheBlockWithoutCopying) {
  Machine m(4);
  m.run([](Rank& r) {
    Face2D face(Comm::world(r), 2, 2);
    auto d = std::make_shared<BlockCyclicDist>(face, 7, 5, 2, 1);
    const auto [lr, lc] = d->local_shape(r.id());
    Matrix block(lr, lc);
    if (block.size() > 0) block(0, 0) = 4.0;
    const double* storage = block.ptr();
    const DistMatrix dm(d, r.id(), std::move(block));
    EXPECT_EQ(dm.local().ptr(), storage);
    EXPECT_EQ(dm.my_rows().size(), static_cast<std::size_t>(lr));

    // A block of the wrong shape is rejected and left as it was.
    Matrix wrong(lr + 1, lc);
    wrong(0, 0) = 9.0;
    EXPECT_THROW(DistMatrix(d, r.id(), std::move(wrong)), Error);
    EXPECT_EQ(wrong.rows(), lr + 1);
    EXPECT_EQ(wrong(0, 0), 9.0);
  });
}

// --- Seeded property test of the four layout transitions ------------------
//
// Every transition moves each element exactly once, so its result must be
// the host-side transform of the source, bit for bit, on every rank. The
// per-rank modeled msgs/words are pinned too: the message streams (their
// lengths, and hence the Bruck/Direct schedules) must not change.

enum class Transition { kRedistribute, kTranspose, kReverseRows, kReverseBoth };

constexpr std::array<Transition, 4> kTransitions = {
    Transition::kRedistribute, Transition::kTranspose,
    Transition::kReverseRows, Transition::kReverseBoth};

const char* transition_name(Transition t) {
  switch (t) {
    case Transition::kRedistribute:
      return "redistribute";
    case Transition::kTranspose:
      return "transpose";
    case Transition::kReverseRows:
      return "reverse_rows";
    case Transition::kReverseBoth:
      return "reverse_both";
  }
  return "?";
}

Matrix host_transition(Transition t, const Matrix& a) {
  if (t == Transition::kRedistribute) return a;
  if (t == Transition::kTranspose) return a.transposed();
  Matrix out(a.rows(), a.cols());
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      out(i, j) = t == Transition::kReverseRows
                      ? a(a.rows() - 1 - i, j)
                      : a(a.rows() - 1 - i, a.cols() - 1 - j);
  return out;
}

DistMatrix run_transition(Transition t, const DistMatrix& src,
                          std::shared_ptr<const Distribution> dst,
                          const Comm& comm, coll::AlltoallAlgo algo) {
  switch (t) {
    case Transition::kRedistribute:
      return redistribute(src, std::move(dst), comm, algo);
    case Transition::kTranspose:
      return transpose(src, std::move(dst), comm, algo);
    case Transition::kReverseRows:
      return reverse_rows(src, std::move(dst), comm, algo);
    case Transition::kReverseBoth:
      return reverse_both(src, std::move(dst), comm, algo);
  }
  return {};
}

using LayoutFn = std::function<std::shared_ptr<const Distribution>(
    const Comm& world, index_t rows, index_t cols)>;

struct TransitionCase {
  const char* name;
  int p;
  index_t rows, cols;
  LayoutFn src, dst;
};

std::vector<TransitionCase> transition_cases() {
  return {
      // br/bc > 1 with nonzero source-part shifts on both sides.
      {"block_cyclic_shifted", 6, 11, 13,
       [](const Comm& w, index_t r, index_t c) {
         return std::make_shared<BlockCyclicDist>(Face2D(w, 2, 3), r, c, 2,
                                                  3, 1, 2);
       },
       [](const Comm& w, index_t r, index_t c) {
         return std::make_shared<BlockCyclicDist>(Face2D(w, 3, 2), r, c, 3,
                                                  1, 2, 1);
       }},
      // The mm3d staging layout into the iterative solver's B layout.
      {"cyclic3d_to_row_cyclic_col_blocked", 8, 9, 7,
       [](const Comm& w, index_t r, index_t c) {
         return std::make_shared<Cyclic3DDist>(ProcGrid3D(w, 2, 2), r, c);
       },
       [](const Comm& w, index_t r, index_t c) {
         return row_cyclic_col_blocked(Face2D(w, 2, 4), r, c);
       }},
      // Fewer rows (and, transposed, columns) than parts: some ranks own
      // no rows at all.
      {"ragged_empty_ranks", 8, 3, 10,
       [](const Comm& w, index_t r, index_t c) {
         return std::make_shared<BlockCyclicDist>(Face2D(w, 4, 2), r, c, 1,
                                                  1, 2, 0);
       },
       [](const Comm& w, index_t r, index_t c) {
         return cyclic_on(Face2D(w, 2, 4), r, c);
       }},
      // Disjoint subset faces inside a larger comm; rank 7 owns nothing.
      {"subset_faces", 8, 7, 6,
       [](const Comm& w, index_t r, index_t c) {
         return std::make_shared<BlockCyclicDist>(
             Face2D(Comm(w.ctx(), {1, 3, 5}), 1, 3), r, c, 1, 2);
       },
       [](const Comm& w, index_t r, index_t c) {
         return cyclic_on(Face2D(Comm(w.ctx(), {0, 2, 4, 6}), 2, 2), r, c);
       }},
  };
}

/// Per-rank "msgs/words" of a run, space-separated.
std::string per_rank_traffic(const sim::RunStats& stats) {
  std::string out;
  char buf[64];
  for (const sim::Cost& c : stats.per_rank) {
    std::snprintf(buf, sizeof buf, "%s%g/%g", out.empty() ? "" : " ",
                  c.msgs, c.words);
    out += buf;
  }
  return out;
}

// Per-rank msgs/words of every (case, transition, algorithm), as measured
// on the sort-based remap this engine replaced.
const std::map<std::string, std::string>& expected_traffic() {
  static const std::map<std::string, std::string> table = {
      {"block_cyclic_shifted/redistribute/bruck", "3/59 3/52 3/55 3/48 3/51 3/59"},
      {"block_cyclic_shifted/redistribute/direct", "5/20 5/26 5/28 5/19 5/25 5/31"},
      {"block_cyclic_shifted/transpose/bruck", "3/69 3/72 3/63 3/69 3/60 3/39"},
      {"block_cyclic_shifted/transpose/direct", "5/24 5/33 5/45 5/42 5/39 5/36"},
      {"block_cyclic_shifted/reverse_rows/bruck", "3/60 3/52 3/54 3/48 3/50 3/59"},
      {"block_cyclic_shifted/reverse_rows/direct", "5/20 5/27 5/31 5/25 5/25 5/34"},
      {"block_cyclic_shifted/reverse_both/bruck", "3/60 3/52 3/54 3/48 3/50 3/59"},
      {"block_cyclic_shifted/reverse_both/direct", "5/20 5/27 5/31 5/25 5/25 5/34"},
      {"cyclic3d_to_row_cyclic_col_blocked/redistribute/bruck", "3/47 3/44 3/46 3/44 3/47 3/44 3/44 3/44"},
      {"cyclic3d_to_row_cyclic_col_blocked/redistribute/direct", "7/9 7/6 7/8 7/6 7/8 7/6 7/7 7/6"},
      {"cyclic3d_to_row_cyclic_col_blocked/transpose/bruck", "3/48 3/59 3/53 3/57 3/48 3/59 3/52 3/54"},
      {"cyclic3d_to_row_cyclic_col_blocked/transpose/direct", "7/12 7/14 7/18 7/9 7/8 7/14 7/6 7/6"},
      {"cyclic3d_to_row_cyclic_col_blocked/reverse_rows/bruck", "3/47 3/44 3/46 3/44 3/47 3/44 3/44 3/44"},
      {"cyclic3d_to_row_cyclic_col_blocked/reverse_rows/direct", "7/9 7/6 7/8 7/6 7/8 7/6 7/7 7/6"},
      {"cyclic3d_to_row_cyclic_col_blocked/reverse_both/bruck", "3/47 3/44 3/46 3/44 3/47 3/44 3/44 3/44"},
      {"cyclic3d_to_row_cyclic_col_blocked/reverse_both/direct", "7/9 7/6 7/8 7/6 7/8 7/6 7/7 7/6"},
      {"ragged_empty_ranks/redistribute/bruck", "3/39 3/39 3/47 3/44 3/44 3/44 3/47 3/39"},
      {"ragged_empty_ranks/redistribute/direct", "7/5 7/3 7/8 7/8 7/7 7/2 7/5 7/3"},
      {"ragged_empty_ranks/transpose/bruck", "3/41 3/41 3/46 3/46 3/51 3/41 3/51 3/51"},
      {"ragged_empty_ranks/transpose/direct", "7/10 7/5 7/10 7/10 7/10 7/5 7/5 7/5"},
      {"ragged_empty_ranks/reverse_rows/bruck", "3/39 3/39 3/47 3/44 3/44 3/44 3/47 3/39"},
      {"ragged_empty_ranks/reverse_rows/direct", "7/5 7/3 7/8 7/8 7/7 7/2 7/5 7/3"},
      {"ragged_empty_ranks/reverse_both/bruck", "3/44 3/43 3/45 3/38 3/39 3/38 3/45 3/43"},
      {"ragged_empty_ranks/reverse_both/direct", "7/8 7/3 7/5 7/2 7/5 7/2 7/7 7/7"},
      {"subset_faces/redistribute/bruck", "3/52 3/50 3/64 3/50 3/66 3/50 3/64 3/36"},
      {"subset_faces/redistribute/direct", "7/12 7/14 7/9 7/14 7/12 7/14 7/9 7/0"},
      {"subset_faces/transpose/bruck", "3/51 3/50 3/65 3/50 3/65 3/50 3/65 3/36"},
      {"subset_faces/transpose/direct", "7/12 7/14 7/12 7/14 7/9 7/14 7/9 7/0"},
      {"subset_faces/reverse_rows/bruck", "3/52 3/50 3/64 3/50 3/66 3/50 3/64 3/36"},
      {"subset_faces/reverse_rows/direct", "7/12 7/14 7/9 7/14 7/12 7/14 7/9 7/0"},
      {"subset_faces/reverse_both/bruck", "3/52 3/50 3/64 3/50 3/66 3/50 3/64 3/36"},
      {"subset_faces/reverse_both/direct", "7/12 7/14 7/9 7/14 7/12 7/14 7/9 7/0"},
  };
  return table;
}

TEST(RemapProperty, BitwiseAgainstHostReferenceWithPinnedTraffic) {
  std::uint64_t seed = 4242;
  for (const TransitionCase& tc : transition_cases()) {
    for (const Transition t : kTransitions) {
      for (const auto algo :
           {coll::AlltoallAlgo::kBruck, coll::AlltoallAlgo::kDirect}) {
        const std::string key =
            std::string(tc.name) + "/" + transition_name(t) + "/" +
            (algo == coll::AlltoallAlgo::kBruck ? "bruck" : "direct");
        SCOPED_TRACE(key);
        const Matrix a = la::make_dense(++seed, tc.rows, tc.cols);
        const Matrix want = host_transition(t, a);
        Machine m(tc.p);
        const sim::RunStats stats = m.run([&](Rank& r) {
          const Comm world = Comm::world(r);
          DistMatrix src(tc.src(world, tc.rows, tc.cols), r.id());
          src.fill_from_global(a);
          const DistMatrix got = run_transition(
              t, src, tc.dst(world, want.rows(), want.cols()), world, algo);
          for (std::size_t i = 0; i < got.my_rows().size(); ++i)
            for (std::size_t j = 0; j < got.my_cols().size(); ++j)
              EXPECT_EQ(got.local()(static_cast<index_t>(i),
                                    static_cast<index_t>(j)),
                        want(got.my_rows()[i], got.my_cols()[j]));
        });
        const std::string traffic = per_rank_traffic(stats);
        const auto it = expected_traffic().find(key);
        ASSERT_NE(it, expected_traffic().end());
        EXPECT_EQ(traffic, it->second);
      }
    }
  }
}

}  // namespace
}  // namespace catrsm::dist

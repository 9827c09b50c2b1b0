#include "trsm/it_inv_trsm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "coll/collectives.hpp"
#include "dist/grid.hpp"
#include "la/gemm.hpp"
#include "la/kernel/kernel.hpp"
#include "support/check.hpp"

namespace catrsm::trsm {

using dist::BlockCyclicDist;
using dist::Face2D;
using dist::ProcGrid3D;
using la::Matrix;

namespace {

enum ItTag : int {
  kTagXExchange = 901,
  kTagCorrExchange = 902,
  kTagBExchange = 903,
};

/// Local index range [t0, t1) of global rows in [lo, hi) within the sorted
/// list {res, res + mod, res + 2 mod, ...}.
std::pair<index_t, index_t> local_range(index_t lo, index_t hi, int res,
                                        int mod) {
  const auto first_at_least = [&](index_t bound) {
    if (bound <= res) return static_cast<index_t>(0);
    return ceil_div(bound - res, mod);
  };
  return {first_at_least(lo), first_at_least(hi)};
}

/// Number of globals in [0, n) congruent to res (mod m).
index_t strided_count(index_t n, int m, int res) {
  if (res >= n) return 0;
  return (n - res - 1) / m + 1;
}

/// A read-only row-major rows x cols operand with leading dimension ld:
/// a view of resident storage (L or the diagonal-inverse store) read in
/// place, or of a received payload that `buf` keeps alive on its
/// transport slab — no take()/to_vector copy, since every consumer below
/// only reads.
struct Panel {
  sim::Buffer buf;
  const double* ptr = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;
};

/// A received payload viewed as a dense rows x cols panel.
Panel received(sim::Buffer buf, index_t rows, index_t cols) {
  const double* ptr = buf.data();
  return Panel{std::move(buf), ptr, rows, cols, cols};
}

}  // namespace

Face2D it_inv_l_face(const sim::Comm& comm, int p1, int p2) {
  CATRSM_CHECK(comm.size() == p1 * p1 * p2,
               "it_inv_l_face: comm must hold the whole grid");
  std::vector<int> idx(static_cast<std::size_t>(p1 * p1));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  return Face2D(comm.subset(idx), p1, p1);
}

std::vector<int> it_inv_b_face_members(int p1, int p2) {
  std::vector<int> idx;
  idx.reserve(static_cast<std::size_t>(p1 * p2));
  for (int z = 0; z < p2; ++z)
    for (int x = 0; x < p1; ++x) idx.push_back(x + p1 * p1 * z);
  return idx;
}

Face2D it_inv_b_face(const sim::Comm& comm, int p1, int p2) {
  CATRSM_CHECK(comm.size() == p1 * p1 * p2,
               "it_inv_b_face: comm must hold the whole grid");
  return Face2D(comm.subset(it_inv_b_face_members(p1, p2)), p1, p2);
}

std::shared_ptr<BlockCyclicDist> it_inv_b_dist(const sim::Comm& comm, int p1,
                                               int p2, index_t n, index_t k) {
  return dist::row_cyclic_col_blocked(it_inv_b_face(comm, p1, p2), n, k);
}

int it_inv_auto_nblocks(index_t n, index_t k, int p) {
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double dp = static_cast<double>(p);
  double n0;
  if (dn < 4.0 * dk / dp) {
    n0 = dn;  // 1D regime: single inverted block
  } else if (dn > 4.0 * dk * std::sqrt(dp)) {
    n0 = std::pow(dn * dk * dk * dk * std::sqrt(dp), 0.25);  // 2D regime
  } else {
    n0 = std::min(std::sqrt(dn * dk), dn);  // 3D regime
  }
  const int blocks = static_cast<int>(std::llround(dn / std::max(n0, 1.0)));
  return std::clamp(blocks, 1, static_cast<int>(std::min<index_t>(n, p)));
}

DistMatrix it_inv_trsm(const DistMatrix& l, const DistMatrix& b,
                       const sim::Comm& comm, int p1, int p2,
                       ItInvOptions opts) {
  const index_t n = l.dist().rows();
  const index_t k = b.dist().cols();
  CATRSM_CHECK(l.dist().cols() == n, "it_inv_trsm: L must be square");
  CATRSM_CHECK(b.dist().rows() == n, "it_inv_trsm: dimension mismatch");
  CATRSM_CHECK(comm.size() == p1 * p1 * p2,
               "it_inv_trsm: comm must equal p1^2 * p2 ranks");

  const ProcGrid3D grid(comm, p1, p2);
  const int x = grid.my_x();
  const int y = grid.my_y();
  const int z = grid.my_z();
  auto& ctx = comm.ctx();

  int nblocks = opts.nblocks;
  if (nblocks <= 0) nblocks = it_inv_auto_nblocks(n, k, comm.size());
  const index_t nb = ceil_div(n, nblocks);
  // Recompute the real block count for ragged sizes.
  nblocks = static_cast<int>(ceil_div(n, nb));

  // --- Invert the diagonal blocks with all p ranks (Section VI-A), or
  // read them from a caller-managed store (plan reuse: repeated solves
  // against the same L skip the inversion entirely). Only the inverted
  // blocks are kept; the off-diagonal panels are read from L itself.
  // Phase labels reproduce the paper's Section VII cost decomposition
  // (T = T_Inv + T_Solve + T_Upd) in RunStats::phase_max.
  // A reused inverse is read in place, by reference: the store is only
  // rewritten when no run is reading it. A fresh one moves into its slot.
  DiagInverse fresh;
  const DiagInverse* dinv = &fresh;
  const bool reuse = opts.ltilde_store != nullptr && opts.reuse_ltilde;
  if (reuse) {
    dinv = &(*opts.ltilde_store)[static_cast<std::size_t>(ctx.id())];
    bool fits = !l.participates() ||
                dinv->size() == static_cast<std::size_t>(nblocks);
    for (int i = 0; fits && l.participates() && i < nblocks; ++i) {
      const index_t oi = static_cast<index_t>(i) * nb;
      const index_t sz = std::min(nb, n - oi);
      const auto [rx0, rx1] = local_range(oi, oi + sz, x, p1);
      const auto [cy0, cy1] = local_range(oi, oi + sz, y, p1);
      const la::Matrix& piece = (*dinv)[static_cast<std::size_t>(i)];
      fits = piece.rows() == rx1 - rx0 && piece.cols() == cy1 - cy0;
    }
    CATRSM_CHECK(fits, "it_inv_trsm: stored diagonal inverse shape mismatch");
  } else {
    sim::PhaseScope scope(ctx, "inversion");
    fresh = diag_inverter(l, comm, nblocks, opts.diag);
    if (opts.ltilde_store != nullptr) {
      DiagInverse& slot =
          (*opts.ltilde_store)[static_cast<std::size_t>(ctx.id())];
      slot = std::move(fresh);
      dinv = &slot;
    }
  }

  // --- Panel geometry.
  const index_t bc = std::max<index_t>(ceil_div(k, p2), 1);
  const index_t kz = std::clamp<index_t>(k - static_cast<index_t>(z) * bc, 0,
                                         bc);
  const index_t rows_x = strided_count(n, p1, x);
  const index_t rows_y = strided_count(n, p1, y);

  const sim::Comm yf = grid.y_fiber();
  const sim::Comm zf = grid.z_fiber();
  const int peer = grid.at(y, x, z);  // transpose partner

  // Ship a frozen payload to the transpose partner and view the reply in
  // place: sends are refcount bumps and the received panel is never
  // copied off its slab (the consumers below only read it).
  auto transpose_exchange = [&](sim::Buffer mine, index_t my_rows,
                                index_t peer_rows, int tag) -> Panel {
    if (x == y) return received(std::move(mine), my_rows, kz);
    sim::Buffer got = comm.sendrecv(peer, std::move(mine), tag);
    CATRSM_ASSERT(static_cast<index_t>(got.size()) == peer_rows * kz,
                  "it_inv_trsm: exchange size mismatch");
    return received(std::move(got), peer_rows, kz);
  };

  // --- Replicate B over the y-fibers, then transpose so every rank holds
  // the rows congruent to its own y (the contraction-ready orientation).
  // by_panel is corrected in place each iteration, so the received panel
  // is adopted as owned storage: mutable_data() writes on its slab when
  // this view is the sole owner and copies only when it is shared.
  sim::Buffer by_buf;
  double* by_panel = nullptr;
  {
    sim::PhaseScope scope(ctx, "setup");
    coll::Buffer mine = b.participates() ? coll::Buffer(b.local().data())
                                         : coll::Buffer();
    coll::Buffer bx = coll::bcast(yf, /*root=*/0, std::move(mine),
                                  static_cast<std::size_t>(rows_x * kz));
    Panel byp = transpose_exchange(std::move(bx), rows_x, rows_y,
                                   kTagBExchange);
    CATRSM_ASSERT(byp.rows == rows_y, "it_inv_trsm: B panel shape mismatch");
    by_buf = std::move(byp.buf);
    // An empty panel (no owned rows or columns) has null storage.
    if (rows_y * kz > 0) by_panel = by_buf.mutable_data();
  }

  // Every row of x_panel is written by exactly one block's solve.
  Matrix x_panel = Matrix::uninit(rows_x, kz);
  Matrix u_buffer(rows_x, kz);  // lazily accumulated updates, rows ≡ x
  // Scratch for one update product (at most rows_x rows); the GEMM
  // overwrites it (beta = 0) before u_buffer accumulates it.
  Matrix product = Matrix::uninit(nblocks > 1 ? rows_x : 0, kz);

  // A pr x pc piece of the front face's operands (L or the inverses,
  // which only the z = 0 layer holds; `src` with leading dimension `ld`
  // is read there only) as this rank sees it. With a single-member
  // z-fiber it is read in place; otherwise the root packs the piece onto
  // a pooled slab and broadcasts it, and every layer reads the payload.
  auto fiber_piece = [&](const double* src, index_t ld, index_t pr,
                         index_t pc) -> Panel {
    if (zf.size() == 1) return Panel{{}, pr * pc > 0 ? src : nullptr,
                                     pr, pc, ld};
    sim::Buffer mine;
    if (z == 0) {
      CATRSM_ASSERT(l.participates(),
                    "it_inv_trsm: front face must own L and its inverses");
      mine = sim::Buffer::uninit(static_cast<std::size_t>(pr * pc));
      double* dst = mine.mutable_data();
      for (index_t r = 0; r < pr; ++r)
        std::memcpy(dst + r * pc, src + r * ld,
                    static_cast<std::size_t>(pc) * sizeof(double));
    }
    return received(coll::bcast(zf, /*root=*/0, std::move(mine),
                                static_cast<std::size_t>(pr * pc)),
                    pr, pc);
  };

  // --- Main iteration (Section VI-B / VII).
  for (int i = 0; i < nblocks; ++i) {
    const index_t oi = static_cast<index_t>(i) * nb;
    const index_t sz = std::min(nb, n - oi);

    // Solve: X(Si) = Ltilde(Si, Si) * B(Si).
    // My rows [sx0, sx1) of the block row Si and columns [sy0, sy1) of
    // the block column Si, in local indices of L's layout.
    const auto [sx0, sx1] = local_range(oi, oi + sz, x, p1);
    const auto [sy0, sy1] = local_range(oi, oi + sz, y, p1);
    const index_t sy_count = sy1 - sy0;
    Panel xred;
    {
      sim::PhaseScope solve_scope(ctx, "solve");
      const double* inv = nullptr;
      if (z == 0) {
        const la::Matrix& piece = (*dinv)[static_cast<std::size_t>(i)];
        CATRSM_ASSERT(piece.rows() == sx1 - sx0 && piece.cols() == sy_count,
                      "it_inv_trsm: diagonal piece shape mismatch");
        inv = piece.ptr();
      }
      const Panel diag_piece = fiber_piece(inv, sy_count, sx1 - sx0,
                                           sy_count);
      // The product lands straight on an uninitialized pooled slab, so
      // the allreduce ships it without a packing copy.
      sim::Buffer xp =
          sim::Buffer::uninit(static_cast<std::size_t>(diag_piece.rows * kz));
      la::kernel::gemm(diag_piece.rows, kz, sy_count, 1.0, diag_piece.ptr,
                       diag_piece.ld, by_panel + sy0 * kz, kz, 0.0,
                       xp.mutable_data(), kz);
      ctx.charge_flops(la::gemm_flops(diag_piece.rows, kz, sy_count));

      xred = received(coll::allreduce(yf, std::move(xp)), diag_piece.rows,
                      kz);
      CATRSM_ASSERT(sx1 - sx0 == xred.rows,
                    "it_inv_trsm: X slice mismatch");
      if (xred.rows * kz > 0)
        std::memcpy(x_panel.ptr() + sx0 * kz, xred.ptr,
                    static_cast<std::size_t>(xred.rows * kz) *
                        sizeof(double));
    }

    if (i + 1 >= nblocks) break;
    const index_t o2 = oi + sz;
    sim::PhaseScope update_scope(ctx, "update");

    // Update: accumulate L(T_{i+1}, Si) * X(Si) into the lazy buffer.
    // The panel is a window of L's local block on the z = 0 layer.
    const auto [tx0, tx1] = local_range(o2, n, x, p1);
    const index_t ld = l.local().cols();
    const Panel panel_piece = fiber_piece(
        z == 0 && tx1 > tx0 && sy_count > 0
            ? l.local().ptr() + tx0 * ld + sy0
            : nullptr,
        ld, tx1 - tx0, sy_count);
    const Panel xt = transpose_exchange(xred.buf, xred.rows, sy_count,
                                        kTagXExchange);
    if (panel_piece.rows > 0 && xt.rows > 0) {
      CATRSM_ASSERT(panel_piece.cols == xt.rows,
                    "it_inv_trsm: update contraction mismatch");
      const index_t pr = panel_piece.rows;
      la::kernel::gemm(pr, kz, panel_piece.cols, 1.0, panel_piece.ptr,
                       panel_piece.ld, xt.ptr, kz, 0.0, product.ptr(), kz);
      ctx.charge_flops(la::gemm_flops(pr, kz, panel_piece.cols));
      // Contiguous row axpy (the checked accessor would bounds-test every
      // element of this hot accumulation).
      for (index_t r = 0; r < pr; ++r) {
        double* dst = u_buffer.ptr() + (tx0 + r) * kz;
        const double* src = product.ptr() + r * kz;
        for (index_t c = 0; c < kz; ++c) dst[c] += src[c];
      }
      ctx.charge_flops(static_cast<double>(pr * kz));
    }

    // Reduce only the next block row of the buffer and correct B. The
    // reduced rows are contiguous full-width rows of u_buffer, so they
    // ship as a span view — no block copy before the collective.
    const index_t s2 = std::min(nb, n - o2);
    const auto [nx0, nx1] = local_range(o2, o2 + s2, x, p1);
    coll::Buffer csum = coll::allreduce(
        yf, std::span<const double>(
                u_buffer.ptr() + nx0 * kz,
                static_cast<std::size_t>((nx1 - nx0) * kz)));

    const auto [ny0, ny1] = local_range(o2, o2 + s2, y, p1);
    const Panel corr_t = transpose_exchange(std::move(csum), nx1 - nx0,
                                            ny1 - ny0, kTagCorrExchange);
    for (index_t r = 0; r < corr_t.rows; ++r) {
      double* dst = by_panel + (ny0 + r) * kz;
      const double* src = corr_t.ptr + r * kz;
      for (index_t c = 0; c < kz; ++c) dst[c] -= src[c];
    }
    ctx.charge_flops(static_cast<double>(corr_t.rows * kz));
  }

  // --- The y = 0 plane holds the solution in B's layout (adopted, so
  // the shape is checked and nothing is zero-filled or copied).
  if (!b.participates()) return DistMatrix(b.dist_ptr(), ctx.id());
  return DistMatrix(b.dist_ptr(), ctx.id(), std::move(x_panel));
}

}  // namespace catrsm::trsm

#include "trsm/diag_inverter.hpp"

#include <algorithm>

#include "coll/alltoall.hpp"
#include "dist/redistribute.hpp"
#include "trsm/tri_inv_dist.hpp"
#include "support/check.hpp"

namespace catrsm::trsm {

using dist::BlockCyclicDist;
using dist::Face2D;

namespace {

struct BlockHome {
  index_t offset = 0;  // global index of the block's top-left corner
  index_t size = 0;
  std::shared_ptr<BlockCyclicDist> dist;  // cyclic layout on its subgrid
};

/// The outgoing streams of one all-to-all over p ranks, packed count
/// first: `walk(emit)` calls emit(dest, value) for every outgoing element
/// in stream order. It runs twice — once to count each destination's
/// elements, once to write them into one pooled uninitialized slab — and
/// each destination ships its slice of that slab, element for element
/// the stream that per-destination appends would build.
template <class Walk>
std::vector<coll::Buffer> pack_streams(int p, Walk&& walk) {
  const std::size_t g = static_cast<std::size_t>(p);
  std::vector<std::size_t> counts(g, 0);
  walk([&](int dest, double) { ++counts[static_cast<std::size_t>(dest)]; });
  std::vector<std::size_t> offsets(g + 1, 0);
  for (std::size_t t = 0; t < g; ++t) offsets[t + 1] = offsets[t] + counts[t];
  coll::Buffer packed = coll::Buffer::uninit(offsets[g]);
  double* slab = packed.mutable_data();
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  walk([&](int dest, double v) {
    slab[cursor[static_cast<std::size_t>(dest)]++] = v;
  });
  std::vector<coll::Buffer> streams(g);
  for (std::size_t t = 0; t < g; ++t)
    streams[t] = packed.slice(offsets[t], counts[t]);
  return streams;
}

}  // namespace

DiagInverse diag_inverter(const DistMatrix& l, const sim::Comm& comm,
                          int nblocks, DiagInvOptions opts) {
  const auto* ld = dynamic_cast<const BlockCyclicDist*>(&l.dist());
  CATRSM_CHECK(ld != nullptr && ld->br() == 1 && ld->bc() == 1,
               "diag_inverter: requires a unit-block cyclic layout");
  const index_t n = l.dist().rows();
  CATRSM_CHECK(l.dist().cols() == n, "diag_inverter: matrix must be square");
  const int p = comm.size();
  CATRSM_CHECK(nblocks >= 1, "diag_inverter: need at least one block");
  auto& ctx = comm.ctx();
  const int me = ctx.id();

  const index_t nb = ceil_div(n, nblocks);
  CATRSM_CHECK(ceil_div(n, nb) == nblocks,
               "diag_inverter: nblocks leaves an empty diagonal block");
  // When nblocks <= p every block gets its own subgrid of q ranks; with
  // more blocks than ranks, subgrids take several blocks and invert them
  // sequentially (block b lives on group b mod ngroups).
  const int ngroups = std::min(nblocks, p);
  const int q = p / ngroups;  // ranks per block subgrid

  // Describe every block's home subgrid (pure arithmetic on all ranks).
  std::vector<BlockHome> homes(static_cast<std::size_t>(nblocks));
  for (int b = 0; b < nblocks; ++b) {
    auto& home = homes[static_cast<std::size_t>(b)];
    home.offset = static_cast<index_t>(b) * nb;
    home.size = std::min(nb, n - home.offset);
    const int group = b % ngroups;
    std::vector<int> members;
    members.reserve(static_cast<std::size_t>(q));
    for (int r = 0; r < q; ++r)
      members.push_back(comm.world_rank(group * q + r));
    const auto [sr, sc] = dist::balanced_factors(q);
    Face2D subface(sim::Comm(ctx, members), sr, sc);
    home.dist = std::make_shared<BlockCyclicDist>(subface, home.size,
                                                  home.size, 1, 1);
  }
  const int my_group = comm.rank() < ngroups * q ? comm.rank() / q : -1;
  std::vector<int> my_blocks;
  if (my_group >= 0)
    for (int b = my_group; b < nblocks; b += ngroups) my_blocks.push_back(b);

  // Owner tables: comm index of every (row part, col part) of L and of
  // each block's subgrid layout, so the per-element routing below is
  // array reads (the paper charges this movement as words, not host
  // rank searches).
  const dist::OwnerTable l_owner(l.dist(), comm, "diag_inverter");
  std::vector<dist::OwnerTable> home_owner;
  home_owner.reserve(homes.size());
  for (const BlockHome& home : homes)
    home_owner.emplace_back(*home.dist, comm, "diag_inverter");

  // Range [lo, hi) of positions in the sorted `v` holding [a, b).
  const auto span_of = [](const std::vector<index_t>& v, index_t a,
                          index_t b) {
    return std::pair<std::size_t, std::size_t>{
        static_cast<std::size_t>(std::lower_bound(v.begin(), v.end(), a) -
                                 v.begin()),
        static_cast<std::size_t>(std::lower_bound(v.begin(), v.end(), b) -
                                 v.begin())};
  };

  // --- Phase 1: one personalized all-to-all ships every diagonal block to
  // its subgrid (paper lines 6 and 9 fused).
  std::vector<coll::Buffer> outgoing(static_cast<std::size_t>(p));
  if (l.participates()) {
    const auto& rows = l.my_rows();
    const auto& cols = l.my_cols();
    // Per-block row spans and block-column parts, shared by both passes.
    struct Span {
      std::size_t r_lo, r_hi, c_lo;
      std::vector<int> col_part;
    };
    std::vector<Span> spans;
    spans.reserve(homes.size());
    for (const BlockHome& home : homes) {
      const auto [r_lo, r_hi] =
          span_of(rows, home.offset, home.offset + home.size);
      const auto [c_lo, c_hi] =
          span_of(cols, home.offset, home.offset + home.size);
      Span sp{r_lo, r_hi, c_lo, {}};
      for (auto c = c_lo; c < c_hi; ++c)
        sp.col_part.push_back(home.dist->part_of_col(cols[c] - home.offset));
      spans.push_back(std::move(sp));
    }
    outgoing = pack_streams(p, [&](auto&& emit) {
      for (std::size_t b = 0; b < homes.size(); ++b) {
        const BlockHome& home = homes[b];
        const Span& sp = spans[b];
        for (auto r = sp.r_lo; r < sp.r_hi; ++r) {
          const int rp = home.dist->part_of_row(rows[r] - home.offset);
          const double* src = l.local().ptr() +
                              static_cast<index_t>(r) * l.local().cols() +
                              sp.c_lo;
          for (std::size_t c = 0; c < sp.col_part.size(); ++c)
            emit(home_owner[b].at(rp, sp.col_part[c]), src[c]);
        }
      }
    });
  }
  std::vector<coll::Buffer> incoming =
      coll::alltoallv(comm, std::move(outgoing));

  // Source parts of L along each axis of a block's sub-matrix.
  const auto l_parts = [&](const DistMatrix& mat, index_t offset) {
    std::pair<std::vector<int>, std::vector<int>> out;
    for (const index_t i : mat.my_rows())
      out.first.push_back(l.dist().part_of_row(offset + i));
    for (const index_t j : mat.my_cols())
      out.second.push_back(l.dist().part_of_col(offset + j));
    return out;
  };

  std::vector<DistMatrix> my_block_mats;
  {
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    for (const int b : my_blocks) {
      const BlockHome& home = homes[static_cast<std::size_t>(b)];
      // The unpack below writes every element of the sub-block.
      DistMatrix mat = DistMatrix::uninit(home.dist, me);
      if (mat.participates()) {
        const auto [row_part, col_part] = l_parts(mat, home.offset);
        double* dst = mat.local().ptr();
        for (const int rp : row_part) {
          for (const int cp : col_part) {
            const std::size_t s =
                static_cast<std::size_t>(l_owner.at(rp, cp));
            CATRSM_ASSERT(cursor[s] < incoming[s].size(),
                          "diag_inverter: short scatter stream");
            *dst++ = incoming[s][cursor[s]++];
          }
        }
      }
      my_block_mats.push_back(std::move(mat));
    }
  }

  // --- Phase 2: all subgrids invert their blocks concurrently (several
  // blocks per subgrid invert back-to-back when nblocks > p).
  std::vector<DistMatrix> my_invs;
  for (std::size_t i = 0; i < my_blocks.size(); ++i) {
    const BlockHome& home =
        homes[static_cast<std::size_t>(my_blocks[i])];
    sim::Comm subcomm = home.dist->face().comm();
    TriInvOptions tio;
    tio.base_size = opts.base_size;
    my_invs.push_back(tri_inv_dist(my_block_mats[i], subcomm, tio));
  }

  // --- Phase 3: one all-to-all returns the inverted blocks (paper lines
  // 16 and 17 fused), each element to the rank that owns it in L's layout.
  // (Both part lists are empty on a rank outside a block's subgrid.)
  std::vector<std::pair<std::vector<int>, std::vector<int>>> inv_parts;
  for (std::size_t i = 0; i < my_blocks.size(); ++i)
    inv_parts.push_back(l_parts(
        my_invs[i], homes[static_cast<std::size_t>(my_blocks[i])].offset));
  std::vector<coll::Buffer> back_out = pack_streams(p, [&](auto&& emit) {
    for (std::size_t i = 0; i < my_blocks.size(); ++i) {
      const auto& [row_part, col_part] = inv_parts[i];
      const double* src = my_invs[i].local().ptr();
      for (const int rp : row_part)
        for (const int cp : col_part) emit(l_owner.at(rp, cp), *src++);
    }
  });
  std::vector<coll::Buffer> back_in =
      coll::alltoallv(comm, std::move(back_out));

  // Unpack straight into my compact pieces: block b's piece is my
  // (rows x cols) of L cut to S_b x S_b, and the streams cover it exactly.
  DiagInverse pieces;
  if (l.participates()) {
    const auto& rows = l.my_rows();
    const auto& cols = l.my_cols();
    pieces.reserve(homes.size());
    std::vector<std::size_t> cursor(static_cast<std::size_t>(p), 0);
    std::vector<int> col_part;
    for (std::size_t b = 0; b < homes.size(); ++b) {
      const BlockHome& home = homes[b];
      const auto [r_lo, r_hi] =
          span_of(rows, home.offset, home.offset + home.size);
      const auto [c_lo, c_hi] =
          span_of(cols, home.offset, home.offset + home.size);
      col_part.clear();
      for (auto c = c_lo; c < c_hi; ++c)
        col_part.push_back(home.dist->part_of_col(cols[c] - home.offset));
      la::Matrix piece = la::Matrix::uninit(static_cast<index_t>(r_hi - r_lo),
                                            static_cast<index_t>(c_hi - c_lo));
      double* dst = piece.ptr();
      for (auto r = r_lo; r < r_hi; ++r) {
        const int rp = home.dist->part_of_row(rows[r] - home.offset);
        for (const int cp : col_part) {
          const std::size_t s =
              static_cast<std::size_t>(home_owner[b].at(rp, cp));
          CATRSM_ASSERT(cursor[s] < back_in[s].size(),
                        "diag_inverter: short gather stream");
          *dst++ = back_in[s][cursor[s]++];
        }
      }
      pieces.push_back(std::move(piece));
    }
  }
  return pieces;
}

}  // namespace catrsm::trsm

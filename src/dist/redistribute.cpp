#include "dist/redistribute.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "coll/collectives.hpp"
#include "support/check.hpp"

namespace catrsm::dist {

namespace {

/// The element map every transition here is made of: source (i, j) lands
/// at (ti, tj) = swap ? (j, i) : (i, j), then each destination axis is
/// optionally reversed. Separable — a source row index alone decides one
/// destination coordinate — and an involution for all four callers, so
/// both sides route with per-axis tables.
struct IndexMap {
  bool swap = false;       // transpose the axes
  bool flip_rows = false;  // reverse the destination rows
  bool flip_cols = false;  // reverse the destination columns
};

/// Comm index of every world rank (-1 for non-members), as a dense table.
std::vector<int> comm_index_of_world(const sim::Comm& comm) {
  const auto& members = comm.members();
  const int top = members.empty()
                      ? 0
                      : *std::max_element(members.begin(), members.end());
  std::vector<int> idx(static_cast<std::size_t>(top) + 1, -1);
  for (int s = 0; s < comm.size(); ++s)
    idx[static_cast<std::size_t>(members[static_cast<std::size_t>(s)])] = s;
  return idx;
}

/// My positions along one destination axis (`mine`: sorted global
/// indices), bucketed by the source part of the source index they come
/// from (`flip`: source index = extent - 1 - destination index), each
/// bucket ascending in source index — the order every source emits in.
template <class PartOf>
std::vector<std::vector<index_t>> positions_by_source_part(
    const std::vector<index_t>& mine, bool flip, index_t extent, int parts,
    PartOf&& part_of) {
  std::vector<std::vector<index_t>> out(static_cast<std::size_t>(parts));
  const index_t m = static_cast<index_t>(mine.size());
  for (index_t q = 0; q < m; ++q) {
    const index_t pos = flip ? m - 1 - q : q;
    const index_t t = mine[static_cast<std::size_t>(pos)];
    out[static_cast<std::size_t>(part_of(flip ? extent - 1 - t : t))]
        .push_back(pos);
  }
  return out;
}

/// Element remapping under `map`. The sender emits ascending-(i, j)
/// streams per destination, all packed into one slab and shipped as
/// per-destination views of it; the receiver walks, per source part, its
/// row and column position lists in ascending source order — so no
/// indices travel with the data and no per-element sort is needed.
DistMatrix remap(const DistMatrix& src,
                 std::shared_ptr<const Distribution> dst,
                 const sim::Comm& comm, IndexMap map,
                 coll::AlltoallAlgo algo, const char* who) {
  const OwnerTable src_owner(src.dist(), comm, who);
  const OwnerTable dst_owner(*dst, comm, who);
  const int g = comm.size();
  const int me = comm.ctx().id();
  const index_t drows = dst->rows();
  const index_t dcols = dst->cols();
  const auto dst_row = [&](index_t s) {
    return map.flip_rows ? drows - 1 - s : s;
  };
  const auto dst_col = [&](index_t s) {
    return map.flip_cols ? dcols - 1 - s : s;
  };

  std::vector<coll::Buffer> outgoing(static_cast<std::size_t>(g));
  if (src.participates()) {
    const auto& rows = src.my_rows();
    const auto& cols = src.my_cols();
    // Destination owner of local element (r, c) is the owner-table entry
    // row_key[r] + col_key[c]: each source axis fixes one destination
    // part, scaled by the table's row stride when it is the row part.
    const int stride = dst_owner.col_parts();
    std::vector<int> row_key(rows.size());
    std::vector<int> col_key(cols.size());
    for (std::size_t r = 0; r < rows.size(); ++r)
      row_key[r] = map.swap ? dst->part_of_col(dst_col(rows[r]))
                            : dst->part_of_row(dst_row(rows[r])) * stride;
    for (std::size_t c = 0; c < cols.size(); ++c)
      col_key[c] = map.swap ? dst->part_of_row(dst_row(cols[c])) * stride
                            : dst->part_of_col(dst_col(cols[c]));
    const auto dest = [&](std::size_t r, std::size_t c) {
      return dst_owner[row_key[r] + col_key[c]];
    };

    std::vector<std::size_t> counts(static_cast<std::size_t>(g), 0);
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t c = 0; c < cols.size(); ++c)
        ++counts[static_cast<std::size_t>(dest(r, c))];
    std::vector<std::size_t> cursor(static_cast<std::size_t>(g) + 1, 0);
    for (int t = 0; t < g; ++t)
      cursor[static_cast<std::size_t>(t) + 1] =
          cursor[static_cast<std::size_t>(t)] +
          counts[static_cast<std::size_t>(t)];
    const std::vector<std::size_t> offsets(cursor.begin(), cursor.end() - 1);
    // Pooled uninitialized slab: the scatter below writes every element
    // exactly once, ascending (i, j) within each destination.
    coll::Buffer packed = coll::Buffer::uninit(rows.size() * cols.size());
    double* slab = packed.mutable_data();
    const double* in = src.local().ptr();
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (std::size_t c = 0; c < cols.size(); ++c)
        slab[cursor[static_cast<std::size_t>(dest(r, c))]++] = *in++;
    for (int t = 0; t < g; ++t)
      outgoing[static_cast<std::size_t>(t)] =
          packed.slice(offsets[static_cast<std::size_t>(t)],
                       counts[static_cast<std::size_t>(t)]);
  }

  std::vector<coll::Buffer> incoming =
      coll::alltoallv(comm, std::move(outgoing), algo);

  // Every local element arrives from exactly one source stream, so the
  // block is written in full by the unpack below.
  DistMatrix out = DistMatrix::uninit(std::move(dst), me);
  if (out.participates()) {
    const Distribution& sd = src.dist();
    // The source-row axis is my row axis, or my column axis under a swap
    // (and likewise for source columns).
    const auto& along_i = map.swap ? out.my_cols() : out.my_rows();
    const auto& along_j = map.swap ? out.my_rows() : out.my_cols();
    const bool flip_i = map.swap ? map.flip_cols : map.flip_rows;
    const bool flip_j = map.swap ? map.flip_rows : map.flip_cols;
    const auto i_lists = positions_by_source_part(
        along_i, flip_i, sd.rows(), sd.row_parts(),
        [&](index_t i) { return sd.part_of_row(i); });
    const auto j_lists = positions_by_source_part(
        along_j, flip_j, sd.cols(), sd.col_parts(),
        [&](index_t j) { return sd.part_of_col(j); });
    double* o = out.local().ptr();
    const index_t ld = out.local().cols();
    // Each (row part, col part) pair is one source rank, whose stream is
    // its elements bound for me in ascending (i, j).
    for (int rp = 0; rp < sd.row_parts(); ++rp) {
      const auto& is = i_lists[static_cast<std::size_t>(rp)];
      if (is.empty()) continue;
      for (int cp = 0; cp < sd.col_parts(); ++cp) {
        const auto& js = j_lists[static_cast<std::size_t>(cp)];
        if (js.empty()) continue;
        const coll::Buffer& stream =
            incoming[static_cast<std::size_t>(src_owner.at(rp, cp))];
        CATRSM_ASSERT(stream.size() == is.size() * js.size(),
                      std::string(who) +
                          ": stream length mismatch from a source rank");
        const double* v = stream.data();
        for (const index_t a : is)
          for (const index_t b : js)
            o[map.swap ? b * ld + a : a * ld + b] = *v++;
      }
    }
  }
  return out;
}

const BlockCyclicDist& as_unit_cyclic(const Distribution& d,
                                      const char* who) {
  const auto* bc = dynamic_cast<const BlockCyclicDist*>(&d);
  CATRSM_CHECK(bc != nullptr && bc->br() == 1 && bc->bc() == 1,
               std::string(who) + ": requires a unit-block cyclic layout");
  return *bc;
}

/// Local position in `mine` (a unit-cyclic rank's sorted globals) of the
/// sub-block indices {base + sub[k]}: a cyclic sub-block on the same face
/// holds a consecutive run of them, so checking both ends of the run
/// checks it all.
index_t run_start(const std::vector<index_t>& mine, index_t base,
                  const std::vector<index_t>& sub) {
  if (sub.empty()) return 0;
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(mine.begin(), mine.end(), base + sub.front()) -
      mine.begin());
  const std::size_t last = first + sub.size() - 1;
  CATRSM_ASSERT(last < mine.size() && mine[first] == base + sub.front() &&
                    mine[last] == base + sub.back(),
                "dist: sub-block index not owned by this rank");
  return static_cast<index_t>(first);
}

/// Copy the rows x cols block at (fr, fc) of `from` to (tr, tc) of `to`.
void copy_block(const la::Matrix& from, index_t fr, index_t fc, la::Matrix& to,
                index_t tr, index_t tc, index_t rows, index_t cols) {
  for (index_t r = 0; r < rows; ++r) {
    const double* src = from.ptr() + (fr + r) * from.cols() + fc;
    std::copy(src, src + cols, to.ptr() + (tr + r) * to.cols() + tc);
  }
}

}  // namespace

OwnerTable::OwnerTable(const Distribution& d, const sim::Comm& comm,
                       const char* who)
    : col_parts_(d.col_parts()),
      owner_(static_cast<std::size_t>(d.row_parts() * d.col_parts())) {
  const std::vector<int> index_of = comm_index_of_world(comm);
  for (int rp = 0; rp < d.row_parts(); ++rp) {
    for (int cp = 0; cp < col_parts_; ++cp) {
      const int w = d.world_rank_of(rp, cp);
      const int s = w >= 0 && static_cast<std::size_t>(w) < index_of.size()
                        ? index_of[static_cast<std::size_t>(w)]
                        : -1;
      CATRSM_CHECK(s >= 0, std::string(who) +
                               ": an owning rank lies outside the "
                               "communicator");
      owner_[static_cast<std::size_t>(rp * col_parts_ + cp)] = s;
    }
  }
}

double moved_words(const Distribution& src, const Distribution& dst) {
  CATRSM_CHECK(src.rows() == dst.rows() && src.cols() == dst.cols(),
               "moved_words: global shape mismatch");
  const index_t rows = src.rows();
  const index_t cols = src.cols();
  const index_t rstep = std::max<index_t>(1, rows / 64);
  const index_t cstep = std::max<index_t>(1, cols / 64);
  std::uint64_t sampled = 0;
  std::uint64_t moved = 0;
  for (index_t i = 0; i < rows; i += rstep) {
    const int from_r = src.part_of_row(i);
    const int to_r = dst.part_of_row(i);
    for (index_t j = 0; j < cols; j += cstep) {
      ++sampled;
      if (src.world_rank_of(from_r, src.part_of_col(j)) !=
          dst.world_rank_of(to_r, dst.part_of_col(j)))
        ++moved;
    }
  }
  return static_cast<double>(rows) * static_cast<double>(cols) *
         static_cast<double>(moved) / static_cast<double>(sampled);
}

sim::Cost redistribute_model_cost(const Distribution& src,
                                  const Distribution& dst, int p) {
  CATRSM_CHECK(p >= 1, "redistribute_model_cost: need p >= 1");
  double rounds = 0.0;
  for (int span = 1; span < p; span *= 2) rounds += 1.0;
  sim::Cost c;
  c.msgs = rounds;
  c.words = moved_words(src, dst) / 2.0 * rounds;
  return c;
}

DistMatrix redistribute(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm, coll::AlltoallAlgo algo) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "redistribute: global shape mismatch");
  return remap(src, std::move(dst), comm, IndexMap{}, algo, "redistribute");
}

DistMatrix transpose(const DistMatrix& src,
                     std::shared_ptr<const Distribution> dst,
                     const sim::Comm& comm, coll::AlltoallAlgo algo) {
  CATRSM_CHECK(src.dist().rows() == dst->cols() &&
                   src.dist().cols() == dst->rows(),
               "transpose: destination must be cols x rows of the source");
  return remap(src, std::move(dst), comm, IndexMap{.swap = true}, algo,
               "transpose");
}

DistMatrix reverse_rows(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm, coll::AlltoallAlgo algo) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "reverse_rows: global shape mismatch");
  return remap(src, std::move(dst), comm, IndexMap{.flip_rows = true}, algo,
               "reverse_rows");
}

DistMatrix reverse_both(const DistMatrix& src,
                        std::shared_ptr<const Distribution> dst,
                        const sim::Comm& comm, coll::AlltoallAlgo algo) {
  CATRSM_CHECK(src.dist().rows() == dst->rows() &&
                   src.dist().cols() == dst->cols(),
               "reverse_both: global shape mismatch");
  return remap(src, std::move(dst), comm,
               IndexMap{.flip_rows = true, .flip_cols = true}, algo,
               "reverse_both");
}

la::Matrix gather_region(const Distribution& d, const la::Matrix& local,
                         int me, const sim::Comm& comm, index_t rlo,
                         index_t rhi, index_t clo, index_t chi) {
  CATRSM_CHECK(rlo >= 0 && rlo <= rhi && rhi <= d.rows() && clo >= 0 &&
                   clo <= chi && chi <= d.cols(),
               "gather_region: region out of range");
  const int g = comm.size();

  // Region rows and columns grouped by part, ascending within a part: one
  // part lookup per region index, shared by every member.
  std::vector<std::vector<index_t>> rows_in(
      static_cast<std::size_t>(d.row_parts()));
  std::vector<std::vector<index_t>> cols_in(
      static_cast<std::size_t>(d.col_parts()));
  for (index_t i = rlo; i < rhi; ++i)
    rows_in[static_cast<std::size_t>(d.part_of_row(i))].push_back(i);
  for (index_t j = clo; j < chi; ++j)
    cols_in[static_cast<std::size_t>(d.part_of_col(j))].push_back(j);

  // Per-member parts and stream lengths, derived identically on every rank.
  std::vector<std::optional<std::pair<int, int>>> parts_of(
      static_cast<std::size_t>(g));
  coll::Counts counts(static_cast<std::size_t>(g), 0);
  for (int s = 0; s < g; ++s) {
    const auto& parts = parts_of[static_cast<std::size_t>(s)] =
        d.parts_of_world(comm.world_rank(s));
    if (parts.has_value())
      counts[static_cast<std::size_t>(s)] =
          rows_in[static_cast<std::size_t>(parts->first)].size() *
          cols_in[static_cast<std::size_t>(parts->second)].size();
  }

  // My contribution, read from the (possibly evolved) working copy. My
  // in-region rows (columns) are consecutive local rows (columns),
  // starting after those of mine that precede the region.
  coll::Buf mine;
  const int self = comm.rank();
  if (counts[static_cast<std::size_t>(self)] > 0) {
    CATRSM_ASSERT(comm.world_rank(self) == me,
                  "gather_region: owner mismatch");
    const auto [rp, cp] = *parts_of[static_cast<std::size_t>(self)];
    const auto& ri = rows_in[static_cast<std::size_t>(rp)];
    const auto& cj = cols_in[static_cast<std::size_t>(cp)];
    index_t lr0 = 0;
    for (index_t i = 0; i < rlo; ++i) lr0 += d.part_of_row(i) == rp;
    index_t lc0 = 0;
    for (index_t j = 0; j < clo; ++j) lc0 += d.part_of_col(j) == cp;
    const index_t nr = static_cast<index_t>(ri.size());
    const index_t nc = static_cast<index_t>(cj.size());
    CATRSM_ASSERT(lr0 + nr <= local.rows() && lc0 + nc <= local.cols(),
                  "gather_region: working copy smaller than my block");
    mine.resize(static_cast<std::size_t>(nr * nc));
    for (index_t a = 0; a < nr; ++a) {
      const double* row = local.ptr() + (lr0 + a) * local.cols() + lc0;
      std::copy(row, row + nc, mine.data() + a * nc);
    }
  }

  const coll::Buffer all = coll::allgather(comm, std::move(mine), counts);

  la::Matrix out(rhi - rlo, chi - clo);
  double* o = out.ptr();
  const index_t ld = chi - clo;
  const double* v = all.data();
  for (int s = 0; s < g; ++s) {
    const auto& parts = parts_of[static_cast<std::size_t>(s)];
    if (!parts.has_value()) continue;
    const auto& cj = cols_in[static_cast<std::size_t>(parts->second)];
    for (const index_t i : rows_in[static_cast<std::size_t>(parts->first)]) {
      double* row = o + (i - rlo) * ld;
      for (const index_t j : cj) row[j - clo] = *v++;
    }
  }
  CATRSM_ASSERT(v == all.data() + all.size(),
                "gather_region: stream size mismatch");
  return out;
}

la::Matrix collect(const DistMatrix& m, const sim::Comm& comm) {
  return gather_region(m.dist(), m.local(), m.me(), comm, 0, m.dist().rows(),
                       0, m.dist().cols());
}

DistMatrix cyclic_subblock(const DistMatrix& m, index_t i0, index_t j0,
                           index_t rows, index_t cols) {
  const BlockCyclicDist& md = as_unit_cyclic(m.dist(), "cyclic_subblock");
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 && i0 + rows <= md.rows() &&
                   j0 + cols <= md.cols(),
               "cyclic_subblock: block out of range");
  const int pr = md.face().pr();
  const int pc = md.face().pc();
  auto sub_d = std::make_shared<BlockCyclicDist>(
      md.face(), rows, cols, 1, 1,
      static_cast<int>((md.rsrc() + i0) % pr),
      static_cast<int>((md.csrc() + j0) % pc));
  DistMatrix sub(std::move(sub_d), m.me());
  if (sub.participates())
    copy_block(m.local(), run_start(m.my_rows(), i0, sub.my_rows()),
               run_start(m.my_cols(), j0, sub.my_cols()), sub.local(), 0, 0,
               sub.local().rows(), sub.local().cols());
  return sub;
}

void set_cyclic_subblock(DistMatrix& m, index_t i0, index_t j0,
                         const DistMatrix& sub) {
  as_unit_cyclic(m.dist(), "set_cyclic_subblock");
  CATRSM_CHECK(i0 >= 0 && j0 >= 0 &&
                   i0 + sub.dist().rows() <= m.dist().rows() &&
                   j0 + sub.dist().cols() <= m.dist().cols(),
               "set_cyclic_subblock: block out of range");
  if (!sub.participates()) return;
  copy_block(sub.local(), 0, 0, m.local(),
             run_start(m.my_rows(), i0, sub.my_rows()),
             run_start(m.my_cols(), j0, sub.my_cols()), sub.local().rows(),
             sub.local().cols());
}

}  // namespace catrsm::dist

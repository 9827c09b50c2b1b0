// Layer probes: each times one layer's public functions in isolation at the
// workload's p and shapes. Every probe repeats its call in batches and
// reports the median batch, so one slow batch does not move it.

#include <algorithm>
#include <numeric>

#include "bench.hpp"
#include "coll/collectives.hpp"
#include "dist/grid.hpp"
#include "dist/layout.hpp"
#include "dist/redistribute.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/tri_inv.hpp"
#include "la/trsm.hpp"
#include "sim/comm.hpp"

namespace perfbench {

namespace la = catrsm::la;
namespace sim = catrsm::sim;
namespace coll = catrsm::coll;
namespace dist = catrsm::dist;
namespace model = catrsm::model;

namespace {

constexpr int kBatches = 5;

index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// Median over batches of `per_batch()`, a timed batch's per-call value.
template <class F>
double median_of_batches(F&& per_batch) {
  std::vector<double> v;
  for (int b = 0; b < kBatches; ++b) v.push_back(per_batch());
  return median(std::move(v));
}

/// Wall time per call of `reps` calls of `body(rank)` inside one run.
template <class F>
double run_seconds_per_call(sim::Machine& m, int reps, F&& body) {
  const auto t0 = Clock::now();
  m.run([&](sim::Rank& r) { body(r); });
  return seconds_between(t0, Clock::now()) / reps;
}

/// GFLOP/s of `call` (which returns the seconds it spent in the kernel),
/// run on rank 0 of a simulated run: kernel calls inside a simulated rank
/// never fan out to the kernel thread pool, so this is single-threaded.
template <class F>
double single_thread_gflops(sim::Machine& m, double flops_per_call, F&& call) {
  return median_of_batches([&] {
    double busy = 0;
    int reps = 0;
    m.run([&](sim::Rank& r) {
      if (r.id() != 0) return;
      while (busy < 0.04) {
        busy += call();
        ++reps;
      }
    });
    return flops_per_call * reps / busy * 1e-9;
  });
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// Per-rank kernel shapes of one request, derived from the plan's config.
struct Tiles {
  index_t gemm_m, gemm_n, gemm_k;  // largest per-rank GEMM
  index_t trsm_n, trsm_k;          // local triangular solve
  index_t inv_n;                   // diagonal block inverted
};

Tiles tiles_of(const Workload& w, const model::Config& c) {
  const index_t n = w.desc.n;
  const index_t k = w.desc.k;
  if (c.algorithm == model::Algorithm::kIterative) {
    // it-inv on p1 x p1 x p2: diagonal blocks of nb rows; a rank holds
    // rows cyclic over p1 and k / p2 columns. The largest GEMM is the
    // first block column's update of the trailing rows.
    const index_t nb = ceil_div(n, c.nblocks);
    const index_t kz = ceil_div(k, c.p2);
    return {ceil_div(std::max<index_t>(n - nb, nb), c.p1), kz,
            ceil_div(nb, c.p1), ceil_div(nb, c.p1), kz, nb};
  }
  // rec-trsm: the base case solves all of L against k / p columns; the
  // recursion's update multiplies half-size blocks.
  const index_t kp = ceil_div(k, w.p);
  return {ceil_div(n, 2), kp, ceil_div(n, 2), n, kp, n};
}

/// Communicator group size and per-rank payload (words) of the
/// workload's collectives: the y-fiber of the it-inv grid carrying a
/// rank's B panel, or the whole 1D group carrying its B slab.
std::pair<int, std::size_t> coll_shape(const Workload& w,
                                       const model::Config& c) {
  const index_t n = w.desc.n;
  const index_t k = w.desc.k;
  if (c.algorithm == model::Algorithm::kIterative)
    return {c.p1,
            static_cast<std::size_t>(ceil_div(n, c.p1) * ceil_div(k, c.p2))};
  return {w.p, static_cast<std::size_t>(ceil_div(n * k, w.p))};
}

enum class CollKind { kAllgather, kBcast, kReduceScatter, kAllreduce };

double coll_us(sim::Machine& m, int g, std::size_t words, CollKind kind) {
  constexpr int kReps = 20;
  return 1e6 * median_of_batches([&] {
    return run_seconds_per_call(m, kReps, [&](sim::Rank& r) {
      std::vector<int> members(static_cast<std::size_t>(g));
      std::iota(members.begin(), members.end(), r.id() / g * g);
      const sim::Comm c(r, members);
      const std::size_t part = std::max<std::size_t>(words / g, 1);
      const sim::Buffer full(std::vector<double>(words, 1.0));
      const sim::Buffer mine(std::vector<double>(part, 1.0));
      const coll::Counts counts = coll::even_counts(words, g);
      for (int i = 0; i < kReps; ++i) {
        switch (kind) {
          case CollKind::kAllgather:
            (void)coll::allgather_equal(c, mine);
            break;
          case CollKind::kBcast:
            (void)coll::bcast(c, 0, c.rank() == 0 ? full : sim::Buffer(),
                              words);
            break;
          case CollKind::kReduceScatter:
            (void)coll::reduce_scatter(c, full, counts);
            break;
          case CollKind::kAllreduce:
            (void)coll::allreduce(c, full);
            break;
        }
      }
    });
  });
}

// collect() replicates L on every rank; above this size the probe
// collects the leading block instead, so p = 64 stays within memory.
constexpr index_t kCollectMaxN = 512;

double redistribute_ms(sim::Machine& m, index_t n, index_t k) {
  constexpr int kReps = 5;
  const int p = m.nprocs();
  return 1e3 * median_of_batches([&] {
    return run_seconds_per_call(m, kReps, [&](sim::Rank& r) {
      const sim::Comm world = sim::Comm::world(r);
      const auto [pr, pc] = dist::balanced_factors(p);
      const dist::Face2D face(world, pr, pc);
      dist::DistMatrix b(dist::cyclic_on(face, n, k), r.id());
      std::fill(b.local().data().begin(), b.local().data().end(), 1.0);
      // Cyclic to column slabs over a flat 1 x p face: rec-trsm's base case.
      const dist::Face2D flat(world, 1, p);
      auto slabs = std::make_shared<dist::BlockCyclicDist>(
          flat, n, k, std::max<index_t>(n, 1),
          std::max<index_t>(ceil_div(k, p), 1));
      for (int i = 0; i < kReps; ++i)
        (void)dist::redistribute(b, slabs, world);
    });
  });
}

double collect_ms(sim::Machine& m, index_t n) {
  constexpr int kReps = 5;
  const int p = m.nprocs();
  return 1e3 * median_of_batches([&] {
    return run_seconds_per_call(m, kReps, [&](sim::Rank& r) {
      const sim::Comm world = sim::Comm::world(r);
      const auto [pr, pc] = dist::balanced_factors(p);
      const dist::Face2D face(world, pr, pc);
      dist::DistMatrix l(dist::cyclic_on(face, n, n), r.id());
      std::fill(l.local().data().begin(), l.local().data().end(), 1.0);
      for (int i = 0; i < kReps; ++i) (void)dist::collect(l, world);
    });
  });
}

double run_empty_us(sim::Machine& m) {
  constexpr int kRuns = 40;
  return 1e6 * median_of_batches([&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kRuns; ++i) m.run([](sim::Rank&) {});
    return seconds_between(t0, Clock::now()) / kRuns;
  });
}

double pingpong_us(sim::Machine& m) {
  constexpr int kReps = 500;
  constexpr int kTag = 1;  // below coll::kTagBase: user point-to-point
  return 1e6 * median_of_batches([&] {
    return run_seconds_per_call(m, kReps, [&](sim::Rank& r) {
      const sim::Buffer word(std::vector<double>{1.0});
      for (int i = 0; i < kReps; ++i) {
        if (r.id() == 0) {
          r.send(1, word, kTag);
          (void)r.recv(1, kTag);
        } else if (r.id() == 1) {
          r.send(0, r.recv(0, kTag), kTag);
        }
      }
    });
  });
}

double gemm_gflops(sim::Machine& m, index_t mm, index_t nn, index_t kk) {
  const la::Matrix a = la::make_dense(11, mm, kk);
  const la::Matrix b = la::make_dense(12, kk, nn);
  la::Matrix c(mm, nn);
  return single_thread_gflops(m, la::gemm_flops(mm, nn, kk), [&] {
    return timed([&] { la::gemm(1.0, a, b, 0.0, c); });
  });
}

double trsm_gflops(sim::Machine& m, index_t n, index_t k) {
  const la::Matrix l = la::make_lower_triangular(13, n);
  const la::Matrix b0 = la::make_rhs(14, n, k);
  la::Matrix b = b0;
  return single_thread_gflops(m, la::trsm_flops(n, k), [&] {
    b = b0;  // solve fresh data each call (untimed copy)
    return timed([&] {
      la::trsm_left(la::Uplo::kLower, la::Diag::kNonUnit, l, b);
    });
  });
}

double tri_inv_gflops(sim::Machine& m, index_t n) {
  const la::Matrix l = la::make_lower_triangular(15, n);
  return single_thread_gflops(m, la::tri_inv_flops(n), [&] {
    return timed([&] { (void)la::tri_inv(la::Uplo::kLower, l); });
  });
}

}  // namespace

double ref_gemm_gflops(sim::Machine& m) { return gemm_gflops(m, 256, 256, 256); }

std::vector<Metric> layer_probes(Server& s, const Workload& w) {
  sim::Machine& m = s.ctx.machine();
  const model::Config& c = s.plan->config();
  const Tiles t = tiles_of(w, c);
  const auto [g, words] = coll_shape(w, c);
  const index_t n = w.desc.n;
  const index_t k = w.desc.k;

  std::vector<Metric> out;
  out.push_back({"sim.run_empty_us", run_empty_us(m), "us"});
  out.push_back({"sim.pingpong_us", pingpong_us(m), "us"});
  out.push_back({"coll.allgather_us",
                 coll_us(m, g, words, CollKind::kAllgather), "us"});
  out.push_back({"coll.bcast_us", coll_us(m, g, words, CollKind::kBcast),
                 "us"});
  out.push_back({"coll.reduce_scatter_us",
                 coll_us(m, g, words, CollKind::kReduceScatter), "us"});
  out.push_back({"coll.allreduce_us",
                 coll_us(m, g, words, CollKind::kAllreduce), "us"});
  out.push_back({"dist.redistribute_ms", redistribute_ms(m, n, k), "ms"});
  out.push_back(
      {"dist.collect_ms", collect_ms(m, std::min(n, kCollectMaxN)), "ms"});
  out.push_back({"la.gemm_gflops",
                 gemm_gflops(m, t.gemm_m, t.gemm_n, t.gemm_k), "GFLOP/s"});
  out.push_back(
      {"la.trsm_gflops", trsm_gflops(m, t.trsm_n, t.trsm_k), "GFLOP/s"});
  out.push_back({"la.tri_inv_gflops", tri_inv_gflops(m, t.inv_n), "GFLOP/s"});
  return out;
}

}  // namespace perfbench

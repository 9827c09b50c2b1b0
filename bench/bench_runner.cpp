// Machine-readable perf tracking: runs the kernel-substrate and crossover
// bench cases plus the batched-solve scenario the zero-copy transport and
// persistent scheduler target, and writes BENCH_sim.json — one record per
// case with wall-clock milliseconds AND the modeled (S, W, F,
// critical-path time) of the same execution, so the wall-clock trajectory
// can be tracked across PRs while the modeled costs pin down that the
// simulation itself did not change.
//
//   ./bench_runner [output.json] [--threads N] [--assert-scaling]
//                  [--assert-fusion] [--assert-streams]
//
// --threads N overrides the kernel pool size for the multi-threaded
// cases (default: CATRSM_KERNEL_THREADS / hardware_concurrency). The
// plain kernel/* cases (f64 GEMM, TRSM and tri-inv, the whole kernel
// layer) always run single-threaded so their trajectory stays comparable
// across machines; kernel/gemm_mt sweeps the pool over {1, 2, 4, hw}
// next to a same-shape single-threaded baseline, and the batch case runs
// once with the slab pool and once without, so both tentpole wins are
// committed numbers. Every record carries the detected hardware
// concurrency, so a committed speedup can always be read against the
// cores that produced it.
//
// The three gates below share one noise-aware form: five interleaved
// (baseline, candidate) pairs, one ratio per pair, the gate reading the
// median of the five (min, median and max are printed). One pair is one
// sample of a noisy ratio; the median keeps a single preempted run from
// flipping the verdict either way.
//
// --assert-scaling exits non-zero when the median paired ratio of the
// pooled to the single-threaded GEMM wall at n = 1024 (at the configured
// pool size) exceeds 1.05x — the CI tripwire that keeps the pool from
// silently regressing to a slowdown again.
//
// --assert-fusion exits non-zero when the median paired ratio of the
// fused batch (batch/it_trsm_32x_p64_fused, the whole panel stream as
// ONE simulated run) to the unfused loop of execute calls exceeds 1.05x —
// the same kind of tripwire for the Program-fusion win. Independently of
// the flag, in every pair the fused batch's solutions are compared bit
// for bit against the unfused ones and any mismatch fails the run.
//
// --assert-streams exits non-zero when the median paired ratio of
// concurrent to serial solves/sec of streams/mixed_tenant is below
// 1.05x. Independently of the flag, in every pair each concurrent
// solution is compared bit for bit against its serial counterpart and
// every request's modeled cost must be identical across the two passes.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/catrsm.hpp"
#include "api/stream_pool.hpp"
#include "dist/redistribute.hpp"
#include "bench_util.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/kernel/kernel.hpp"
#include "la/kernel/pool.hpp"
#include "la/norms.hpp"
#include "la/tri_inv.hpp"
#include "la/trsm.hpp"
#include "model/tuning.hpp"
#include "sim/slab.hpp"
#include "trsm/it_inv_trsm.hpp"

namespace {

using namespace catrsm;
using la::index_t;
using Clock = std::chrono::steady_clock;

struct Record {
  std::string name;
  int p = 0;
  index_t n = 0;
  index_t k = 0;
  double wall_ms = 0.0;
  double iterations = 1.0;  // wall_ms is for ALL iterations
  sim::Cost modeled;        // zero for host-only kernel cases
  double critical_time = 0.0;
  double gflops = 0.0;       // kernel cases only: flops / wall-clock
  std::string backend;       // kernel cases only: dispatched micro-kernel
  int threads = 1;           // kernel pool size the case's la:: calls saw
  int trials = 0;            // dist cases only: wall_ms is the median of
  double wall_min_ms = 0.0;  // `trials` per-call times, this their min
};

/// Detected hardware concurrency, stamped into every record: a committed
/// speedup is meaningless without the core count that produced it.
int hw_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median of a non-empty sample.
double median_of(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

constexpr int kGatePairs = 5;

/// The shared form of the wall-clock gates: kGatePairs interleaved
/// (baseline, candidate) pairs, each reduced to one ratio by `pair(i)`,
/// which runs both sides back to back (and may check them). One pair is
/// one sample of a noisy ratio, so the gate reads the median; min and max
/// are printed next to it so the spread is on record.
template <class Pair>
double median_paired_ratio(const std::string& label, Pair&& pair) {
  std::vector<double> ratios;
  for (int i = 0; i < kGatePairs; ++i) ratios.push_back(pair(i));
  const double median = median_of(ratios);
  std::cout << label << ": " << kGatePairs << " interleaved pairs, min "
            << *std::min_element(ratios.begin(), ratios.end())
            << "x, median " << median << "x, max "
            << *std::max_element(ratios.begin(), ratios.end()) << "x\n";
  return median;
}

void append_json(std::string& out, const Record& r, bool last) {
  out += "  {\"name\": \"" + r.name + "\"";
  out += ", \"p\": " + std::to_string(r.p);
  out += ", \"n\": " + std::to_string(r.n);
  out += ", \"k\": " + std::to_string(r.k);
  out += ", \"iterations\": " + std::to_string(r.iterations);
  out += ", \"threads\": " + std::to_string(r.threads);
  out += ", \"hw_concurrency\": " + std::to_string(hw_concurrency());
  out += ", \"wall_ms\": " + std::to_string(r.wall_ms);
  if (r.trials > 0) {
    out += ", \"trials\": " + std::to_string(r.trials);
    out += ", \"wall_min_ms\": " + std::to_string(r.wall_min_ms);
  }
  if (!r.backend.empty()) {
    out += ", \"gflops\": " + std::to_string(r.gflops);
    out += ", \"kernel_backend\": \"" + r.backend + "\"";
  }
  out += ", \"modeled\": {\"msgs\": " + std::to_string(r.modeled.msgs);
  out += ", \"words\": " + std::to_string(r.modeled.words);
  out += ", \"flops\": " + std::to_string(r.modeled.flops);
  out += ", \"critical_time\": " + std::to_string(r.critical_time) + "}}";
  out += last ? "\n" : ",\n";
}

// Rep counts for the host-only kernel cases: the committed file once
// carried kernel/gemm at 21.3 GFLOP/s next to gemm_st at 30.1 for the
// SAME configuration — pure run-to-run noise. Two warmups settle the
// frequency governor and a median of 9 pins the middle of the
// distribution.
constexpr int kKernelWarmups = 2;
constexpr int kKernelReps = 9;

/// E10-style local kernel substrate cases (no simulated machine). Each
/// case is kKernelWarmups warmup runs plus the median of kKernelReps
/// timed runs; `gflops` turns the wall clock into a machine-readable flop
/// rate so the perf trajectory of the micro-kernel layer can be tracked
/// across PRs. Forced to one kernel thread: the single-core trajectory
/// stays comparable across PRs and machines (kernel/gemm_mt carries the
/// scaling story).
void run_kernel_cases(std::vector<Record>& records) {
  la::kernel::ThreadPool::set_threads_for_testing(1);
  const std::string backend = la::kernel::backend_name();
  const auto push = [&](const char* name, index_t n, index_t k, double wall,
                        double flops) {
    Record r{name, 1, n,  k, wall, 1.0, {}, 0.0, flops / (wall * 1e6),
             backend, 1};
    records.push_back(std::move(r));
  };
  for (const index_t n : {64, 128, 256, 512}) {
    {
      const la::Matrix a = la::make_dense(1, n, n);
      const la::Matrix b = la::make_dense(2, n, n);
      la::Matrix c(n, n);
      const double wall = bench::median_wall_ms(
          kKernelWarmups, kKernelReps, [&] { la::gemm(1.0, a, b, 0.0, c); });
      push("kernel/gemm", n, n, wall, la::gemm_flops(n, n, n));
    }
    {
      const la::Matrix l = la::make_lower_triangular(3, n);
      const la::Matrix b = la::make_rhs(4, n, n);
      la::Matrix x = b;  // preallocated: the timed body re-copies the RHS
                         // (the solve is in-place) but never allocates
      const double wall = bench::median_wall_ms(kKernelWarmups, kKernelReps,
                                                [&] {
        x = b;
        la::trsm_left(la::Uplo::kLower, la::Diag::kNonUnit, l, x);
      });
      push("kernel/trsm", n, n, wall, la::trsm_flops(n, n));
    }
    {
      const la::Matrix l = la::make_lower_triangular(5, n);
      const double wall = bench::median_wall_ms(
          kKernelWarmups, kKernelReps,
          [&] { (void)la::tri_inv(la::Uplo::kLower, l); });
      push("kernel/tri_inv", n, 0, wall, la::tri_inv_flops(n));
    }
  }
  la::kernel::ThreadPool::set_threads_for_testing(0);
}

/// Multi-threaded scaling cases: the same GEMM shape through the kernel
/// pool swept over {1, 2, 4, hw} threads, next to a single-threaded run
/// of the identical shape, so the committed JSON carries the whole
/// scaling curve (the `threads` field says what produced each record).
/// Returns, for the --assert-scaling tripwire, the median paired ratio
/// of the pool_threads wall to the single-threaded wall at n = 1024
/// (0 when pool_threads is 1: there is nothing to gate).
double run_kernel_mt_cases(std::vector<Record>& records, int pool_threads) {
  const std::string backend = la::kernel::backend_name();
  std::vector<int> sweep{1, 2, 4, hw_concurrency(), pool_threads};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  double scaling_ratio = 0.0;
  for (const index_t n : {512, 1024, 2048}) {
    const la::Matrix a = la::make_dense(21, n, n);
    const la::Matrix b = la::make_dense(22, n, n);
    la::Matrix c(n, n);
    la::kernel::ThreadPool::set_threads_for_testing(1);
    const double wall_st = bench::median_wall_ms(
        kKernelWarmups, kKernelReps, [&] { la::gemm(1.0, a, b, 0.0, c); });
    const double flops = la::gemm_flops(n, n, n);
    records.push_back({"kernel/gemm_st", 1, n, n, wall_st, 1.0, {}, 0.0,
                       flops / (wall_st * 1e6), backend, 1});
    for (const int t : sweep) {
      if (t <= 1) continue;
      la::kernel::ThreadPool::set_threads_for_testing(t);
      const double wall_mt = bench::median_wall_ms(
          kKernelWarmups, kKernelReps, [&] { la::gemm(1.0, a, b, 0.0, c); });
      records.push_back({"kernel/gemm_mt", 1, n, n, wall_mt, 1.0, {}, 0.0,
                         flops / (wall_mt * 1e6), backend, t});
      std::cout << "kernel/gemm_mt n=" << n << ": " << wall_st << " ms @1 -> "
                << wall_mt << " ms @" << t << " threads ("
                << wall_st / wall_mt << "x)\n";
    }
    if (n == 1024 && pool_threads > 1) {
      const auto timed = [&](int t) {
        la::kernel::ThreadPool::set_threads_for_testing(t);
        const auto t0 = Clock::now();
        la::gemm(1.0, a, b, 0.0, c);
        return ms_since(t0);
      };
      scaling_ratio = median_paired_ratio(
          "scaling gate: gemm_mt/gemm_st wall at n=1024, " +
              std::to_string(pool_threads) + " threads",
          [&](int) {
            const double st = timed(1);
            return timed(pool_threads) / st;
          });
    }
    la::kernel::ThreadPool::set_threads_for_testing(0);
  }
  return scaling_ratio;
}

/// E11-style crossover cases: each (n, k) shape under every forced
/// algorithm, recording the modeled algorithm cost next to the wall clock.
void run_crossover_cases(std::vector<Record>& records) {
  const int p = 16;
  struct Shape {
    index_t n, k;
  };
  struct Algo {
    model::Algorithm a;
    const char* name;
  };
  api::Context ctx(p);
  for (const Shape s : {Shape{16, 1024}, Shape{64, 64}, Shape{256, 4}}) {
    const la::Matrix l = la::make_lower_triangular(1, s.n);
    const la::Matrix b = la::make_rhs(2, s.n, s.k);
    for (const Algo algo : {Algo{model::Algorithm::kIterative, "iterative"},
                            Algo{model::Algorithm::kRecursive, "recursive"},
                            Algo{model::Algorithm::kTrsm2D, "2d"}}) {
      api::TrsmSpec spec;
      spec.force_algorithm = true;
      spec.algorithm = algo.a;
      auto plan = ctx.plan(api::trsm_op(s.n, s.k, spec));
      const auto t0 = Clock::now();
      const api::ExecResult r = plan->execute(l, b);
      Record rec{"crossover/" + std::string(algo.name), p, s.n, s.k,
                 ms_since(t0), 1.0, r.algorithm_cost(),
                 r.stats.critical_time};
      records.push_back(rec);
    }
  }
}

// The scenario the zero-copy buffers, persistent scheduler, slab pool
// and Program fusion target: one plan, 32 iterative-TRSM solves at
// p = 64. The whole cold path — fresh Context, plan build, first-solve
// diag inversion — is inside every timed body: a warm plan cache would
// both shrink the wall and report the cheap re-solve stats instead of
// the committed cold-batch cost model.
constexpr int kBatchP = 64;
constexpr index_t kBatchN = 96, kBatchK = 48;
constexpr int kBatchItems = 32;

std::shared_ptr<api::Plan> batch_plan(api::Context& ctx) {
  api::TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  return ctx.plan(api::trsm_op(kBatchN, kBatchK, spec));
}

std::vector<la::Matrix> batch_rhs() {
  std::vector<la::Matrix> bs;
  bs.reserve(kBatchItems);
  for (int i = 0; i < kBatchItems; ++i)
    bs.push_back(
        la::make_rhs(100 + static_cast<std::uint64_t>(i), kBatchN, kBatchK));
  return bs;
}

/// The per-panel baseline: a loop of 32 execute calls, one run each.
std::vector<api::ExecResult> unfused_batch(const la::Matrix& l,
                                           const std::vector<la::Matrix>& bs,
                                           api::CacheStats& cs) {
  api::Context ctx(kBatchP);
  auto plan = batch_plan(ctx);
  std::vector<api::ExecResult> results;
  for (const la::Matrix& b : bs) results.push_back(plan->execute(l, b));
  cs = ctx.cache_stats();
  return results;
}

/// The fused form: the whole 32-panel stream as ONE api::Program in ONE
/// Machine::run — L uploaded once, intermediates resident in the
/// HandleStore, the diagonal inversion shared across panels inside the
/// run, one describe-only communicator realization per layout.
api::BatchResult fused_batch(const la::Matrix& l,
                             const std::vector<la::Matrix>& bs,
                             api::CacheStats& cs) {
  api::Context ctx(kBatchP);
  auto plan = batch_plan(ctx);
  api::BatchResult result = plan->execute_batch(l, bs);
  cs = ctx.cache_stats();
  return result;
}

void print_batch(const std::string& name, double wall,
                 const api::CacheStats& cs) {
  std::cout << name << ": " << wall << " ms for " << kBatchItems
            << " solves (" << wall / kBatchItems
            << " ms/solve); plan-cache hits=" << cs.hits
            << " misses=" << cs.misses << " entries=" << cs.entries << "\n";
}

/// The batch records, in committed order:
///  - batch/it_trsm_32x_p64: the unfused loop with the slab pool
///    recycling message storage across runs;
///  - batch/it_trsm_32x_p64_nopool: the same with every payload freshly
///    allocated (one warmup + median of 3), so the pooling win is a
///    committed number — allocation strategy cannot perturb the cost
///    model, so its modeled fields must equal the pooled record's;
///  - batch/it_trsm_32x_p64_fused: the fused batch, whose modeled cost
///    is the whole run's algorithm phase (iterations says it covers all
///    32 solves).
/// The unfused and fused batches run as one warmup of each plus
/// kGatePairs interleaved (unfused, fused) pairs; each record's wall is
/// the median of its side, and in every pair the fused solutions must
/// match the unfused ones bit for bit. Returns the median paired
/// fused/unfused wall ratio for the --assert-fusion tripwire.
double run_batch_cases(std::vector<Record>& records) {
  const la::Matrix l = la::make_lower_triangular(11, kBatchN);
  const std::vector<la::Matrix> bs = batch_rhs();
  api::CacheStats cs_unfused, cs_fused;
  std::vector<api::ExecResult> unfused;
  api::BatchResult fused;
  const auto wall_of = [](auto&& body) {
    const auto t0 = Clock::now();
    body();
    return ms_since(t0);
  };
  (void)unfused_batch(l, bs, cs_unfused);
  (void)fused_batch(l, bs, cs_fused);
  std::vector<double> walls_unfused, walls_fused;
  const double fusion_ratio = median_paired_ratio(
      "fusion gate: fused/unfused batch wall", [&](int pair) {
        walls_unfused.push_back(
            wall_of([&] { unfused = unfused_batch(l, bs, cs_unfused); }));
        walls_fused.push_back(
            wall_of([&] { fused = fused_batch(l, bs, cs_fused); }));
        for (int i = 0; i < kBatchItems; ++i) {
          const std::size_t u = static_cast<std::size_t>(i);
          if (!fused.xs[u].equals(unfused[u].x)) {
            std::cerr << "FUSED MISMATCH: pair " << pair << ", panel " << i
                      << " differs bitwise from the unfused batch\n";
            std::exit(1);
          }
        }
        return walls_fused.back() / walls_unfused.back();
      });

  const double wall_unfused = median_of(walls_unfused);
  records.push_back({"batch/it_trsm_32x_p64", kBatchP, kBatchN, kBatchK,
                     wall_unfused, double(kBatchItems),
                     unfused.front().algorithm_cost(),
                     unfused.front().stats.critical_time});
  print_batch(records.back().name, wall_unfused, cs_unfused);

  sim::set_slab_pool_enabled(false);
  std::vector<api::ExecResult> nopool;
  api::CacheStats cs_nopool;
  const double wall_nopool = bench::median_wall_ms(
      1, 3, [&] { nopool = unfused_batch(l, bs, cs_nopool); });
  sim::set_slab_pool_enabled(true);
  records.push_back({"batch/it_trsm_32x_p64_nopool", kBatchP, kBatchN,
                     kBatchK, wall_nopool, double(kBatchItems),
                     nopool.front().algorithm_cost(),
                     nopool.front().stats.critical_time});
  print_batch(records.back().name, wall_nopool, cs_nopool);

  const double wall_fused = median_of(walls_fused);
  records.push_back({"batch/it_trsm_32x_p64_fused", kBatchP, kBatchN,
                     kBatchK, wall_fused, double(kBatchItems),
                     fused.algorithm_cost(), fused.stats.critical_time});
  print_batch(records.back().name, wall_fused, cs_fused);
  const api::ProgramStats& ps = fused.program_stats;
  std::cout << "  fused program steps=" << ps.steps_executed
            << " merged=" << ps.nodes_merged << " elided=" << ps.nodes_elided
            << " redist=" << ps.redistributes_inserted << "\n";
  return fusion_ratio;
}

/// The resident-operand form of the same scenario: upload L ONCE, then 32
/// execute_dist calls (per-item B upload + X download included — that is
/// the serving traffic pattern), versus batch/it_trsm_32x_p64 whose
/// execute runs the same path from host matrices, fingerprinting L and
/// checking the residual on every call. Modeled algorithm cost and
/// critical time must be identical to the batch record (same run); the
/// wall-clock gap is the matrix-in driver's host-side overhead.
void run_resident_batch_case(std::vector<Record>& records) {
  api::Context ctx(kBatchP);
  auto plan = batch_plan(ctx);
  const la::Matrix l = la::make_lower_triangular(11, kBatchN);
  const std::vector<la::Matrix> bs = batch_rhs();

  const auto t0 = Clock::now();
  const api::DistHandle hl = ctx.upload(l, plan->input_layout(0));
  sim::Cost modeled;
  double critical = 0.0;
  for (int i = 0; i < kBatchItems; ++i) {
    const api::DistHandle hb =
        ctx.upload(bs[static_cast<std::size_t>(i)], plan->input_layout(1));
    const api::DistExecResult r = plan->execute_dist(hl, hb);
    (void)ctx.download(r.x);
    if (i == 0) {
      modeled = r.algorithm_cost();
      critical = r.stats.critical_time;
    }
  }
  const double wall = ms_since(t0);
  records.push_back({"resident/it_trsm_32x_p64", kBatchP, kBatchN, kBatchK,
                     wall, double(kBatchItems), modeled, critical});
  std::cout << "resident/it_trsm_32x_p64: " << wall << " ms for "
            << kBatchItems << " solves (" << wall / kBatchItems
            << " ms/solve)\n";
}

/// The full SPD pipeline as a 3-op program (factor -> solve -> reversed
/// solve) in one simulated run with no intermediate collects.
void run_program_case(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 128, k = 32;
  api::Context ctx(p);
  const la::Matrix a = la::make_spd(41, n);
  const la::Matrix b = la::make_rhs(42, n, k);
  auto plan = ctx.plan(api::cholesky_solve_op(n, k));
  const auto t0 = Clock::now();
  const api::ExecResult r = plan->execute(a, b);
  records.push_back({"program/spd_pipeline", p, n, k, ms_since(t0), 1.0,
                     r.algorithm_cost(), r.stats.critical_time});
  const api::CacheStats cs = ctx.cache_stats();
  std::cout << "program/spd_pipeline: " << records.back().wall_ms
            << " ms (residual " << r.residual << "); plan-cache hits="
            << cs.hits << " misses=" << cs.misses << " entries="
            << cs.entries << "\n";
}

/// The optimizer A/B on a redundantly-written SPD pipeline: three
/// right-hand sides, each wiring its OWN factor step against the same
/// operand — the shape a naive program author produces. With the
/// optimizer on, the duplicate factors merge and kCholesky runs once;
/// off, the DAG runs as written. Both records carry the whole run's
/// modeled algorithm cost, so the committed pair shows the merge win in
/// S/W/F, not just wall clock.
void run_program_opt_cases(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 128, k = 32;
  const int panels = 3;
  const int q = 4;  // square factor subgrid of p = 16
  api::Context ctx(p);
  const la::Matrix a = la::make_spd(41, n);

  auto solve_plan = ctx.plan(api::cholesky_solve_op(n, k));
  auto factor_plan = ctx.plan(api::cholesky_op(n, q));
  api::TrsmSpec fwd;
  fwd.force_algorithm = true;
  fwd.algorithm = model::Algorithm::kIterative;
  fwd.nblocks = solve_plan->config().nblocks;
  fwd.grid_p1 = q;
  fwd.grid_p2 = 1;
  auto fwd_plan = ctx.plan(api::trsm_op(n, k, fwd));
  api::TrsmSpec bwd = fwd;
  bwd.transpose = true;
  auto bwd_plan = ctx.plan(api::trsm_op(n, k, bwd));

  api::Program prog(ctx);
  std::vector<api::DistHandle> inputs{
      ctx.upload(a, factor_plan->input_layout(0))};
  const auto na = prog.input(n, n);
  for (int j = 0; j < panels; ++j) {
    const la::Matrix b =
        la::make_rhs(42 + static_cast<std::uint64_t>(j), n, k);
    inputs.push_back(ctx.upload(b, fwd_plan->input_layout(1)));
    const auto nb = prog.input(n, k);
    const auto nl = prog.add(factor_plan, {na});
    const auto ny = prog.add(fwd_plan, {nl, nb});
    prog.mark_output(prog.add(bwd_plan, {nl, ny}));
  }

  for (const bool optimized : {true, false}) {
    prog.set_optimize(optimized);
    const auto t0 = Clock::now();
    const api::Program::Result r = prog.run(inputs);
    const api::ProgramStats& ps = prog.stats();
    records.push_back({optimized ? "program/spd_pipeline_opt"
                                 : "program/spd_pipeline_noopt",
                       p, n, k, ms_since(t0), double(panels),
                       r.algorithm_cost(), r.stats.critical_time});
    std::cout << records.back().name << ": " << records.back().wall_ms
              << " ms for " << panels << " rhs panels; program steps="
              << ps.steps_executed << " merged=" << ps.nodes_merged
              << " elided=" << ps.nodes_elided << " redist="
              << ps.redistributes_inserted << " avoided="
              << ps.redistributes_avoided << "\n";
  }
}

/// Oracle-overhead A/B: the same solve with the correctness oracle
/// (collective matching; the deadlock detector is always armed) off and
/// on. The oracle observes, never participates, so the two records'
/// modeled S/W/F and critical time must be byte-identical in the
/// committed JSON — a divergence is a regression in that zero-cost
/// guarantee. The wall-clock delta is the oracle's real overhead.
void run_oracle_cases(std::vector<Record>& records) {
  const int p = 16;
  const index_t n = 128, k = 32;
  const la::Matrix l = la::make_lower_triangular(51, n);
  const la::Matrix b = la::make_rhs(52, n, k);
  for (const bool checked : {false, true}) {
    api::Context ctx(p);
    ctx.machine().set_collective_checking(checked);
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctx.plan(api::trsm_op(n, k, spec));
    const auto t0 = Clock::now();
    const api::ExecResult r = plan->execute(l, b);
    records.push_back({checked ? "oracle/it_trsm_p16_check"
                               : "oracle/it_trsm_p16_nocheck",
                       p, n, k, ms_since(t0), 1.0, r.algorithm_cost(),
                       r.stats.critical_time});
    std::cout << records.back().name << ": " << records.back().wall_ms
              << " ms\n";
  }

  // Same solve with the fault-injection layer compiled in but DISARMED:
  // the injector's zero-cost contract (one null test per transport op,
  // no stamps, no sweeps) means this record's modeled S/W/F and critical
  // time must stay byte-identical to oracle/it_trsm_p16_nocheck in the
  // committed JSON.
  {
    api::Context ctx(p);
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctx.plan(api::trsm_op(n, k, spec));
    const auto t0 = Clock::now();
    const api::ExecResult r = plan->execute(l, b);
    records.push_back({"oracle/injection_disarmed", p, n, k, ms_since(t0),
                       1.0, r.algorithm_cost(), r.stats.critical_time});
    std::cout << records.back().name << ": " << records.back().wall_ms
              << " ms\n";
  }
}

/// The execution-streams tentpole: four tenant Contexts sharing ONE
/// machine, a skewed mix of iterative-TRSM solves (every request its own
/// L and B, so streams never contend on a handle), served two ways over
/// the SAME pre-uploaded operands — a serial loop (execute_dist +
/// download per request, in admission order) versus api::StreamPool
/// keeping CATRSM_SIM_STREAMS runs in flight while the host downloads
/// finished solutions. Both walls are committed as solves/sec-derivable
/// records; every concurrent solution must match its serial counterpart
/// bit for bit, and every request's modeled S/W/F + critical time must be
/// identical across the two passes (per-run virtual clocks — concurrency
/// cannot perturb the cost model). Both records carry the median walls of
/// kGatePairs interleaved serial/concurrent pairs; returns the median
/// paired solves/sec speedup (serial wall / concurrent wall) for the
/// --assert-streams tripwire.
double run_stream_cases(std::vector<Record>& records) {
  // p = 8 on purpose: stream overlap pays when one run cannot keep the
  // host cores busy by itself. A small-p iterative solve is exactly that
  // — its dependency chain leaves workers idle between panels — so the
  // pool's other streams fill the gaps. (At p = 64 a single run already
  // saturates a 2-core CI box and overlap can only add overhead; that
  // regime belongs to the scaling cases, not here.)
  const int p = 8;
  const int tenants = 4;
  struct Req {
    int tenant;
    index_t n, k;
  };
  // Skewed: tenant 0 carries the deep backlog of mid-size panels, the
  // rest bring lighter/odd-shaped traffic — interleaved round-robin, the
  // order the pool itself admits in, so the serial baseline is the same
  // schedule minus the overlap.
  std::vector<Req> reqs;
  {
    std::vector<std::vector<Req>> per_tenant(tenants);
    for (int i = 0; i < 12; ++i) per_tenant[0].push_back({0, 96, 48});
    for (int i = 0; i < 8; ++i) per_tenant[1].push_back({1, 128, 32});
    for (int i = 0; i < 6; ++i) per_tenant[2].push_back({2, 64, 96});
    for (int i = 0; i < 6; ++i) per_tenant[3].push_back({3, 96, 16});
    for (std::size_t row = 0; true;) {
      bool any = false;
      for (auto& q : per_tenant)
        if (row < q.size()) {
          reqs.push_back(q[row]);
          any = true;
        }
      if (!any) break;
      ++row;
    }
  }
  const int items = static_cast<int>(reqs.size());

  sim::Machine machine(p);
  std::vector<std::unique_ptr<api::Context>> ctxs;
  for (int t = 0; t < tenants; ++t)
    ctxs.push_back(std::make_unique<api::Context>(machine));

  // Per-request plans + operands, uploaded once up front: the timed
  // section is pure serving (solve + download), identical for both
  // passes.
  std::vector<std::shared_ptr<api::Plan>> plans;
  std::vector<api::DistHandle> hls, hbs;
  for (int i = 0; i < items; ++i) {
    const Req& q = reqs[static_cast<std::size_t>(i)];
    api::TrsmSpec spec;
    spec.force_algorithm = true;
    spec.algorithm = model::Algorithm::kIterative;
    auto plan = ctxs[static_cast<std::size_t>(q.tenant)]->plan(
        api::trsm_op(q.n, q.k, spec));
    const std::uint64_t seed = 700 + static_cast<std::uint64_t>(i);
    hls.push_back(ctxs[static_cast<std::size_t>(q.tenant)]->upload(
        la::make_lower_triangular(seed, q.n), plan->input_layout(0)));
    hbs.push_back(ctxs[static_cast<std::size_t>(q.tenant)]->upload(
        la::make_rhs(seed + 1000, q.n, q.k), plan->input_layout(1)));
    plans.push_back(std::move(plan));
  }

  const auto serve_serial = [&](std::vector<la::Matrix>* xs,
                                std::vector<sim::Cost>* costs,
                                std::vector<double>* criticals) {
    for (int i = 0; i < items; ++i) {
      const std::size_t u = static_cast<std::size_t>(i);
      const api::DistExecResult r = plans[u]->execute_dist(hls[u], hbs[u]);
      if (xs != nullptr)
        (*xs)[u] = ctxs[static_cast<std::size_t>(reqs[u].tenant)]->download(
            r.x);
      if (costs != nullptr) (*costs)[u] = r.algorithm_cost();
      if (criticals != nullptr) (*criticals)[u] = r.stats.critical_time;
    }
  };

  // One concurrent pass through a fresh StreamPool; returns the most
  // streams it had in flight.
  const auto serve_concurrent = [&](std::vector<la::Matrix>& xs,
                                    std::vector<sim::Cost>& costs,
                                    std::vector<double>& criticals) {
    api::StreamPool pool;
    std::vector<int> pool_tenant(static_cast<std::size_t>(tenants), -1);
    for (int t = 0; t < tenants; ++t)
      pool_tenant[static_cast<std::size_t>(t)] =
          pool.add_tenant(*ctxs[static_cast<std::size_t>(t)]);
    std::vector<int> req_of_id;
    for (int i = 0; i < items; ++i) {
      const std::size_t u = static_cast<std::size_t>(i);
      const int id = pool.submit(pool_tenant[static_cast<std::size_t>(
                                     reqs[u].tenant)],
                                 plans[u], hls[u], hbs[u]);
      if (static_cast<std::size_t>(id) >= req_of_id.size())
        req_of_id.resize(static_cast<std::size_t>(id) + 1, -1);
      req_of_id[static_cast<std::size_t>(id)] = i;
    }
    for (;;) {
      const auto batch = pool.wait_some();
      if (batch.empty()) break;
      for (const auto& c : batch) {
        if (c.error) {
          try {
            std::rethrow_exception(c.error);
          } catch (const std::exception& e) {
            std::cerr << "STREAM FAULT: request " << c.id << ": "
                      << e.what() << "\n";
          }
          std::exit(1);
        }
        const std::size_t u = static_cast<std::size_t>(
            req_of_id[static_cast<std::size_t>(c.id)]);
        // Downloads of finished solutions overlap the still-running
        // streams — the serving pattern the stream pool buys.
        xs[u] = ctxs[static_cast<std::size_t>(reqs[u].tenant)]->download(
            c.result.x);
        costs[u] = c.result.algorithm_cost();
        criticals[u] = c.result.stats.critical_time;
      }
    }
    return pool.max_inflight();
  };

  // Untimed warmup pass: first-touch allocation, code paths, and the
  // plan-cache state are identical ahead of every timed pass (each
  // request has its own L, so no diagonal-inverse reuse either way).
  serve_serial(nullptr, nullptr, nullptr);

  // Interleaved serial/concurrent pairs (a 4-core box has measured 1.02x
  // on one pair and 1.14x to 1.18x on others); every pair is checked
  // bitwise and for modeled drift.
  const std::size_t n_items = static_cast<std::size_t>(items);
  std::vector<la::Matrix> xs_serial(n_items), xs_conc(n_items);
  std::vector<sim::Cost> costs_serial(n_items), costs_conc(n_items);
  std::vector<double> crit_serial(n_items), crit_conc(n_items);
  std::vector<double> walls_serial, walls_conc;
  int inflight = 0;
  const double speedup = median_paired_ratio(
      "streams gate: serial/concurrent wall (solves/s speedup) of "
      "streams/mixed_tenant",
      [&](int pair) {
        const auto t0 = Clock::now();
        serve_serial(&xs_serial, &costs_serial, &crit_serial);
        walls_serial.push_back(ms_since(t0));
        const auto t1 = Clock::now();
        inflight = serve_concurrent(xs_conc, costs_conc, crit_conc);
        walls_conc.push_back(ms_since(t1));

        for (std::size_t u = 0; u < n_items; ++u) {
          if (!xs_conc[u].equals(xs_serial[u])) {
            std::cerr << "STREAM MISMATCH: pair " << pair << ", request "
                      << u << " differs bitwise from the serial pass\n";
            std::exit(1);
          }
          if (costs_conc[u].msgs != costs_serial[u].msgs ||
              costs_conc[u].words != costs_serial[u].words ||
              costs_conc[u].flops != costs_serial[u].flops ||
              crit_conc[u] != crit_serial[u]) {
            std::cerr << "STREAM MODEL DRIFT: pair " << pair << ", request "
                      << u
                      << " modeled cost differs between serial and "
                         "concurrent passes (per-run clocks must make them "
                         "identical)\n";
            std::exit(1);
          }
        }
        return walls_serial.back() / walls_conc.back();
      });
  const double wall_serial = median_of(walls_serial);
  const double wall_conc = median_of(walls_conc);

  records.push_back({"streams/mixed_tenant_serial", p, 96, 48, wall_serial,
                     double(items), costs_serial.front(),
                     crit_serial.front()});
  records.push_back({"streams/mixed_tenant", p, 96, 48, wall_conc,
                     double(items), costs_conc.front(), crit_conc.front()});
  std::cout << "streams/mixed_tenant: " << items << " solves, 4 tenants, "
            << inflight << " streams: median " << wall_serial
            << " ms serial -> " << wall_conc << " ms concurrent\n";
  return speedup;
}

constexpr int kDistTrials = 9;
constexpr int kDistReps = 20;

/// One dist/* layer record: `setup(rank)` builds the operands on a rank
/// and returns the call under test. Each trial times kDistReps calls in
/// one Machine::run (setup amortized over them); the record carries the
/// median and the min per-call wall of kDistTrials trials after one
/// warmup, and the modeled cost of a separate single-call run.
template <class Setup>
void run_dist_case(std::vector<Record>& records, const char* name, int p,
                   index_t n, index_t k, Setup&& setup) {
  sim::Machine machine(p);
  const auto run = [&](int reps) {
    return machine.run([&](sim::Rank& r) {
      const auto call = setup(r);
      for (int i = 0; i < reps; ++i) call();
    });
  };
  const sim::RunStats one = run(1);
  run(kDistReps);
  std::vector<double> per_call;
  for (int t = 0; t < kDistTrials; ++t) {
    const auto t0 = Clock::now();
    run(kDistReps);
    per_call.push_back(ms_since(t0) / kDistReps);
  }
  Record rec{name,         p,   n, k, median_of(per_call), 1.0,
             one.max_cost(), one.critical_time};
  rec.trials = kDistTrials;
  rec.wall_min_ms = *std::min_element(per_call.begin(), per_call.end());
  std::cout << name << " (p=" << p << ", " << n << " x " << k
            << "): median " << rec.wall_ms << " ms, min " << rec.wall_min_ms
            << " ms per call over " << kDistTrials << " trials\n";
  records.push_back(std::move(rec));
}

/// The dist layer at the spd_pipeline request's shapes (n = 256, k = 32,
/// p = 16, a 4 x 4 factor face): the backward solve's transpose and
/// reverse_both of L and reverse_rows of the panel on the it-inv B face,
/// plus the diagonal inverter's 5-rank tri-inv subgrid (86 x 86 blocks
/// on a 1 x 5 face: redistribute of a 43 x 43 half onto a 2-rank half,
/// and collect). dist/collect at p = 16 is the full-matrix allgather of
/// the factor.
void run_dist_cases(std::vector<Record>& records) {
  const auto value = [](index_t i, index_t j) {
    return static_cast<double>(i * 1000 + j);
  };
  // A cyclic n x k operand on a pr x pc face over the whole world.
  const auto cyclic_src = [&](sim::Rank& r, int pr, int pc, index_t n,
                              index_t k) {
    auto d = dist::cyclic_on(dist::Face2D(sim::Comm::world(r), pr, pc), n, k);
    auto m = std::make_shared<dist::DistMatrix>(d, r.id());
    m->fill(value);
    return m;
  };
  run_dist_case(records, "dist/transpose", 16, 256, 256, [&](sim::Rank& r) {
    auto src = cyclic_src(r, 4, 4, 256, 256);
    return [src, world = sim::Comm::world(r)] {
      (void)dist::transpose(*src, src->dist_ptr(), world);
    };
  });
  run_dist_case(records, "dist/reverse_both", 16, 256, 256,
                [&](sim::Rank& r) {
                  auto src = cyclic_src(r, 4, 4, 256, 256);
                  return [src, world = sim::Comm::world(r)] {
                    (void)dist::reverse_both(*src, src->dist_ptr(), world);
                  };
                });
  run_dist_case(records, "dist/reverse_rows", 16, 256, 32, [&](sim::Rank& r) {
    sim::Comm world = sim::Comm::world(r);
    auto src = std::make_shared<dist::DistMatrix>(
        trsm::it_inv_b_dist(world, 4, 1, 256, 32), r.id());
    src->fill(value);
    return [src, world] {
      (void)dist::reverse_rows(*src, src->dist_ptr(), world);
    };
  });
  run_dist_case(records, "dist/collect", 16, 256, 256, [&](sim::Rank& r) {
    auto src = cyclic_src(r, 4, 4, 256, 256);
    return [src, world = sim::Comm::world(r)] {
      (void)dist::collect(*src, world);
    };
  });
  run_dist_case(records, "dist/redistribute", 5, 43, 43, [&](sim::Rank& r) {
    sim::Comm world = sim::Comm::world(r);
    auto src = cyclic_src(r, 1, 5, 43, 43);
    auto half = dist::cyclic_on(
        dist::Face2D(sim::Comm(r, {0, 1}), 1, 2), 43, 43);
    return [src, half, world] {
      (void)dist::redistribute(*src, half, world);
    };
  });
  run_dist_case(records, "dist/collect", 5, 86, 86, [&](sim::Rank& r) {
    auto src = cyclic_src(r, 1, 5, 86, 86);
    return [src, world = sim::Comm::world(r)] {
      (void)dist::collect(*src, world);
    };
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_sim.json";
  int threads_override = 0;
  bool assert_scaling = false;
  bool assert_fusion = false;
  bool assert_streams = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      threads_override = i + 1 < argc ? std::atoi(argv[++i]) : 0;
      if (threads_override < 1) {
        std::cerr << "usage: bench_runner [output.json] [--threads N] "
                     "[--assert-scaling] [--assert-fusion] "
                     "[--assert-streams] (N >= 1)\n";
        return 2;
      }
    } else if (arg == "--assert-scaling") {
      assert_scaling = true;
    } else if (arg == "--assert-fusion") {
      assert_fusion = true;
    } else if (arg == "--assert-streams") {
      assert_streams = true;
    } else {
      path = arg;
    }
  }
  if (threads_override > 0)
    la::kernel::ThreadPool::set_threads_for_testing(threads_override);
  const int pool_threads =
      la::kernel::ThreadPool::instance().size();
  la::kernel::ThreadPool::set_threads_for_testing(0);

  std::vector<Record> records;
  run_kernel_cases(records);
  const double scaling_ratio = run_kernel_mt_cases(records, pool_threads);
  run_crossover_cases(records);
  const double fusion_ratio = run_batch_cases(records);
  run_resident_batch_case(records);
  run_program_case(records);
  run_program_opt_cases(records);
  run_oracle_cases(records);
  // Appended LAST so every pre-existing record keeps its position (and
  // its modeled fields byte-identical) in the committed JSON.
  const double streams_speedup = run_stream_cases(records);
  run_dist_cases(records);

  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    append_json(out, records[i], i + 1 == records.size());
  out += "]\n";
  std::ofstream f(path);
  f << out;
  std::cout << "wrote " << records.size() << " records to " << path << "\n";

  // Each gate reads the median of kGatePairs paired ratios.
  if (assert_scaling && pool_threads > 1 && scaling_ratio > 1.05) {
    std::cerr << "SCALING REGRESSION: kernel/gemm_mt at n=1024 with "
              << pool_threads << " threads took a median " << scaling_ratio
              << "x the single-threaded wall over " << kGatePairs
              << " pairs (limit: 1.05x)\n";
    return 1;
  }
  if (assert_fusion && fusion_ratio > 1.05) {
    std::cerr << "FUSION REGRESSION: batch/it_trsm_32x_p64_fused took a "
                 "median "
              << fusion_ratio << "x the unfused wall over " << kGatePairs
              << " pairs (limit: 1.05x)\n";
    return 1;
  }
  if (assert_streams && streams_speedup < 1.05) {
    std::cerr << "STREAMS REGRESSION: streams/mixed_tenant median speedup "
              << streams_speedup << "x over " << kGatePairs
              << " serial/concurrent pairs (need >= 1.05x solves/sec)\n";
    return 1;
  }
  return 0;
}

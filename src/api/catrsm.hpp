#pragma once
// The handle-based front door of catrsm: plan once, execute many times.
//
// A Context owns a simulated machine (or borrows an existing one) plus an
// LRU cache of Plans keyed on (op, shape, p, operation options, machine
// parameters). A Plan is a frozen configuration — the Section VIII regime
// classification, algorithm choice, grid factorization and block counts
// are decided exactly once, at plan time — plus reusable execution state:
// grid membership and, for the iterative TRSM, the inverted diagonal
// blocks, which are computed on the first execute against an operand and
// reused for every further solve against the same matrix (the FFTW /
// cuBLAS plan-and-execute pattern the paper's a-priori cost analysis
// enables).
//
//   catrsm::api::Context ctx(/*p=*/64);
//   auto plan = ctx.plan(catrsm::api::trsm_op(n, k));
//   auto r1 = plan->execute(l, b1);        // inverts the diagonal blocks
//   auto r2 = plan->execute(l, b2);        // reuses them
//   auto rs = plan->execute_batch(l, bs);  // ... across a whole batch
//
// Supported operations: TRSM in all BLAS variants (uplo / side /
// transpose) over all four distributed algorithms, triangular inversion,
// the fully distributed Cholesky factor + two-solve pipeline, and 3D / 2D
// matrix multiplication.
//
// Beyond the matrix-in / matrix-out path, operands can be made RESIDENT:
// Context::upload scatters a matrix once into per-rank storage that
// survives Machine::run (sim::HandleStore), Plan::execute_dist consumes
// and produces such DistHandles with ZERO per-execute redistribution
// (a required-layout mismatch inserts one dist::redistribute
// automatically), and api::Program chains several plans through one
// simulated run with no intermediate host collects:
//
//   auto hl = ctx.upload(l, plan->input_layout(0));
//   for (auto& b : panels) {
//     auto hb = ctx.upload(b, plan->input_layout(1));
//     auto hx = plan->execute_dist(hl, hb).x;   // no scatter, no collect
//     la::Matrix x = ctx.download(hx);
//   }
//
// EXECUTION STREAMS: the _async variants (Plan::execute_dist_async,
// Context::execute_dist_async, Program::run_async) launch the simulated
// run and return a future-like ticket immediately; up to
// CATRSM_SIM_STREAMS runs overlap on the machine's shared worker pool
// (api::StreamPool in stream_pool.hpp round-robins whole request queues
// across several Contexts). Concurrent streams produce bitwise the same
// results as the same calls issued serially: two runs touching the same
// handle are serialized (the later launch blocks until the earlier run
// completes), and per-run virtual clocks keep every RunStats identical
// to its serial counterpart.
//
// Lifetime: a Plan must not outlive the Context that created it (and a
// borrowed machine must outlive both); a DistHandle must not outlive its
// Context either — its storage lives in the machine. Handles are not
// thread-safe; one Context per client thread (tickets may be waited from
// that same thread only).

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "la/matrix.hpp"
#include "la/trsm.hpp"
#include "model/tuning.hpp"
#include "sim/machine.hpp"
#include "support/check.hpp"

namespace catrsm::dist {
class Distribution;
}  // namespace catrsm::dist

namespace catrsm::api {

using la::index_t;

enum class Op {
  kTrsm,           // op(T) X = B (left) or X op(T) = B (right)
  kTriInv,         // X = L^-1
  kCholesky,       // A = L L^T — the factor alone (program building block)
  kCholeskySolve,  // A = L L^T; L Y = B; L^T X = Y — fully distributed
  kMatmul3D,       // C = A * X on a p1 x p1 x p2 grid (Section III)
  kMatmul2D,       // C = A * X via 2D SUMMA (baseline)
};

const char* op_name(Op op);

/// Which side the triangular operand acts on: T X = B or X T = B.
enum class Side { kLeft, kRight };

/// BLAS-style variant selection plus tuning overrides for a TRSM plan.
struct TrsmSpec {
  /// Triangle actually stored in the operand (upper solves reduce to the
  /// lower kernel via the index-reversal identity: J U J is lower).
  la::Uplo uplo = la::Uplo::kLower;
  /// Solve with the transpose of the operand (T^T X = B) — the second
  /// half of a Cholesky solve.
  bool transpose = false;
  Side side = Side::kLeft;
  /// Override the automatic algorithm choice.
  bool force_algorithm = false;
  model::Algorithm algorithm = model::Algorithm::kIterative;
  /// Override the diagonal block count (iterative) / base size (recursive).
  int nblocks = 0;
  index_t rec_n0 = 0;
  /// Override the processor grid (iterative: p1 x p1 x p2; also the square
  /// side for kCholesky). 0 = derive from the machine size. Programs use
  /// this to run an op on a subgrid of a larger machine — e.g. the
  /// Cholesky pipeline's solves on its q x q subgrid.
  int grid_p1 = 0;
  int grid_p2 = 0;
};

/// What to plan. (n, k) is the shape of the normalized lower-left kernel:
/// n is the triangular dimension, k the number of right-hand-side columns
/// (for side == kRight that is the number of B *rows*). For matmul ops,
/// A is n x inner and X is inner x k.
struct OpDesc {
  Op op = Op::kTrsm;
  index_t n = 0;
  index_t k = 0;
  index_t inner = 0;
  TrsmSpec trsm;
};

/// Convenience descriptor builders.
OpDesc trsm_op(index_t n, index_t k, TrsmSpec spec = {});
OpDesc tri_inv_op(index_t n);
OpDesc cholesky_op(index_t n, int grid_q = 0);
OpDesc cholesky_solve_op(index_t n, index_t k, int nblocks = 0);
OpDesc matmul3d_op(index_t m, index_t inner, index_t k);
OpDesc matmul2d_op(index_t n, index_t k);

/// Element generator over GLOBAL indices: pure functions of (i, j), so a
/// rank can materialize exactly the entries it owns.
using Gen = std::function<double(index_t, index_t)>;

/// A resident operand was touched by a faulted run (its per-rank blocks
/// may be partially rewritten) and has not been repaired. Thrown by
/// Context::download, Plan::execute_dist, and Program::run when handed a
/// poisoned handle, and by Context::repair when the handle has no
/// recorded source to re-upload from.
class PoisonedOperandError : public Error {
 public:
  using Error::Error;
};

// ---------------------------------------------------------------------------
// Resident distributed operands

/// Canonical data layouts a resident operand can live in. Realized over
/// the machine's world ranks deterministically, so two equal descriptors
/// always denote the exact same element->rank map.
enum class LayoutKind {
  /// Elementwise cyclic on a p1 x p2 face over world ranks 0..p1*p2-1
  /// (column-major: world rank gi + p1 * gj holds rows ≡ gi (mod p1),
  /// cols ≡ gj (mod p2)). What every solver's triangular operand uses.
  kCyclic2D,
  /// The iterative TRSM's B layout on a p1 x p1 x p2 grid: rows cyclic
  /// over p1, columns in p2 contiguous slabs, resident on the grid's
  /// y = 0 plane (world ranks x + p1^2 z).
  kRowCyclicColBlocked,
};

struct Layout {
  LayoutKind kind = LayoutKind::kCyclic2D;
  int p1 = 1;
  int p2 = 1;
};

inline bool operator==(const Layout& a, const Layout& b) {
  return a.kind == b.kind && a.p1 == b.p1 && a.p2 == b.p2;
}
inline bool operator!=(const Layout& a, const Layout& b) { return !(a == b); }

/// Descriptor helpers.
inline Layout cyclic_layout(int p1, int p2) {
  return Layout{LayoutKind::kCyclic2D, p1, p2};
}
inline Layout row_blocked_layout(int p1, int p2) {
  return Layout{LayoutKind::kRowCyclicColBlocked, p1, p2};
}

/// A refcounted persistent distributed operand: per-rank blocks resident
/// in the machine's sim::HandleStore (surviving Machine::run), plus the
/// layout that gives them meaning. Copies share the storage; the last
/// copy releases it. Must not outlive the Context whose machine holds
/// the storage.
class DistHandle {
 public:
  DistHandle() = default;

  bool valid() const { return state_ != nullptr; }
  index_t rows() const;
  index_t cols() const;
  Layout layout() const;
  /// Store id (unique per machine, never reused) — stable identity of
  /// the resident data, observable for cache/reuse tests.
  std::uint64_t id() const;
  /// Write stamp of the resident data (see sim::HandleStore::epoch).
  std::uint64_t epoch() const;
  /// True while the resident blocks are marked untrustworthy after a
  /// faulted run (see Context::repair).
  bool poisoned() const;
  /// True while the resident blocks are actually present in the store
  /// (false after a byte-budget eviction; the next use transparently
  /// re-scatters from the recorded upload source).
  bool resident() const;

 private:
  friend class Context;
  friend class Plan;
  friend class Program;
  struct State;
  explicit DistHandle(std::shared_ptr<State> s) : state_(std::move(s)) {}
  std::shared_ptr<State> state_;
};

/// Result of a handle-in / handle-out execution. There is no scatter, no
/// output collect, and no host-side residual check on this path — the
/// stats contain the "algorithm" phase (plus "redistribute" when a layout
/// mismatch forced a transition) and nothing else.
struct DistExecResult {
  DistHandle x;
  sim::RunStats stats;
  model::Config config;

  /// Max-over-ranks cost of the distributed computation only.
  sim::Cost algorithm_cost() const;
  /// Cost of automatic layout transitions (zero when layouts matched).
  sim::Cost redistribute_cost() const;
};

/// Future for one in-flight execute_dist stream. Returned immediately by
/// Plan::execute_dist_async / Context::execute_dist_async while the
/// simulated run proceeds on the machine's worker pool. wait() blocks
/// until the run completes, assembles exactly the DistExecResult the
/// serial call would have produced (bitwise — per-run virtual clocks),
/// and rethrows any failure (DeadlockError, sim::FaultError, ...);
/// calling it again returns the same stored outcome. Dropping a ticket
/// without waiting is safe — the run still completes (the Machine
/// retires it), but a faulted run's input poisoning only happens at
/// wait(), so always wait tickets whose operands you reuse.
class DistTicket {
 public:
  DistTicket() = default;

  bool valid() const { return s_ != nullptr; }
  /// True once the simulated run has finished (wait() will not block).
  bool done() const;
  /// Block for completion and return (or rethrow) the run's outcome.
  DistExecResult wait();

 private:
  friend class Plan;
  struct Shared;
  explicit DistTicket(std::shared_ptr<Shared> s) : s_(std::move(s)) {}
  std::shared_ptr<Shared> s_;
};

struct ExecResult {
  la::Matrix x;
  /// Stats of the run. The operands are uploaded and the result
  /// downloaded host-side, which charges nothing, so the run is the
  /// distributed computation alone: the "algorithm" phase (compare THIS
  /// against the paper's formulas), with the iterative TRSM's
  /// "inversion" / "solve" / "update" and the Cholesky pipeline's
  /// "cholesky" / "forward-trsm" / "backward-trsm" nested inside it.
  sim::RunStats stats;
  model::Config config;
  /// Relative residual of the solve (0 for the matmul ops, whose result
  /// the caller can check directly against a reference product).
  double residual = 0.0;

  /// Max-over-ranks cost of the distributed computation.
  sim::Cost algorithm_cost() const;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
};

/// What the Program optimizer did on the last run (Program::stats()).
/// `redistributes_inserted` counts the layout transitions the executed
/// schedule actually performs (per distinct (node, layout) — conversions
/// are computed once and reused); `redistributes_avoided` is how many the
/// as-written DAG would have paid beyond that. With the optimizer off,
/// inserted equals the as-written mismatch count and everything else is 0.
struct ProgramStats {
  std::uint64_t nodes_elided = 0;    // steps unreachable from any output
  std::uint64_t nodes_merged = 0;    // duplicate (plan, args) steps reused
  std::uint64_t redistributes_inserted = 0;
  std::uint64_t redistributes_avoided = 0;
  std::uint64_t steps_executed = 0;
  bool optimized = false;
};

/// Result of a batch (Plan::execute_batch): the entire panel stream ran
/// as ONE Machine::run, so there is a single RunStats for the whole
/// batch. Residuals are computed host-side per panel, exactly like
/// Plan::execute's.
struct BatchResult {
  std::vector<la::Matrix> xs;
  std::vector<double> residuals;
  sim::RunStats stats;
  model::Config config;
  ProgramStats program_stats;

  /// Max-over-ranks cost of the distributed computation across the WHOLE
  /// batch (one run — compare against items x the per-solve cost).
  sim::Cost algorithm_cost() const;
};

class Context;
class Program;

class Plan : public std::enable_shared_from_this<Plan> {
 public:
  const OpDesc& desc() const { return desc_; }
  /// The frozen configuration decided at plan time. A cache-hit plan is
  /// the same object, so its Config is bit-identical by construction.
  const model::Config& config() const { return config_; }

  /// Execute the planned op. Operand roles per op:
  ///   kTrsm:          a = T (n x n), b = B
  ///   kTriInv:        a = L (n x n), b ignored
  ///   kCholesky:      a = SPD A (n x n), b ignored
  ///   kCholeskySolve: a = SPD A (n x n), b = B (n x k)
  ///   kMatmul3D/2D:   a = A (n x inner), b = X (inner x k)
  /// Runs as upload -> execute_dist -> download. TRSM variants (right
  /// side, upper operand, transposed solve) are first rewritten on the
  /// host onto the lower-left kernel plan. The plan keeps the handle of
  /// the last operand it uploaded for the iterative TRSM, so repeated
  /// executes against the same bytes reuse the inverted diagonal blocks.
  ExecResult execute(const la::Matrix& a, const la::Matrix& b = {});

  /// Execute against RESIDENT operands: no scatter, no collect — the
  /// whole point for batched solves against a fixed factor. A handle
  /// whose layout differs from the required input_layout() is
  /// redistributed automatically (charged to the "redistribute" phase).
  /// TRSM on this path supports the normalized kernel variants only
  /// (lower operand, left side; transpose requires the iterative
  /// algorithm, which reverses distributedly — the Cholesky backward
  /// step). Other variants: use execute().
  DistExecResult execute_dist(const DistHandle& a,
                              const DistHandle& b = DistHandle());

  /// Launch execute_dist as an independent execution stream and return a
  /// ticket immediately. Up to CATRSM_SIM_STREAMS runs overlap on the
  /// machine; a launch that shares a handle with an in-flight run blocks
  /// until that run completes, so results are bitwise identical to the
  /// serial call order. execute_dist is exactly
  /// execute_dist_async(a, b).wait().
  DistTicket execute_dist_async(const DistHandle& a,
                                const DistHandle& b = DistHandle());

  /// The layout this plan requires of operand `slot` (0 = a, 1 = b) /
  /// produces for its result — what to pass to Context::upload so
  /// execute_dist runs with zero redistribution.
  Layout input_layout(int slot) const;
  Layout output_layout() const;

  /// Execute over many right-hand-side panels as ONE simulated run: the
  /// operand and every panel are uploaded once, all solves execute as a
  /// single Program inside a single Machine::run, and — for the iterative
  /// TRSM — the diagonal-block inversion runs once and is reused by every
  /// panel IN that run (and across calls against the same operand bytes,
  /// like execute). Supports kTrsm in every variant and the matmul ops;
  /// other ops throw Error.
  BatchResult execute_batch(const la::Matrix& a,
                            const std::vector<la::Matrix>& bs);

  /// Element generator over GLOBAL indices (namespace-level api::Gen).
  using Gen = api::Gen;

  /// kCholeskySolve only: generator-fed execution. Each rank fills only
  /// the elements it owns from the (i, j) generators, so no rank ever
  /// holds a global operand during the computation. With `verify` true
  /// the driver materializes the global system once, outside the
  /// simulated machine, purely to compute the residual; pass false to
  /// skip that O(n^2 k) host-side check (residual stays 0) when the
  /// problem is too large to materialize.
  ExecResult execute_generated(const Gen& a_gen, const Gen& b_gen,
                               bool verify = true);

  /// Number of times this plan has run the Diagonal-Inverter — observable
  /// evidence that repeated executes and batches reuse the inverted
  /// diagonal blocks. A TRSM variant plan reports its kernel plan's count.
  std::uint64_t diag_inversions() const;

 private:
  friend class Context;
  friend class Program;
  friend class DistTicket;
  friend struct DistTicket::Shared;
  Plan(Context& ctx, OpDesc desc);

  /// True when runs of this plan reuse inverted diagonal blocks (the
  /// non-transposed iterative TRSM).
  bool caches_inverse() const;
  /// The lower-left kernel plan a TRSM variant's matrix-in entries run on.
  Plan& kernel_plan();
  /// Upload `a` as operand 0, reusing the kept handle when the bytes match.
  DistHandle upload_operand(const la::Matrix& a);
  /// execute_batch, with the per-panel host residual check only when
  /// `residuals` is set (a TRSM variant checks its original system
  /// instead of the kernel plan's normalized one).
  BatchResult run_batch(const la::Matrix& a, const std::vector<la::Matrix>& bs,
                        bool residuals);
  /// Launch `prog` — every step runs this plan against inputs[0] — with
  /// the diagonal-inverse cache wired in.
  DistTicket launch(Program& prog, const std::vector<DistHandle>& inputs);

  /// The Cholesky pipeline as a 3-op Program over resident operands:
  /// factor, forward solve, reversed backward solve — one Machine::run,
  /// no intermediate collects.
  Program make_cholesky_program();

  Context* ctx_;
  OpDesc desc_;
  model::Config config_;

  // Iterative-TRSM diagonal-inverse cache: slot [world rank] holds that
  // rank's pieces of the inverted diagonal blocks (a trsm::DiagInverse,
  // about n n0 / p1^2 doubles — not a copy of L, whose off-diagonal
  // panels the solver reads from the resident operand), valid for the
  // operand handle identified by the fingerprint.
  // diag_mu_ serializes the cache decisions: an in-flight reuse run reads
  // diag_locals_ (diag_readers_ > 0), and a completed non-reuse run
  // merges its privately computed blocks in when it settles — only when
  // no reader is in flight, so the shared vector is never rewritten under
  // a running fiber.
  mutable std::mutex diag_mu_;
  int diag_readers_ = 0;
  std::vector<std::vector<la::Matrix>> diag_locals_;
  std::uint64_t diag_fp_ = 0;
  bool diag_valid_ = false;
  std::uint64_t diag_inversions_ = 0;

  // TRSM variants: the lower-left kernel plan (set on first matrix-in use).
  std::shared_ptr<Plan> kernel_;
  // The last host operand uploaded (caches_inverse() plans only) and the
  // matrix it came from.
  DistHandle host_a_;
  std::shared_ptr<const la::Matrix> host_src_;
};

class Context {
 public:
  /// Own a fresh machine of p ranks.
  explicit Context(int p, sim::MachineParams params = sim::MachineParams{},
                   std::size_t plan_cache_capacity = 64);
  /// Borrow an existing machine (the caller keeps ownership; the machine
  /// must outlive this Context and every Plan created from it).
  explicit Context(sim::Machine& machine,
                   std::size_t plan_cache_capacity = 64);

  /// Pinned: outstanding Plans hold a pointer back to their Context, so
  /// moving or copying it would dangle every handle.
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  Context(Context&&) = delete;
  Context& operator=(Context&&) = delete;

  sim::Machine& machine() { return *machine_; }
  const sim::MachineParams& params() const { return machine_->params(); }
  int nprocs() const { return machine_->nprocs(); }

  /// The persistent rank scheduler behind this context's machine: a pool
  /// of p workers created on the first execute and reused by every
  /// subsequent Machine::run, Plan::execute, and execute_batch (no
  /// per-run thread spawn/join). scheduler().runs() counts dispatches.
  sim::RankScheduler& scheduler() { return machine_->scheduler(); }

  /// Return the cached Plan for `desc` or build, cache, and return a new
  /// one. Planning twice for the same (op, shape, options) on the same
  /// machine hits the cache and returns the SAME Plan handle.
  std::shared_ptr<Plan> plan(const OpDesc& desc);

  /// plan(desc)->execute_dist_async(a, b): plan (cache hit after the
  /// first call) and launch the op as an independent execution stream.
  DistTicket execute_dist_async(const OpDesc& desc, const DistHandle& a,
                                const DistHandle& b = DistHandle());

  /// Scatter a matrix (or a generator, which no rank ever materializes
  /// globally) into resident per-rank storage under `layout`. Host-side:
  /// charges nothing to the simulated machine — the whole point is that
  /// this happens ONCE, not per execute.
  DistHandle upload(const la::Matrix& m, Layout layout);
  DistHandle upload(const Gen& gen, index_t rows, index_t cols,
                    Layout layout);

  /// Assemble the global matrix from a handle's resident blocks.
  /// Host-side; charges nothing. Fails fast with PoisonedOperandError on
  /// a handle a faulted run left untrustworthy — repair it first.
  la::Matrix download(const DistHandle& h);

  /// Re-upload a poisoned handle from its recorded source (the matrix
  /// copy or generator it was uploaded from), clearing the poison flag
  /// and stamping a fresh epoch. No-op on a healthy handle; throws
  /// PoisonedOperandError if the handle is poisoned but has no source
  /// (e.g. it was produced by a Program run, not uploaded).
  void repair(const DistHandle& h);

  /// When enabled, Plan::execute_dist and Program::run transparently
  /// repair() poisoned INPUT handles (that have sources) instead of
  /// throwing — the retry path after a detected fault.
  void set_auto_repair(bool on) { auto_repair_ = on; }
  bool auto_repair() const { return auto_repair_; }

  /// If the handle's blocks were evicted under the byte budget
  /// (CATRSM_HANDLE_BUDGET), re-scatter them from the recorded upload
  /// source — bitwise the original bytes, epoch unchanged. Returns true
  /// when a re-upload happened. Execution and download paths call this
  /// automatically; it is exposed for warm-up and for tests.
  bool ensure_resident(const DistHandle& h);

  /// Pin a handle's blocks against byte-budget eviction (pins nest).
  /// In-flight runs already protect their operands; pin is for keeping a
  /// hot operand resident ACROSS runs under a tight budget.
  void pin(const DistHandle& h);
  void unpin(const DistHandle& h);

  CacheStats cache_stats() const { return stats_; }
  void clear_cache();

 private:
  friend class Plan;
  friend class Program;

  /// Upload/download against a caller-realized distribution, so a batch
  /// realizes each layout's describe-only communicator set ONCE instead of
  /// once per panel (Plan::execute_batch). `d` must be
  /// detail::realize_host(layout, rows, cols, nprocs()) for the same
  /// shape/layout the call passes.
  DistHandle upload_on(const la::Matrix& m, Layout layout,
                       const std::shared_ptr<const dist::Distribution>& d);
  DistHandle upload_on(const Gen& gen, index_t rows, index_t cols,
                       Layout layout,
                       const std::shared_ptr<const dist::Distribution>& d);
  la::Matrix download_on(const DistHandle& h,
                         const std::shared_ptr<const dist::Distribution>& d);
  /// The shared tail of both uploads: create a store entry, let `fill`
  /// write every participating rank's slot, record `source` for repair
  /// and eviction, and admit the entry under the byte budget.
  DistHandle admit(
      index_t rows, index_t cols, Layout layout,
      const std::shared_ptr<const dist::Distribution>& d,
      const std::function<void(sim::HandleStore&, std::uint64_t)>& fill,
      Gen source);

  std::unique_ptr<sim::Machine> owned_;
  sim::Machine* machine_;
  std::size_t capacity_;
  bool auto_repair_ = false;
  CacheStats stats_;
  // LRU: most recently used at the front.
  std::list<std::pair<std::string, std::shared_ptr<Plan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
};

class Program;

namespace opt {
struct Schedule;

/// Compile `prog` into an execution schedule for the input layouts bound
/// by the current run. With `enabled` false the schedule reproduces the
/// as-written DAG exactly (every step, one redistribute per mismatched
/// use); with it true the three passes run: dead-node elision, common-
/// sub-DAG merging, and layout-aware intermediate placement (see opt.hpp).
Schedule compile(const Program& prog, bool enabled);
}  // namespace opt

/// A small op-DAG over resident operands: chain several plans through ONE
/// Machine::run with no intermediate host collects — intermediates stay
/// as per-rank blocks, and a consumer whose required layout differs from
/// its producer's gets a dist::redistribute inserted automatically.
/// Op::kCholeskySolve is internally this: factor -> solve -> reversed
/// solve.
///
///   api::Program prog(ctx);
///   auto a = prog.input(n, n);
///   auto b = prog.input(n, k);
///   auto l = prog.add(factor_plan, {a}, "cholesky");
///   auto y = prog.add(fwd_plan, {l, b}, "forward-trsm");
///   auto x = prog.add(bwd_plan, {l, y}, "backward-trsm");
///   prog.mark_output(x);
///   auto res = prog.run({ha, hb});   // one simulated run
///
/// A Program is a reusable recipe: run() may be called many times against
/// different input handles. Not thread-safe; must not outlive its
/// Context.
///
/// Before executing, the DAG is compiled by the optimizer (opt::compile,
/// gated by CATRSM_PROGRAM_OPT, default on): steps unreachable from a
/// marked output are elided, structurally identical (plan, args) steps
/// are merged (one factor feeding many solves computes once), and
/// intermediate layouts are placed to minimize inserted redistributes —
/// ties broken by the modeled alpha-beta time of the implied transitions.
/// Optimized and unoptimized runs produce bitwise-identical outputs;
/// stats() reports what the last run's schedule did.
class Program {
 public:
  using NodeId = int;

  explicit Program(Context& ctx);

  /// Declare the next external input (bound positionally by run()).
  NodeId input(index_t rows, index_t cols);

  /// Append a step executing `plan` against `args` (each a prior node).
  /// Operand roles follow Plan::execute_dist. `phase`, when non-empty,
  /// labels the step's charges (nested inside "algorithm").
  NodeId add(std::shared_ptr<Plan> plan, std::vector<NodeId> args,
             std::string phase = {});

  /// Mark a node to be materialized as a DistHandle by run(). Outputs are
  /// returned in mark order.
  void mark_output(NodeId node);

  struct Result {
    std::vector<DistHandle> outputs;
    sim::RunStats stats;
    sim::Cost algorithm_cost() const;
  };

  /// Future for one in-flight Program run (see run_async).
  class AsyncResult {
   public:
    AsyncResult() = default;
    bool valid() const { return s_ != nullptr; }
    /// True once the simulated run has finished (wait() will not block).
    bool done() const;
    /// Block for completion and return (or rethrow) the run's outcome.
    /// Idempotent: later calls return the same stored outcome. A faulted
    /// run poisons its distinct input handles here, exactly like run().
    Result wait();

   private:
    friend class Program;
    struct Shared;
    explicit AsyncResult(std::shared_ptr<Shared> s) : s_(std::move(s)) {}
    std::shared_ptr<Shared> s_;
  };

  /// Execute every step in one Machine::run against the positionally
  /// bound input handles.
  Result run(const std::vector<DistHandle>& inputs);

  /// Launch the program as an independent execution stream and return
  /// immediately. The call validates + repairs inputs, compiles the
  /// schedule, and snapshots the DAG host-side, so the Program object may
  /// be mutated (or destroyed) while the run is in flight, and several
  /// launches of the same Program may overlap. A launch sharing an input
  /// handle with any in-flight run blocks until that run completes
  /// (results stay bitwise identical to serial order). `on_complete`,
  /// when given, fires on a machine worker thread the moment the last
  /// rank finishes — before wait() can return.
  AsyncResult run_async(const std::vector<DistHandle>& inputs,
                        std::function<void()> on_complete = nullptr);

  using Stats = ProgramStats;
  /// What the optimizer did on the most recent run() (see ProgramStats).
  const Stats& stats() const { return stats_; }

  /// Override the CATRSM_PROGRAM_OPT default for this Program. Off, the
  /// DAG executes exactly as written — the bitwise A/B reference.
  void set_optimize(bool on) { optimize_ = on; }
  bool optimize() const { return optimize_; }

 private:
  friend class Plan;  // execute_dist runs as a one-step program
  friend opt::Schedule opt::compile(const Program&, bool);

  struct Node {
    index_t rows = 0;
    index_t cols = 0;
    Layout layout;      // op nodes: the producing plan's output layout
    int input_index = -1;  // >= 0 for input nodes
  };
  struct Step {
    std::shared_ptr<Plan> plan;
    std::vector<NodeId> args;
    std::string phase;
    NodeId out = -1;
    // Cross-execute state threaded into the iterative TRSM body (the
    // plan's diagonal-inverse cache; see detail::TrsmBodyOptions).
    std::vector<std::vector<la::Matrix>>* ltilde_store = nullptr;
    bool reuse_ltilde = false;
  };

  Context* ctx_;
  std::vector<Node> nodes_;
  std::vector<Step> steps_;
  std::vector<NodeId> outputs_;
  int n_inputs_ = 0;
  bool optimize_ = true;  // seeded from CATRSM_PROGRAM_OPT in the ctor
  // Compiled schedule, reused across run() calls while the DAG, the
  // optimize flag, and the bound input layouts stay the same.
  std::shared_ptr<const opt::Schedule> compiled_;
  Stats stats_;
};

}  // namespace catrsm::api

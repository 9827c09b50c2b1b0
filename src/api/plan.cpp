// api::Plan — every entry point drives the resident path. execute_dist
// runs the op as a one-step api::Program over DistHandles; the matrix-in
// entries (execute, execute_batch, execute_generated) upload their
// operands, run that same Program path, download the result, and check
// the residual on the host. TRSM variants (right side, upper operand,
// transposed solve) are rewritten on the host onto the lower-left kernel
// plan first, so one distributed kernel serves all of them.

#include <cmath>
#include <cstring>
#include <mutex>

#include "api/op_bodies.hpp"
#include "la/gemm.hpp"
#include "la/norms.hpp"
#include "mm/mm3d.hpp"
#include "support/check.hpp"
#include "trsm/it_inv_trsm.hpp"

namespace catrsm::api {

using la::Matrix;

namespace {

/// Reverse the rows of a matrix (the J permutation).
Matrix reversed_rows(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (index_t i = 0; i < m.rows(); ++i)
    for (index_t j = 0; j < m.cols(); ++j)
      out(i, j) = m(m.rows() - 1 - i, j);
  return out;
}

/// J T J: reverse both index sets. Maps upper triangles to lower ones and
/// vice versa.
Matrix reversed_both(const Matrix& t) {
  const index_t n = t.rows();
  Matrix out(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      out(i, j) = t(n - 1 - i, n - 1 - j);
  return out;
}

/// The operand actually applied to X, op(T) in BLAS terms.
Matrix effective_operand(const Matrix& t, const TrsmSpec& spec) {
  return spec.transpose ? t.transposed() : t;
}

/// True for the TRSM variants the matrix-in entries rewrite onto the
/// lower-left kernel plan.
bool is_trsm_variant(const OpDesc& d) {
  return d.op == Op::kTrsm &&
         (d.trsm.side == Side::kRight || d.trsm.uplo == la::Uplo::kUpper ||
          d.trsm.transpose);
}

/// How a TRSM variant maps onto the lower-left kernel L Y = C. A right
/// solve X op(T) = B is the left solve op(T)^T X^T = B^T; an upper system
/// M X = B becomes (J M J)(J X) = J B, and J M J is lower. The
/// permutations introduce no rounding.
struct KernelForm {
  bool right;     // C = B^T and X = Y^T
  bool operand_t; // the left-side operand M is T^T
  bool reversed;  // M is upper: L = J M J, C and Y are row-reversed
};

KernelForm kernel_form(const TrsmSpec& s) {
  KernelForm f;
  f.right = s.side == Side::kRight;
  f.operand_t = s.transpose != f.right;
  f.reversed = (s.uplo == la::Uplo::kLower) == f.operand_t;
  return f;
}

Matrix kernel_operand(const Matrix& t, const KernelForm& f) {
  const Matrix m = f.operand_t ? t.transposed() : t;
  return f.reversed ? reversed_both(m) : m;
}

Matrix kernel_rhs(const Matrix& b, const KernelForm& f) {
  const Matrix c = f.right ? b.transposed() : b;
  return f.reversed ? reversed_rows(c) : c;
}

Matrix from_kernel(const Matrix& y, const KernelForm& f) {
  const Matrix x = f.reversed ? reversed_rows(y) : y;
  return f.right ? x.transposed() : x;
}

/// Relative residual of the original (un-normalized) TRSM variant.
double variant_residual(const Matrix& t, const Matrix& x, const Matrix& b,
                        const TrsmSpec& spec) {
  if (spec.side == Side::kLeft)
    return la::trsm_residual(effective_operand(t, spec), x, b);
  Matrix prod = la::matmul(x, effective_operand(t, spec));
  prod.sub(b);
  return la::frobenius_norm(prod) /
         (la::frobenius_norm(t) * la::frobenius_norm(x) +
          la::frobenius_norm(b) + 1e-300);
}

/// Relative residual of an SPD solve: ||A X - B|| / (||A|| ||X|| + ||B||).
double spd_residual(const Matrix& a, const Matrix& b, const Matrix& x) {
  Matrix resid = la::matmul(a, x);
  resid.sub(b);
  return la::frobenius_norm(resid) /
         (la::frobenius_norm(a) * la::frobenius_norm(x) +
          la::frobenius_norm(b) + 1e-300);
}

/// Bitwise equality (unlike Matrix::equals, tells -0.0 from 0.0).
bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.ptr(), y.ptr(),
                     sizeof(double) * static_cast<std::size_t>(x.size())) ==
             0;
}

/// Content identity of a resident operand: handles are never rewritten in
/// place, so (id, epoch) pins the bytes without hashing them. This is the
/// diagonal-inverse cache key on every path.
std::uint64_t handle_fingerprint(const DistHandle& h) {
  return (h.id() * 0x9E3779B97F4A7C15ull) ^
         (h.epoch() + 0x517CC1B727220A95ull);
}

/// Largest q with q * q <= p: the square subgrid the Cholesky ops run on.
int square_side(int p) {
  int q = static_cast<int>(std::sqrt(static_cast<double>(p)));
  while (q > 1 && q * q > p) --q;
  return std::max(q, 1);
}

}  // namespace

Plan::Plan(Context& ctx, OpDesc desc) : ctx_(&ctx), desc_(desc) {
  const int p = ctx.nprocs();
  const index_t n = desc_.n;
  const index_t k = desc_.k;
  switch (desc_.op) {
    case Op::kTrsm: {
      CATRSM_CHECK(n >= 1 && k >= 1, "plan: trsm needs n >= 1 and k >= 1");
      config_ = desc_.trsm.force_algorithm
                    ? model::configure_forced(n, k, p, desc_.trsm.algorithm)
                    : model::configure(n, k, p, ctx.params());
      if (desc_.trsm.nblocks > 0) config_.nblocks = desc_.trsm.nblocks;
      if (desc_.trsm.grid_p1 > 0) {
        config_.p1 = desc_.trsm.grid_p1;
        config_.p2 = std::max(desc_.trsm.grid_p2, 1);
        CATRSM_CHECK(config_.p1 * config_.p1 * config_.p2 <= p,
                     "plan: forced grid does not fit the machine");
      }
      break;
    }
    case Op::kTriInv: {
      CATRSM_CHECK(n >= 1, "plan: tri-inv needs n >= 1");
      config_.regime = model::classify(static_cast<double>(n),
                                       static_cast<double>(n),
                                       static_cast<double>(p));
      const auto [p1, p2] =
          model::nearest_grid(p, std::sqrt(static_cast<double>(p)));
      config_.p1 = p1;
      config_.p2 = p2;
      std::tie(config_.pr, config_.pc) = dist::balanced_factors(p);
      config_.predicted = model::tri_inv_cost(static_cast<double>(n), p1, p2);
      break;
    }
    case Op::kCholesky: {
      CATRSM_CHECK(n >= 1, "plan: cholesky needs n >= 1");
      const int q =
          desc_.trsm.grid_p1 > 0 ? desc_.trsm.grid_p1 : square_side(p);
      CATRSM_CHECK(q >= 1 && q * q <= p,
                   "plan: cholesky grid does not fit the machine");
      config_.algorithm = model::Algorithm::kIterative;
      config_.p1 = q;
      config_.p2 = 1;
      config_.pr = q;
      config_.pc = q;
      config_.regime = model::classify(static_cast<double>(n),
                                       static_cast<double>(n),
                                       static_cast<double>(q) * q);
      break;
    }
    case Op::kCholeskySolve: {
      CATRSM_CHECK(n >= 1 && k >= 1,
                   "plan: cholesky-solve needs n >= 1 and k >= 1");
      // The factor and both solves run on the largest square subgrid.
      const int q = square_side(p);
      config_.algorithm = model::Algorithm::kIterative;
      config_.p1 = q;
      config_.p2 = 1;
      config_.pr = q;
      config_.pc = q;
      config_.regime = model::classify(static_cast<double>(n),
                                       static_cast<double>(k),
                                       static_cast<double>(q) * q);
      config_.nblocks = desc_.trsm.nblocks > 0
                            ? desc_.trsm.nblocks
                            : trsm::it_inv_auto_nblocks(n, k, q * q);
      config_.predicted = model::it_inv_trsm_cost(
          static_cast<double>(n), static_cast<double>(k),
          static_cast<double>(q) * q);
      break;
    }
    case Op::kMatmul3D: {
      CATRSM_CHECK(n >= 1 && desc_.inner >= 1 && k >= 1,
                   "plan: matmul needs positive dimensions");
      const mm::MMGrid g = mm::choose_mm_grid(n, desc_.inner, k, p);
      config_.p1 = g.p1;
      config_.p2 = g.p2;
      std::tie(config_.pr, config_.pc) = dist::balanced_factors(p);
      config_.predicted.words =
          mm::mm3d_model_words(n, desc_.inner, k, g.p1, g.p2);
      config_.predicted.flops = 2.0 * static_cast<double>(n) *
                                static_cast<double>(desc_.inner) *
                                static_cast<double>(k) / p;
      break;
    }
    case Op::kMatmul2D: {
      CATRSM_CHECK(n >= 1 && k >= 1,
                   "plan: matmul needs positive dimensions");
      CATRSM_CHECK(desc_.inner == n,
                   "plan: the 2D SUMMA baseline requires a square A");
      std::tie(config_.pr, config_.pc) = dist::balanced_factors(p);
      config_.predicted.flops = 2.0 * static_cast<double>(n) *
                                static_cast<double>(n) *
                                static_cast<double>(k) / p;
      break;
    }
  }
}

Layout Plan::input_layout(int slot) const {
  CATRSM_CHECK(slot == 0 || slot == 1,
               "input_layout: ops take at most two operands");
  switch (desc_.op) {
    case Op::kTrsm:
      switch (config_.algorithm) {
        case model::Algorithm::kIterative:
          return slot == 0 ? cyclic_layout(config_.p1, config_.p1)
                           : row_blocked_layout(config_.p1, config_.p2);
        case model::Algorithm::kRecursive:
          return cyclic_layout(config_.pr, config_.pc);
        case model::Algorithm::kTrsm2D: {
          const auto [pr, pc] = dist::balanced_factors(ctx_->nprocs());
          return cyclic_layout(pr, pc);
        }
        case model::Algorithm::kTrsv1D:
          return cyclic_layout(ctx_->nprocs(), 1);
      }
      throw Error("input_layout: unknown algorithm");
    case Op::kTriInv:
      return cyclic_layout(config_.pr, config_.pc);
    case Op::kCholesky:
      return cyclic_layout(config_.p1, config_.p1);
    case Op::kCholeskySolve:
      return slot == 0 ? cyclic_layout(config_.p1, config_.p1)
                       : row_blocked_layout(config_.p1, 1);
    case Op::kMatmul3D:
    case Op::kMatmul2D:
      return cyclic_layout(config_.pr, config_.pc);
  }
  throw Error("input_layout: unknown op");
}

Layout Plan::output_layout() const {
  switch (desc_.op) {
    case Op::kTrsm:
    case Op::kCholeskySolve:
      return input_layout(1);
    case Op::kTriInv:
    case Op::kCholesky:
      return input_layout(0);
    case Op::kMatmul3D:
    case Op::kMatmul2D:
      return cyclic_layout(config_.pr, config_.pc);
  }
  throw Error("output_layout: unknown op");
}

// One in-flight Program run plus its deferred diagonal-inverse cache
// merge. A cache miss inverts the diagonal blocks into the ticket's
// PRIVATE store (never the plan's shared one — a concurrent reuse stream
// may be reading that); settle() merges it into the plan under diag_mu_,
// and only when no reader is in flight.
struct DistTicket::Shared {
  std::shared_ptr<Plan> plan;
  Program::AsyncResult async;

  std::unique_ptr<std::vector<trsm::DiagInverse>> ltilde;
  std::uint64_t merge_fp = 0;

  std::mutex mu;
  bool assembled = false;
  Program::Result result;
  std::exception_ptr outcome;

  /// Wait for the run once, merge the cache, and return (or rethrow) the
  /// stored outcome.
  const Program::Result& settle() {
    std::lock_guard<std::mutex> lock(mu);
    if (!assembled) {
      assembled = true;
      try {
        result = async.wait();
        if (ltilde != nullptr) {
          std::lock_guard<std::mutex> dl(plan->diag_mu_);
          ++plan->diag_inversions_;  // the inverter DID run, merged or not
          if (plan->diag_readers_ == 0) {
            plan->diag_locals_ = std::move(*ltilde);
            plan->diag_fp_ = merge_fp;
            plan->diag_valid_ = true;
          }
          // A reader in flight pins the shared cache; dropping the
          // private blocks costs one future re-inversion, never
          // correctness.
        }
      } catch (...) {
        outcome = std::current_exception();
      }
      ltilde.reset();
    }
    if (outcome) std::rethrow_exception(outcome);
    return result;
  }
};

bool Plan::caches_inverse() const {
  return desc_.op == Op::kTrsm && !desc_.trsm.transpose &&
         config_.algorithm == model::Algorithm::kIterative;
}

Plan& Plan::kernel_plan() {
  if (kernel_ == nullptr) {
    OpDesc d = desc_;
    d.trsm.side = Side::kLeft;
    d.trsm.uplo = la::Uplo::kLower;
    d.trsm.transpose = false;
    kernel_ = ctx_->plan(d);
  }
  return *kernel_;
}

std::uint64_t Plan::diag_inversions() const {
  return kernel_ != nullptr ? kernel_->diag_inversions() : diag_inversions_;
}

DistHandle Plan::upload_operand(const Matrix& a) {
  if (!caches_inverse()) return ctx_->upload(a, input_layout(0));
  // Keep the last uploaded operand: a repeat of the same bytes reuses its
  // handle, so the handle-keyed diagonal-inverse cache hits. A poisoned
  // handle is replaced from the caller's bytes instead of failing. The
  // kept copy doubles as the handle's upload source, so keeping it costs
  // no extra memory.
  if (!host_a_.valid() || !same_bytes(*host_src_, a) || host_a_.poisoned()) {
    auto src = std::make_shared<const Matrix>(a);
    host_a_ = ctx_->upload(
        [src](index_t i, index_t j) { return (*src)(i, j); }, a.rows(),
        a.cols(), input_layout(0));
    host_src_ = std::move(src);
  }
  return host_a_;
}

ExecResult Plan::execute(const Matrix& a, const Matrix& b) {
  ExecResult r;
  r.config = config_;
  if (desc_.op == Op::kTrsm || desc_.op == Op::kMatmul3D ||
      desc_.op == Op::kMatmul2D) {
    BatchResult br = execute_batch(a, {b});
    r.x = std::move(br.xs[0]);
    r.stats = std::move(br.stats);
    r.residual = br.residuals[0];
    return r;
  }
  const index_t n = desc_.n;
  CATRSM_CHECK(a.rows() == n && a.cols() == n,
               "execute: A must match the planned n x n shape");
  DistHandle hb;
  if (desc_.op == Op::kCholeskySolve) {
    CATRSM_CHECK(b.rows() == n && b.cols() == desc_.k,
                 "execute: B must match the planned n x k shape");
    hb = ctx_->upload(b, input_layout(1));
  }
  DistExecResult d = execute_dist(upload_operand(a), hb);
  r.stats = std::move(d.stats);
  r.x = ctx_->download(d.x);
  switch (desc_.op) {
    case Op::kTriInv:
      r.residual = la::inv_residual(a, r.x);
      break;
    case Op::kCholesky: {
      // Factorization residual: ||L L^T - A|| / ||A||.
      Matrix llt = la::matmul(r.x, r.x.transposed());
      llt.sub(a);
      r.residual = la::frobenius_norm(llt) / (la::frobenius_norm(a) + 1e-300);
      break;
    }
    default:  // kCholeskySolve
      r.residual = spd_residual(a, b, r.x);
      break;
  }
  return r;
}

sim::Cost BatchResult::algorithm_cost() const {
  return stats.phase_cost("algorithm");
}

BatchResult Plan::execute_batch(const Matrix& a,
                                const std::vector<Matrix>& bs) {
  return run_batch(a, bs, /*residuals=*/true);
}

BatchResult Plan::run_batch(const Matrix& a, const std::vector<Matrix>& bs,
                            bool residuals) {
  CATRSM_CHECK(desc_.op == Op::kTrsm || desc_.op == Op::kMatmul3D ||
                   desc_.op == Op::kMatmul2D,
               "execute_batch: batches trsm and matmul panel streams only");
  const bool is_trsm = desc_.op == Op::kTrsm;
  const index_t acols = is_trsm ? desc_.n : desc_.inner;
  const index_t brows = is_trsm ? desc_.n : desc_.inner;
  CATRSM_CHECK(a.rows() == desc_.n && a.cols() == acols,
               "execute: operand must match the planned shape");

  if (is_trsm_variant(desc_)) {
    // Rewrite onto the lower-left kernel plan (same (n, k, p, spec), so
    // the same Config), then map the solutions back.
    const KernelForm f = kernel_form(desc_.trsm);
    std::vector<Matrix> cs;
    cs.reserve(bs.size());
    for (const Matrix& b : bs) {
      CATRSM_CHECK(f.right ? b.rows() == desc_.k && b.cols() == desc_.n
                           : b.rows() == desc_.n && b.cols() == desc_.k,
                   "execute: B must match the planned shape (right-side B "
                   "is k x n)");
      cs.push_back(kernel_rhs(b, f));
    }
    BatchResult r = kernel_plan().run_batch(kernel_operand(a, f), cs,
                                            /*residuals=*/false);
    for (std::size_t i = 0; i < bs.size(); ++i) {
      r.xs[i] = from_kernel(r.xs[i], f);
      if (residuals)
        r.residuals.push_back(
            variant_residual(a, r.xs[i], bs[i], desc_.trsm));
    }
    return r;
  }

  for (const Matrix& b : bs)
    CATRSM_CHECK(b.rows() == brows && b.cols() == desc_.k,
                 "execute: panel must match the planned shape");
  BatchResult result;
  result.config = config_;
  if (bs.empty()) return result;

  // The whole panel stream as one Program: the operand once, one step and
  // one marked output per panel, executed in a single Machine::run. One
  // describe-only realization per layout serves every panel's upload and
  // download.
  const int p = ctx_->nprocs();
  const Layout lay_b = input_layout(1);
  const Layout lay_x = output_layout();
  const auto db = detail::realize_host(lay_b, brows, desc_.k, p);
  const auto dx = detail::realize_host(lay_x, desc_.n, desc_.k, p);
  Program prog(*ctx_);
  std::vector<DistHandle> handles{upload_operand(a)};
  handles.reserve(bs.size() + 1);
  const Program::NodeId na = prog.input(desc_.n, acols);
  for (const Matrix& b : bs) {
    handles.push_back(ctx_->upload_on(b, lay_b, db));
    const Program::NodeId nb = prog.input(brows, desc_.k);
    prog.mark_output(prog.add(shared_from_this(), {na, nb}));
  }
  const DistTicket ticket = launch(prog, handles);
  const Program::Result& r = ticket.s_->settle();

  result.stats = r.stats;
  result.program_stats = prog.stats();
  result.xs.reserve(bs.size());
  for (std::size_t i = 0; i < bs.size(); ++i) {
    Matrix x = ctx_->download_on(r.outputs[i], dx);
    if (residuals)
      result.residuals.push_back(is_trsm ? la::trsm_residual(a, x, bs[i])
                                         : 0.0);
    result.xs.push_back(std::move(x));
  }
  return result;
}

ExecResult Plan::execute_generated(const Gen& a_gen, const Gen& b_gen,
                                   bool verify) {
  CATRSM_CHECK(desc_.op == Op::kCholeskySolve,
               "execute_generated: only the cholesky-solve op accepts "
               "generator inputs");
  // Generator-fed upload: no rank ever materializes a global operand.
  DistExecResult d = execute_dist(
      ctx_->upload(a_gen, desc_.n, desc_.n, input_layout(0)),
      ctx_->upload(b_gen, desc_.n, desc_.k, input_layout(1)));
  ExecResult r;
  r.config = config_;
  r.stats = std::move(d.stats);
  r.x = ctx_->download(d.x);
  if (verify) {
    // Verification only: materialize the global system once, host-side.
    Matrix a(desc_.n, desc_.n);
    Matrix b(desc_.n, desc_.k);
    for (index_t i = 0; i < desc_.n; ++i) {
      for (index_t j = 0; j < desc_.n; ++j) a(i, j) = a_gen(i, j);
      for (index_t j = 0; j < desc_.k; ++j) b(i, j) = b_gen(i, j);
    }
    r.residual = spd_residual(a, b, r.x);
  }
  return r;
}

DistExecResult Plan::execute_dist(const DistHandle& a, const DistHandle& b) {
  return execute_dist_async(a, b).wait();
}

DistTicket Plan::execute_dist_async(const DistHandle& a,
                                    const DistHandle& b) {
  CATRSM_CHECK(a.valid(), "execute_dist: operand handle is empty");
  const bool needs_b = desc_.op != Op::kTriInv && desc_.op != Op::kCholesky;
  CATRSM_CHECK(!needs_b || b.valid(),
               "execute_dist: op needs a second operand handle");

  if (desc_.op == Op::kCholeskySolve) {
    Program prog = make_cholesky_program();
    return launch(prog, {a, b});
  }

  // One-step program: ALL validation (variant rules, shapes, machine
  // ownership) and all orchestration (slot load/restore with exception
  // unwinding, grid subsetting, redistribute-on-mismatch, output
  // materialization) live in Program::add/run_async — one
  // implementation. run_async snapshots the DAG, so the local Program
  // may die while the stream flies.
  Program prog(*ctx_);
  std::vector<Program::NodeId> args{prog.input(a.rows(), a.cols())};
  std::vector<DistHandle> inputs{a};
  if (needs_b) {
    args.push_back(prog.input(b.rows(), b.cols()));
    inputs.push_back(b);
  }
  prog.mark_output(prog.add(shared_from_this(), std::move(args)));
  return launch(prog, inputs);
}

DistTicket Plan::launch(Program& prog, const std::vector<DistHandle>& inputs) {
  auto sh = std::make_shared<DistTicket::Shared>();
  sh->plan = shared_from_this();

  // Diagonal-inverse reuse keyed on the operand handle's content
  // identity: every step of this program solves against inputs[0]. A hit
  // makes the run a READER of the shared blocks: count it so no
  // concurrent settle() merges (rewrites) the vector under its fibers —
  // the count drops on a worker thread the moment the run completes. A
  // miss inverts in the first step into the private store, and later
  // steps reuse it in the same run.
  std::function<void()> on_complete;
  bool reader = false;
  if (caches_inverse()) {
    const std::uint64_t fp = handle_fingerprint(inputs[0]);
    std::lock_guard<std::mutex> lock(diag_mu_);
    std::vector<trsm::DiagInverse>* store = nullptr;
    if (diag_valid_ && diag_fp_ == fp) {
      store = &diag_locals_;
      ++diag_readers_;
      reader = true;
      on_complete = [self = sh->plan] {
        std::lock_guard<std::mutex> l(self->diag_mu_);
        --self->diag_readers_;
      };
    } else {
      sh->ltilde = std::make_unique<std::vector<trsm::DiagInverse>>(
          static_cast<std::size_t>(ctx_->nprocs()));
      sh->merge_fp = fp;
      store = sh->ltilde.get();
    }
    for (std::size_t i = 0; i < prog.steps_.size(); ++i) {
      prog.steps_[i].ltilde_store = store;
      prog.steps_[i].reuse_ltilde = reader || i > 0;
    }
  }
  try {
    sh->async = prog.run_async(inputs, std::move(on_complete));
  } catch (...) {
    // run_async throws only before the submission exists, so on_complete
    // never fires — undo the reader count here.
    if (reader) {
      std::lock_guard<std::mutex> lock(diag_mu_);
      --diag_readers_;
    }
    throw;
  }
  return DistTicket(std::move(sh));
}

bool DistTicket::done() const {
  CATRSM_CHECK(s_ != nullptr, "DistTicket: empty ticket");
  return s_->async.done();
}

DistExecResult DistTicket::wait() {
  CATRSM_CHECK(s_ != nullptr, "DistTicket: empty ticket");
  const Program::Result& r = s_->settle();
  DistExecResult out;
  out.x = r.outputs[0];
  out.stats = r.stats;
  out.config = s_->plan->config();
  return out;
}

Program Plan::make_cholesky_program() {
  const index_t n = desc_.n;
  const index_t k = desc_.k;
  const int q = config_.p1;

  // The three building-block plans (cache hits after the first execute).
  auto factor_plan = ctx_->plan(cholesky_op(n, q));
  TrsmSpec fwd_spec;
  fwd_spec.force_algorithm = true;
  fwd_spec.algorithm = model::Algorithm::kIterative;
  fwd_spec.nblocks = config_.nblocks;
  fwd_spec.grid_p1 = q;
  fwd_spec.grid_p2 = 1;
  auto fwd_plan = ctx_->plan(trsm_op(n, k, fwd_spec));
  TrsmSpec bwd_spec = fwd_spec;
  bwd_spec.transpose = true;
  auto bwd_plan = ctx_->plan(trsm_op(n, k, bwd_spec));

  Program prog(*ctx_);
  const auto na = prog.input(n, n);
  const auto nb = prog.input(n, k);
  const auto nl = prog.add(factor_plan, {na}, "cholesky");
  const auto ny = prog.add(fwd_plan, {nl, nb}, "forward-trsm");
  const auto nx = prog.add(bwd_plan, {nl, ny}, "backward-trsm");
  prog.mark_output(nx);
  return prog;
}

}  // namespace catrsm::api

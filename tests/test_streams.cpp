// Tests for concurrent execution streams: several Contexts sharing one
// machine with overlapped simulator runs in flight (api::StreamPool /
// Plan::execute_dist_async), bitwise equivalence against serial serving,
// fault isolation between streams, machine reuse after a faulted stream,
// and the stream-count knob's warn-and-fallback discipline.
//
// The concurrent stress case doubles as the CI ThreadSanitizer target:
// under CATRSM_SANITIZER the scheduler degrades to the thread backend and
// TSan watches the per-run transport, detector, and handle-store paths
// race against each other across streams.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/catrsm.hpp"
#include "api/stream_pool.hpp"
#include "la/generate.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace catrsm::api {
namespace {

using la::index_t;
using la::Matrix;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_ = false;
  std::string old_;
};

TrsmSpec iterative_spec() {
  TrsmSpec spec;
  spec.force_algorithm = true;
  spec.algorithm = model::Algorithm::kIterative;
  return spec;
}

TEST(Streams, ConcurrentPoolMatchesSerialBitwise) {
  // Four tenants on one machine, a mixed bag of solve shapes, served
  // once serially and once with up to CATRSM_SIM_STREAMS runs in
  // flight. Concurrency must be invisible in the results: solutions
  // bitwise identical, modeled costs and virtual clocks identical
  // (per-run state — mailboxes, clocks, counters — is private to each
  // stream by construction).
  const int tenants = 4;
  struct Shape {
    index_t n, k;
  };
  const std::vector<Shape> shapes{{48, 12}, {64, 8},  {32, 24}, {96, 16},
                                  {48, 32}, {64, 16}, {40, 8},  {56, 12},
                                  {48, 12}, {72, 8},  {32, 8},  {64, 24}};
  const int items = static_cast<int>(shapes.size());

  sim::Machine machine(8);
  std::vector<std::unique_ptr<Context>> ctxs;
  for (int t = 0; t < tenants; ++t)
    ctxs.push_back(std::make_unique<Context>(machine));

  std::vector<std::shared_ptr<Plan>> plans;
  std::vector<DistHandle> hls, hbs;
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    Context& ctx = *ctxs[static_cast<std::size_t>(i % tenants)];
    auto plan = ctx.plan(trsm_op(shapes[u].n, shapes[u].k, iterative_spec()));
    hls.push_back(ctx.upload(
        la::make_lower_triangular(900 + static_cast<std::uint64_t>(i),
                                  shapes[u].n),
        plan->input_layout(0)));
    hbs.push_back(ctx.upload(
        la::make_rhs(1900 + static_cast<std::uint64_t>(i), shapes[u].n,
                     shapes[u].k),
        plan->input_layout(1)));
    plans.push_back(std::move(plan));
  }

  // Warmup pass: populate each plan's diagonal-inverse cache so both
  // compared passes reuse it — otherwise the serial pass would carry the
  // one-time inversion phase the concurrent pass then skips, and the
  // modeled costs would differ for a reason that has nothing to do with
  // concurrency.
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    (void)plans[u]->execute_dist(hls[u], hbs[u]);
  }

  std::vector<Matrix> xs(static_cast<std::size_t>(items));
  std::vector<sim::Cost> costs(static_cast<std::size_t>(items));
  std::vector<double> crit(static_cast<std::size_t>(items));
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const DistExecResult r = plans[u]->execute_dist(hls[u], hbs[u]);
    xs[u] = ctxs[static_cast<std::size_t>(i % tenants)]->download(r.x);
    costs[u] = r.algorithm_cost();
    crit[u] = r.stats.critical_time;
  }

  StreamPool pool;
  std::vector<int> pool_tenant;
  for (int t = 0; t < tenants; ++t)
    pool_tenant.push_back(pool.add_tenant(*ctxs[static_cast<std::size_t>(t)]));
  std::vector<int> req_of_id;
  for (int i = 0; i < items; ++i) {
    const std::size_t u = static_cast<std::size_t>(i);
    const int id =
        pool.submit(pool_tenant[static_cast<std::size_t>(i % tenants)],
                    plans[u], hls[u], hbs[u]);
    if (static_cast<std::size_t>(id) >= req_of_id.size())
      req_of_id.resize(static_cast<std::size_t>(id) + 1, -1);
    req_of_id[static_cast<std::size_t>(id)] = i;
  }
  int completed = 0;
  for (;;) {
    const auto batch = pool.wait_some();
    if (batch.empty()) break;
    for (const auto& c : batch) {
      ASSERT_FALSE(c.error) << "stream " << c.id << " faulted";
      const std::size_t u =
          static_cast<std::size_t>(req_of_id[static_cast<std::size_t>(c.id)]);
      const Matrix x =
          ctxs[static_cast<std::size_t>(c.tenant)]->download(c.result.x);
      EXPECT_TRUE(x.equals(xs[u])) << "request " << u << " not bitwise";
      const sim::Cost cc = c.result.algorithm_cost();
      EXPECT_EQ(cc.msgs, costs[u].msgs);
      EXPECT_EQ(cc.words, costs[u].words);
      EXPECT_EQ(cc.flops, costs[u].flops);
      EXPECT_EQ(c.result.stats.critical_time, crit[u]);
      ++completed;
    }
  }
  EXPECT_EQ(completed, items);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(Streams, MatrixPathLeavesTheCacheAloneUnderAnInFlightReader) {
  // Regression: execute and execute_batch against a new operand used to
  // rewrite the plan's diagonal-inverse cache without its lock while an
  // async reuse stream on the same plan was still reading it (the reader
  // died on "stored ltilde shape mismatch"). Every result must equal the
  // serial call order bit for bit.
  const index_t n = 96, k = 24;
  const int p = 16;
  const Matrix l = la::make_lower_triangular(901, n);
  const Matrix l2 = la::make_lower_triangular(902, n);
  const Matrix b = la::make_rhs(903, n, k);

  Context ref_ctx(p);
  auto ref_plan = ref_ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle ref_hl = ref_ctx.upload(l, ref_plan->input_layout(0));
  const DistHandle ref_hb = ref_ctx.upload(b, ref_plan->input_layout(1));
  (void)ref_plan->execute_dist(ref_hl, ref_hb);
  const Matrix x_ref =
      ref_ctx.download(ref_plan->execute_dist(ref_hl, ref_hb).x);
  const ExecResult single_ref = ref_plan->execute(l2, b);
  const BatchResult batch_ref = ref_plan->execute_batch(l2, {b, b});

  Context ctx(p);
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl = ctx.upload(l, plan->input_layout(0));
  const DistHandle hb = ctx.upload(b, plan->input_layout(1));
  (void)plan->execute_dist(hl, hb);  // warm: the cache holds L's blocks
  DistTicket reader = plan->execute_dist_async(hl, hb);  // reuses them
  const ExecResult single = plan->execute(l2, b);
  const BatchResult batch = plan->execute_batch(l2, {b, b});
  EXPECT_TRUE(ctx.download(reader.wait().x).equals(x_ref));
  EXPECT_TRUE(single.x.equals(single_ref.x));
  EXPECT_EQ(single.residual, single_ref.residual);
  ASSERT_EQ(batch.xs.size(), 2u);
  for (std::size_t i = 0; i < batch.xs.size(); ++i) {
    EXPECT_TRUE(batch.xs[i].equals(batch_ref.xs[i]));
    EXPECT_EQ(batch.residuals[i], batch_ref.residuals[i]);
  }
}

TEST(Streams, FaultedStreamIsIsolatedAndMachineStaysUsable) {
  // A kill fault armed for ONE stream must abort that stream alone: a
  // healthy stream launched (after disarm) while the doomed one is still
  // in flight completes bitwise clean, the doomed stream's operands are
  // poisoned exactly like a serial faulted run's, and the machine keeps
  // serving runs afterwards.
  const index_t n = 48, k = 12;
  sim::Machine machine(4);
  Context victim(machine);
  Context healthy(machine);

  auto vplan = victim.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle vl =
      victim.upload(la::make_lower_triangular(951, n), vplan->input_layout(0));
  const DistHandle vb =
      victim.upload(la::make_rhs(952, n, k), vplan->input_layout(1));

  auto hplan = healthy.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl = healthy.upload(la::make_lower_triangular(953, n),
                                       hplan->input_layout(0));
  const DistHandle hb =
      healthy.upload(la::make_rhs(954, n, k), hplan->input_layout(1));
  const Matrix x_ref = healthy.download(hplan->execute_dist(hl, hb).x);

  // Fault plans are captured per run at launch: arm, launch the victim,
  // disarm, launch the healthy stream — both now fly concurrently.
  machine.arm_fault(sim::FaultPlan{sim::FaultClass::kKillRank, 71});
  DistTicket doomed = vplan->execute_dist_async(vl, vb);
  machine.disarm_fault();
  DistTicket clean = hplan->execute_dist_async(hl, hb);

  EXPECT_THROW((void)doomed.wait(), Error);
  const DistExecResult ok = clean.wait();
  EXPECT_TRUE(healthy.download(ok.x).equals(x_ref));

  // Containment: only the faulted stream's operands are poisoned.
  EXPECT_TRUE(vl.poisoned());
  EXPECT_FALSE(hl.poisoned());
  EXPECT_FALSE(hb.poisoned());

  // The machine (and the victim tenant, after repair) keeps working.
  victim.repair(vl);
  victim.repair(vb);
  const DistExecResult retry = vplan->execute_dist(vl, vb);
  const Matrix x_retry = victim.download(retry.x);
  Context fresh(machine);
  auto fplan = fresh.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle fl =
      fresh.upload(la::make_lower_triangular(951, n), fplan->input_layout(0));
  const DistHandle fb =
      fresh.upload(la::make_rhs(952, n, k), fplan->input_layout(1));
  EXPECT_TRUE(fresh.download(fplan->execute_dist(fl, fb).x).equals(x_retry));
}

TEST(Streams, StreamsKnobGarbageWarnsAndFallsBack) {
  // CATRSM_SIM_STREAMS=banana must not crash, hang, or silently become
  // 0 streams: the pool falls back to its documented default width and
  // still serves end to end.
  ScopedEnv garbage("CATRSM_SIM_STREAMS", "banana");
  sim::Machine machine(4);
  Context ctx(machine);
  StreamPool pool;
  EXPECT_EQ(pool.max_inflight(), 4);  // documented fallback

  const index_t n = 32, k = 8;
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl =
      ctx.upload(la::make_lower_triangular(961, n), plan->input_layout(0));
  const DistHandle hb =
      ctx.upload(la::make_rhs(962, n, k), plan->input_layout(1));
  const Matrix x_ref = ctx.download(plan->execute_dist(hl, hb).x);

  const int t = pool.add_tenant(ctx);
  pool.submit(t, plan, hl, hb);
  const auto done = pool.drain();
  ASSERT_EQ(done.size(), 1u);
  ASSERT_FALSE(done[0].error);
  EXPECT_TRUE(ctx.download(done[0].result.x).equals(x_ref));
}

TEST(Streams, HandleBudgetKnobGarbageWarnsAndFallsBack) {
  // CATRSM_HANDLE_BUDGET=garbage falls back to unlimited — nothing is
  // ever evicted — and serving works end to end.
  ScopedEnv garbage("CATRSM_HANDLE_BUDGET", "garbage");
  sim::Machine machine(4);
  EXPECT_EQ(machine.handle_store().byte_budget(), sim::HandleStore::kUnlimited);

  Context ctx(machine);
  const index_t n = 32, k = 8;
  auto plan = ctx.plan(trsm_op(n, k, iterative_spec()));
  const DistHandle hl =
      ctx.upload(la::make_lower_triangular(971, n), plan->input_layout(0));
  const DistHandle hb =
      ctx.upload(la::make_rhs(972, n, k), plan->input_layout(1));
  const DistExecResult r = plan->execute_dist(hl, hb);
  EXPECT_TRUE(hl.resident());
  EXPECT_EQ(machine.handle_store().evictions(), 0u);
  (void)ctx.download(r.x);
}

}  // namespace
}  // namespace catrsm::api

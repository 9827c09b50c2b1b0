// Resident distributed operands: DistHandle lifecycle and the host-side
// scatter (upload) / assemble (download) endpoints. Both endpoints are
// pure host arithmetic over describe-only layout realizations — nothing
// here touches the simulated machine's clocks or counters, which is what
// keeps algorithm_cost() on the handle path free of driver artifacts.

#include <algorithm>

#include "api/op_bodies.hpp"
#include "support/check.hpp"

namespace catrsm::api {

DistHandle::State::~State() {
  // The machine's store outlives every handle by the documented lifetime
  // rule (handles must not outlive their Context / machine).
  machine->handle_store().release(id);
}

index_t DistHandle::rows() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->rows;
}

index_t DistHandle::cols() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->cols;
}

Layout DistHandle::layout() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->layout;
}

std::uint64_t DistHandle::id() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->id;
}

std::uint64_t DistHandle::epoch() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->epoch;
}

bool DistHandle::poisoned() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->machine->handle_store().poisoned(state_->id);
}

bool DistHandle::resident() const {
  CATRSM_CHECK(state_ != nullptr, "DistHandle: empty handle");
  return state_->machine->handle_store().resident(state_->id);
}

sim::Cost DistExecResult::algorithm_cost() const {
  return stats.phase_cost("algorithm");
}

sim::Cost DistExecResult::redistribute_cost() const {
  return stats.phase_cost("redistribute");
}

namespace {

/// Fill every participating rank's slot of entry `id` from `gen` under
/// the host-realized distribution `d` (shared by upload and repair).
void fill_slots(sim::HandleStore& store, std::uint64_t id, const Gen& gen,
                const std::shared_ptr<const dist::Distribution>& d, int p) {
  for (int w = 0; w < p; ++w) {
    dist::DistMatrix dm(d, w);
    if (!dm.participates()) continue;
    dm.fill(gen);
    store.local(id, w) = std::move(dm.local());
  }
}

/// The same fill from a host matrix: each slot row is gathered straight
/// from its source row (one memcpy when the rank's columns are a
/// contiguous run), with no per-element generator call or part lookup.
void fill_slots(sim::HandleStore& store, std::uint64_t id,
                const la::Matrix& m,
                const std::shared_ptr<const dist::Distribution>& d, int p) {
  for (int w = 0; w < p; ++w) {
    const auto parts = d->parts_of_world(w);
    if (!parts.has_value()) continue;
    const auto rows = d->rows_of_part(parts->first);
    const auto cols = d->cols_of_part(parts->second);
    const index_t nc = static_cast<index_t>(cols.size());
    la::Matrix local =
        la::Matrix::uninit(static_cast<index_t>(rows.size()), nc);
    const bool contiguous = nc > 0 && cols.back() - cols.front() == nc - 1;
    double* dst = local.ptr();
    for (const index_t i : rows) {
      const double* src = m.ptr() + i * m.cols();
      if (contiguous) {
        std::copy(src + cols.front(), src + cols.front() + nc, dst);
      } else {
        for (index_t c = 0; c < nc; ++c)
          dst[c] = src[cols[static_cast<std::size_t>(c)]];
      }
      dst += nc;
    }
    store.local(id, w) = std::move(local);
  }
}

}  // namespace

DistHandle Context::upload(const la::Matrix& m, Layout layout) {
  return upload_on(m, layout,
                   detail::realize_host(layout, m.rows(), m.cols(),
                                        nprocs()));
}

DistHandle Context::upload(const Gen& gen, index_t rows, index_t cols,
                           Layout layout) {
  return upload_on(gen, rows, cols, layout,
                   detail::realize_host(layout, rows, cols, nprocs()));
}

DistHandle Context::upload_on(
    const la::Matrix& m, Layout layout,
    const std::shared_ptr<const dist::Distribution>& d) {
  // Copy the matrix into the recovery source: the handle's repair path
  // may fire long after the caller's matrix is gone.
  const auto keep = std::make_shared<la::Matrix>(m);
  return admit(m.rows(), m.cols(), layout, d,
               [&](sim::HandleStore& store, std::uint64_t id) {
                 fill_slots(store, id, m, d, nprocs());
               },
               [keep](index_t i, index_t j) { return (*keep)(i, j); });
}

DistHandle Context::upload_on(
    const Gen& gen, index_t rows, index_t cols, Layout layout,
    const std::shared_ptr<const dist::Distribution>& d) {
  return admit(rows, cols, layout, d,
               [&](sim::HandleStore& store, std::uint64_t id) {
                 fill_slots(store, id, gen, d, nprocs());
               },
               gen);
}

DistHandle Context::admit(
    index_t rows, index_t cols, Layout layout,
    const std::shared_ptr<const dist::Distribution>& d,
    const std::function<void(sim::HandleStore&, std::uint64_t)>& fill,
    Gen source) {
  CATRSM_CHECK(rows >= 1 && cols >= 1, "upload: empty operand");
  CATRSM_CHECK(d != nullptr && d->rows() == rows && d->cols() == cols,
               "upload: realization does not match the operand shape");
  sim::HandleStore& store = machine_->handle_store();
  const std::uint64_t id = store.create();
  fill(store, id);
  // Uploaded operands carry their source, so they can be rebuilt bitwise
  // after a byte-budget eviction — mark them evictable, account their
  // bytes, and let the new admission push the LRU tail out.
  store.set_evictable(id, true);
  store.touch(id);
  auto state = std::make_shared<DistHandle::State>(
      machine_, id, layout, rows, cols, store.epoch(id));
  state->source = std::move(source);
  store.evict_to_budget();
  return DistHandle(std::move(state));
}

void Context::repair(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "repair: empty handle");
  CATRSM_CHECK(h.state_->machine == machine_,
               "repair: handle belongs to a different machine");
  sim::HandleStore& store = machine_->handle_store();
  store.wait_run_idle(h.id());  // never rewrite under an in-flight stream
  if (!store.poisoned(h.id())) return;
  if (!h.state_->source)
    throw PoisonedOperandError(
        "repair: handle has no recorded source to re-upload from (it was "
        "produced by a run, not uploaded) — rebuild it instead");
  const auto d =
      detail::realize_host(h.layout(), h.rows(), h.cols(), nprocs());
  fill_slots(store, h.id(), h.state_->source, d, nprocs());
  store.unpoison(h.id());
  store.touch(h.id());
  h.state_->epoch = store.epoch(h.id());
}

bool Context::ensure_resident(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "ensure_resident: empty handle");
  CATRSM_CHECK(h.state_->machine == machine_,
               "ensure_resident: handle belongs to a different machine");
  sim::HandleStore& store = machine_->handle_store();
  if (store.resident(h.id())) return false;
  // Only entries with a recorded source are ever marked evictable, so a
  // non-resident entry always has one.
  CATRSM_CHECK(static_cast<bool>(h.state_->source),
               "ensure_resident: evicted handle has no upload source");
  const auto d =
      detail::realize_host(h.layout(), h.rows(), h.cols(), nprocs());
  fill_slots(store, h.id(), h.state_->source, d, nprocs());
  // touch(), not a fresh epoch: the restored bytes are identical, so
  // content-keyed caches (diag-inverse reuse) stay valid across the
  // evict/re-upload round trip. No budget pass here — the caller is
  // about to use the blocks (run paths hold run-use marks; download
  // evicts after assembling).
  store.touch(h.id());
  return true;
}

void Context::pin(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "pin: empty handle");
  CATRSM_CHECK(h.state_->machine == machine_,
               "pin: handle belongs to a different machine");
  machine_->handle_store().pin(h.id());
}

void Context::unpin(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "unpin: empty handle");
  machine_->handle_store().unpin(h.id());
}

la::Matrix Context::download(const DistHandle& h) {
  CATRSM_CHECK(h.valid(), "download: empty handle");
  return download_on(
      h, detail::realize_host(h.layout(), h.rows(), h.cols(), nprocs()));
}

la::Matrix Context::download_on(
    const DistHandle& h,
    const std::shared_ptr<const dist::Distribution>& d) {
  CATRSM_CHECK(h.valid(), "download: empty handle");
  CATRSM_CHECK(h.state_->machine == machine_,
               "download: handle belongs to a different machine");
  CATRSM_CHECK(d != nullptr && d->rows() == h.rows() &&
                   d->cols() == h.cols(),
               "download: realization does not match the handle shape");
  sim::HandleStore& store = machine_->handle_store();
  // An in-flight stream moves blocks OUT of the store for the run's
  // duration; wait until no run uses the entry before reading it.
  store.wait_run_idle(h.id());
  if (store.poisoned(h.id()))
    throw PoisonedOperandError(
        "download: operand was touched by a faulted run and may be "
        "partially rewritten — Context::repair it (or re-upload) first");
  ensure_resident(h);  // transparent re-upload after a budget eviction
  la::Matrix out(h.rows(), h.cols());
  for (int w = 0; w < nprocs(); ++w) {
    const auto parts = d->parts_of_world(w);
    if (!parts.has_value()) continue;
    const auto rows_w = d->rows_of_part(parts->first);
    const auto cols_w = d->cols_of_part(parts->second);
    const la::Matrix& loc = store.local(h.id(), w);
    CATRSM_CHECK(loc.rows() == static_cast<index_t>(rows_w.size()) &&
                     loc.cols() == static_cast<index_t>(cols_w.size()),
                 "download: stored block does not match the handle layout");
    for (std::size_t r = 0; r < rows_w.size(); ++r)
      for (std::size_t c = 0; c < cols_w.size(); ++c)
        out(rows_w[r], cols_w[c]) =
            loc(static_cast<index_t>(r), static_cast<index_t>(c));
  }
  // Budget 0 degenerates to always-re-upload: the blocks just read can
  // leave again now that the gather is done.
  store.evict_to_budget();
  return out;
}

}  // namespace catrsm::api

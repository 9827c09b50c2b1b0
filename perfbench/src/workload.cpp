#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>

#include "bench.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"

namespace perfbench {

namespace api = catrsm::api;
namespace la = catrsm::la;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> table = {
      // 3D it-inv with resident L and a reused inverse: 31 messages per
      // ~4 ms request, bound by the simulator; the kernel barely matters.
      {"panel_stream", 64, api::trsm_op(256, 64), false},
      // The same path at n=2048, bound by the local GEMM kernel: with
      // panel_stream it separates la gains from sim gains.
      {"tall_panel", 64, api::trsm_op(2048, 64), false},
      // 1D rec-trsm, configure's most common choice: its base case
      // collects L and redistributes B twice per request (dist-bound).
      {"wide_rhs", 4, api::trsm_op(256, 1024), false},
      // The paper's motivating use: factor, a diagonal inversion on every
      // request, and the reversed transposed solve (Program path).
      {"spd_pipeline", 16, api::cholesky_solve_op(256, 32), true},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (name == w.name) return &w;
  return nullptr;
}

namespace {

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Outputs of these well-conditioned test systems solve to ~1e-17; a
// wrong block or a lost update lands many orders of magnitude higher.
constexpr double kResidualBound = 1e-12;

double spd_residual(const la::Matrix& a, const la::Matrix& x,
                    const la::Matrix& b) {
  la::Matrix r = b;
  la::gemm(1.0, a, x, -1.0, r);  // r = A X - B
  const double denom =
      la::frobenius_norm(a) * la::frobenius_norm(x) + la::frobenius_norm(b);
  return la::frobenius_norm(r) / denom;
}

}  // namespace

Inputs make_inputs(const Workload& w, std::uint64_t seed, int pool) {
  const index_t n = w.desc.n;
  const index_t k = w.desc.k;
  Inputs in;
  if (!w.spd) in.l = la::make_lower_triangular(mix(seed, 0), n);
  for (int i = 0; i < pool; ++i) {
    const std::uint64_t s = mix(seed, static_cast<std::uint64_t>(i) + 1);
    in.bs.push_back(la::make_rhs(s, n, k));
    if (w.spd) in.as.push_back(la::make_spd(s, n));
  }
  return in;
}

std::unique_ptr<Server> open_server(const Workload& w, const Inputs& in) {
  auto s = std::make_unique<Server>(w.p);
  s->plan = s->ctx.plan(w.desc);
  if (!w.spd) s->hl = s->ctx.upload(in.l, s->plan->input_layout(0));
  return s;
}

Modeled modeled_of(const catrsm::sim::RunStats& s) {
  return Modeled{s.critical_time, s.max_msgs(), s.max_words(), s.max_flops()};
}

Sample serve(Server& s, const Workload& w, const Inputs& in, std::size_t i) {
  Sample out;
  const la::Matrix& b = in.bs[i % in.bs.size()];
  out.t0 = Clock::now();
  try {
    // A resident server resolves the plan by descriptor on every request:
    // the plan cache's hit path.
    std::shared_ptr<api::Plan> plan = s.ctx.plan(w.desc);
    out.t[0] = Clock::now();
    api::DistHandle ha =
        w.spd ? s.ctx.upload(in.as[i % in.as.size()], plan->input_layout(0))
              : s.hl;
    api::DistHandle hb = s.ctx.upload(b, plan->input_layout(1));
    out.t[1] = Clock::now();
    api::DistExecResult r = plan->execute_dist(ha, hb);
    out.t[2] = Clock::now();
    la::Matrix x = s.ctx.download(r.x);
    // The request's temporaries leave the handle store inside the request.
    r.x = api::DistHandle();
    hb = api::DistHandle();
    ha = api::DistHandle();
    out.t[3] = Clock::now();
    out.stats = std::move(r.stats);
    const double residual = w.spd
                                ? spd_residual(in.as[i % in.as.size()], x, b)
                                : la::trsm_residual(in.l, x, b);
    out.ok = std::isfinite(residual) && residual <= kResidualBound;
    if (!out.ok) out.error = "residual above bound";
  } catch (const std::exception& e) {
    out.error = e.what();
    out.ok = false;
  }
  out.t[4] = Clock::now();
  for (auto& t : out.t)  // a thrown request keeps consistent stamps
    if (t == Clock::time_point{}) t = out.t[4];
  return out;
}

// --- SpanRecorder --------------------------------------------------------------

namespace {
constexpr const char* kChildNames[5] = {"api.plan", "api.upload",
                                        "api.execute", "api.download",
                                        "verify"};
}

void SpanRecorder::record(std::uint64_t req, const Sample& s) {
  spans_.push_back({"request", req, nullptr, s.t0, s.t[4]});
  Clock::time_point start = s.t0;
  for (int c = 0; c < 5; ++c) {
    spans_.push_back({kChildNames[c], req, "request", start, s.t[c]});
    start = s.t[c];
  }
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& sp : spans_)
    if (name == sp.name) out.push_back(seconds_between(sp.t0, sp.t1));
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                  "\"parent\":\"%s\"}}",
                  i ? ",\n" : "\n", sp.name, us(sp.t0), us(sp.t1) - us(sp.t0),
                  static_cast<unsigned long long>(sp.req),
                  sp.parent ? sp.parent : "");
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench

#pragma once
// Shared pieces of the catrsm serving benchmark: the workload table, the
// per-request serving path through api::, the span recorder, and small
// statistics helpers. See perfbench/README.md for what is measured and why.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/catrsm.hpp"
#include "la/matrix.hpp"
#include "sim/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using catrsm::la::index_t;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Statistics --------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  int p;                    // simulated ranks
  catrsm::api::OpDesc desc; // auto-configured: no forced algorithm
  bool spd;                 // fresh SPD A per request (Cholesky pipeline)
                            // instead of a resident triangular L
};

/// The benchmark's workloads; nullptr when `name` is unknown.
const Workload* find_workload(const std::string& name);
const std::vector<Workload>& all_workloads();

/// Everything a run's requests consume, generated from one seed. Requests
/// cycle through `bs` (and `as` for the SPD pipeline), so consecutive
/// requests always carry distinct operands.
struct Inputs {
  catrsm::la::Matrix l;                 // resident lower-triangular operand
  std::vector<catrsm::la::Matrix> as;   // per-request SPD operands
  std::vector<catrsm::la::Matrix> bs;   // per-request right-hand sides
};
Inputs make_inputs(const Workload& w, std::uint64_t seed, int pool);

/// One resident server: a Context with the workload's plan and, for the
/// triangular workloads, L uploaded once. Pinned (Context is immovable).
struct Server {
  explicit Server(int p) : ctx(p) {}
  catrsm::api::Context ctx;
  std::shared_ptr<catrsm::api::Plan> plan;
  catrsm::api::DistHandle hl;
};
std::unique_ptr<Server> open_server(const Workload& w, const Inputs& in);

/// Modeled cost of one request: a function of the shape only.
struct Modeled {
  double time = 0, msgs = 0, words = 0, flops = 0;
  bool operator==(const Modeled&) const = default;
};
Modeled modeled_of(const catrsm::sim::RunStats& s);

/// One served request, stamped when each step ends: t[0] plan lookup,
/// t[1] upload, t[2] execute_dist, t[3] download (and handle release),
/// t[4] verification. The request's latency is t[3] - t0; verification is
/// outside it.
struct Sample {
  Clock::time_point t0;
  Clock::time_point t[5];
  catrsm::sim::RunStats stats;
  bool ok = false;
  std::string error;  // what() of a thrown request, empty otherwise

  double latency_s() const { return seconds_between(t0, t[3]); }
};

/// Serve request `i` (operands cycle through `in`) and verify its output
/// against a relative residual bound. Never throws: a throwing request
/// comes back with ok == false and its message.
Sample serve(Server& s, const Workload& w, const Inputs& in, std::size_t i);

// --- Layer probes --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Time the la, sim, coll and dist layers' public functions at the
/// workload's own p and shapes (derived from the server's plan config),
/// on the server's machine.
std::vector<Metric> layer_probes(Server& s, const Workload& w);

/// Fixed-shape (256^3) single-threaded GEMM rate: a host-speed reference
/// that tells a slow host period apart from a code regression.
double ref_gemm_gflops(catrsm::sim::Machine& m);

// --- Span recorder ------------------------------------------------------------

/// In-memory spans of the traced blocks, written once at exit as Chrome
/// trace-event JSON (chrome://tracing, ui.perfetto.dev).
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}
  /// Record one request: a "request" span with api.plan, api.upload,
  /// api.execute, api.download and verify children sharing its id.
  void record(std::uint64_t req, const Sample& s);
  bool write_chrome_json(const std::string& path) const;

  /// Durations (seconds) of every recorded child span called `name`.
  std::vector<double> durations(const std::string& name) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t req;
    const char* parent;  // nullptr for the root "request" span
    Clock::time_point t0, t1;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

// catrsm serving benchmark: one client thread, one request in flight (a
// closed loop). A request resolves the workload's plan, uploads its
// operands, runs Plan::execute_dist and downloads the result; every output
// is verified against a residual bound outside the timed interval.
//
//   catrsm_perfbench --workload tall_panel --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves traced
// and untraced blocks, probes each layer at the workload's shapes and
// prints the per-layer metrics (spans go to --trace-out as Chrome
// trace-event JSON). The last line of stdout is the JSON result; lines
// starting with '#' before it describe the run.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "la/kernel/kernel.hpp"
#include "la/kernel/pool.hpp"
#include "model/costs.hpp"
#include "model/tuning.hpp"
#include "sim/handle_store.hpp"
#include "sim/scheduler.hpp"
#include "sim/slab.hpp"

namespace {

using namespace perfbench;
namespace sim = catrsm::sim;

// Distinct (A, B) operand sets a run cycles through.
constexpr int kPool = 8;
// Fresh set-ups per run; setup_s is their median. At least kMinSetups,
// then more until kSetupBudget seconds have passed (at most kMaxSetups).
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 31;
constexpr double kSetupBudget = 2.5;
// Post-idle ramp: simulator work runs up to ~2.5x slower for the first
// ~1.5 s after the host idled. Warm-up serves requests in windows until
// kMinWarmup has passed and the last kStableWindows window medians agree
// within kStableTol (or kMaxWarmup passes).
constexpr double kMinWarmup = 2.0;
constexpr double kMaxWarmup = 5.0;
constexpr double kWindow = 0.25;
constexpr std::size_t kWindowMinRequests = 8;
constexpr int kStableWindows = 3;
constexpr double kStableTol = 0.05;
// Traced runs alternate untraced and traced blocks of this length, so
// both sides of the tracing-overhead difference see the same host.
constexpr double kTraceBlock = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: catrsm_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "workloads:",
               msg);
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes s > 0");
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (key == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// Requests attempted and failed (thrown or failed verification).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  void add(const Sample& s) {
    ++attempted;
    if (s.ok) return;
    ++failed;
    if (first_error.empty()) first_error = s.error;
  }
};

/// Modeled S, W, F and critical time depend on the shape only: every
/// request of one kind must repeat them exactly, across seeds too.
class Gate {
 public:
  explicit Gate(const char* what) : what_(what) {}
  void check(const Sample& s) {
    if (!s.ok) return;
    const Modeled m = modeled_of(s.stats);
    if (!ref_) {
      ref_ = m;
    } else if (!(m == *ref_) && ok_) {
      ok_ = false;
      std::fprintf(stderr,
                   "error: %s request modeled cost changed: T %.17g -> %.17g, "
                   "S %.17g -> %.17g, W %.17g -> %.17g, F %.17g -> %.17g\n",
                   what_, ref_->time, m.time, ref_->msgs, m.msgs,
                   ref_->words, m.words, ref_->flops, m.flops);
    }
  }
  bool ok() const { return ok_; }
  Modeled ref() const { return ref_.value_or(Modeled{}); }

 private:
  const char* what_;
  std::optional<Modeled> ref_;
  bool ok_ = true;
};

/// True when the request's run inverted diagonal blocks.
bool has_inversion(const sim::RunStats& s) {
  const sim::Cost c = s.phase_cost("inversion");
  return c.msgs > 0 || c.flops > 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Successful requests of one side of the timed loop.
struct Served {
  std::vector<double> latency;  // seconds
  std::vector<double> start;    // seconds into the loop
  std::size_t requests = 0;     // attempted, failed ones included
  std::size_t inverting = 0;    // requests whose run inverted diagonal blocks
  double rate() const {
    double sum = 0;
    for (double l : latency) sum += l;
    return ratio(static_cast<double>(latency.size()), sum);
  }
};

/// The serving state of one run: a resident server, the request counter
/// and the correctness bookkeeping every served request passes through.
struct Run {
  const Workload& w;
  const Inputs in;
  std::unique_ptr<Server> server;
  Tally tally;
  Gate cold{"cold"};  // first request on a fresh server: inverts
  Gate warm{"warm"};  // every later request
  std::size_t next = 0;

  Run(const Workload& wl, std::uint64_t seed)
      : w(wl), in(make_inputs(wl, seed, kPool)), server(open_server(wl, in)) {}

  Sample serve_next() {
    Sample s = serve(*server, w, in, next);
    tally.add(s);
    (next == 0 ? cold : warm).check(s);
    ++next;
    return s;
  }

  /// Serve requests in windows until the host has left its post-idle
  /// ramp; returns the seconds spent.
  double warm_up() {
    std::vector<double> medians;
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      std::vector<double> lat;
      const Clock::time_point w0 = Clock::now();
      while (seconds_between(w0, Clock::now()) < kWindow ||
             lat.size() < kWindowMinRequests)
        lat.push_back(serve_next().latency_s());
      medians.push_back(median(lat));
      const double elapsed = seconds_between(t0, Clock::now());
      if (elapsed >= kMaxWarmup) return elapsed;
      if (elapsed < kMinWarmup ||
          medians.size() < static_cast<std::size_t>(kStableWindows))
        continue;
      const auto [lo, hi] =
          std::minmax_element(medians.end() - kStableWindows, medians.end());
      if (*hi <= *lo * (1 + kStableTol)) return elapsed;
    }
  }

  /// Fresh set-ups, each on its own seed's operands: Context, plan,
  /// resident upload and the first (cold) request. Returns their times.
  /// Each fresh server also serves one warm request for the gates.
  std::vector<double> set_ups(std::uint64_t seed) {
    std::vector<double> times;
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kMaxSetups; ++j) {
      if (j >= kMinSetups && seconds_between(t0, Clock::now()) > kSetupBudget)
        break;
      const Inputs sin =
          make_inputs(w, seed + 7919 * static_cast<std::uint64_t>(j + 1), 2);
      const Clock::time_point s0 = Clock::now();
      std::unique_ptr<Server> fresh = open_server(w, sin);
      const Sample first = serve(*fresh, w, sin, 0);
      times.push_back(seconds_between(s0, first.t[3]));
      tally.add(first);
      cold.check(first);
      const Sample second = serve(*fresh, w, sin, 1);
      tally.add(second);
      warm.check(second);
    }
    return times;
  }
};

void print_window_rates(const Served& s, double seconds) {
  std::vector<double> busy(static_cast<std::size_t>(seconds) + 1);
  std::vector<int> count(busy.size());
  for (std::size_t i = 0; i < s.latency.size(); ++i) {
    const auto wi =
        std::min(busy.size() - 1, static_cast<std::size_t>(s.start[i]));
    busy[wi] += s.latency[i];
    ++count[wi];
  }
  std::printf("# solves_per_s by 1 s window:");
  for (std::size_t i = 0; i < busy.size(); ++i)
    if (count[i] > 0) std::printf(" %.1f", count[i] / busy[i]);
  std::printf("\n");
}

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload& w = *wp;
  const Clock::time_point origin = Clock::now();

  Run run(w, args.seed);
  Server& srv = *run.server;
  const catrsm::model::Config& cfg = srv.plan->config();
  std::printf("# workload %s: p=%d n=%lld k=%lld regime=%s algorithm=%s "
              "p1=%d p2=%d nblocks=%d pr=%d pc=%d\n",
              w.name, w.p, static_cast<long long>(w.desc.n),
              static_cast<long long>(w.desc.k),
              catrsm::model::regime_name(cfg.regime),
              catrsm::model::algorithm_name(cfg.algorithm), cfg.p1, cfg.p2,
              cfg.nblocks, cfg.pr, cfg.pc);

  const double warmup_s = run.warm_up();
  const double ref_gflops = ref_gemm_gflops(srv.ctx.machine());
  std::printf("# warm-up %.2f s; host.ref_gemm_gflops %.3f\n", warmup_s,
              ref_gflops);
  std::printf("# threads: sim workers %d, kernel pool %d, nproc %u; "
              "kernel backend %s\n",
              srv.ctx.scheduler().workers(),
              catrsm::la::kernel::ThreadPool::instance().size(),
              std::thread::hardware_concurrency(),
              catrsm::la::kernel::backend_name());
  const std::vector<double> setups = run.set_ups(args.seed);

  // --- Timed closed loop. A traced run alternates untraced and traced
  // blocks; only traced blocks record spans.
  const std::uint64_t runs0 = srv.ctx.scheduler().runs();
  const sim::SlabPoolStats slab0 = sim::slab_pool_stats();
  const catrsm::api::CacheStats cache0 = srv.ctx.cache_stats();
  SpanRecorder spans(origin);
  Served plain, traced;
  sim::RunStats last_stats;
  const Clock::time_point loop0 = Clock::now();
  auto running = [&] { return seconds_between(loop0, Clock::now()) < args.seconds; };
  for (std::uint64_t block = 0; running(); ++block) {
    const bool trace_block = args.trace && block % 2 == 1;
    Served& side = trace_block ? traced : plain;
    const Clock::time_point b0 = Clock::now();
    while (running() &&
           (!args.trace || seconds_between(b0, Clock::now()) < kTraceBlock)) {
      const std::uint64_t id = run.next;
      Sample s = run.serve_next();
      ++side.requests;
      if (!s.ok) continue;
      side.latency.push_back(s.latency_s());
      side.start.push_back(seconds_between(loop0, s.t0));
      if (has_inversion(s.stats)) ++side.inverting;
      if (trace_block) spans.record(id, s);
      last_stats = std::move(s.stats);
    }
  }
  const Tally& tally = run.tally;
  const bool correct = tally.failed == 0 && run.cold.ok() && run.warm.ok();
  if (!tally.first_error.empty())
    std::fprintf(stderr, "error: first failed request: %s\n",
                 tally.first_error.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const Modeled m = run.warm.ref();
    print_window_rates(plain, args.seconds);
    std::printf("# setup_s is the median of %zu fresh set-ups\n",
                setups.size());
    metrics = {
        {"solves_per_s", plain.rate(), "1/s"},
        {"solve_ms_p50", 1e3 * quantile(plain.latency, 0.5), "ms"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"ok_frac",
         1.0 - ratio(static_cast<double>(tally.failed),
                     static_cast<double>(tally.attempted)),
         "ratio"},
        {"modeled_time_us", 1e6 * m.time, "sim_us"},
        {"modeled_msgs", m.msgs, "count"},
        {"modeled_words", m.words, "words"},
    };
  } else {
    const double served =
        static_cast<double>(plain.requests + traced.requests);
    const sim::SlabPoolStats slab1 = sim::slab_pool_stats();
    const catrsm::api::CacheStats cache1 = srv.ctx.cache_stats();
    const double slab_hits = static_cast<double>(slab1.hits - slab0.hits);
    const double plan_hits = static_cast<double>(cache1.hits - cache0.hits);
    const auto p50 = [&](const char* span) {
      return median(spans.durations(span));
    };
    // p90 of the untraced blocks: too noisy across runs to gate as an
    // end-to-end metric on a shared host.
    const std::size_t n = plain.latency.size();
    std::printf("# solve_ms_p90 from %zu samples, %zu beyond it\n", n,
                n - static_cast<std::size_t>(0.9 * static_cast<double>(n)));
    metrics = {
        {"solve_ms_p90", 1e3 * quantile(plain.latency, 0.9), "ms"},
        {"api.plan_hit_us", 1e6 * p50("api.plan"), "us"},
        {"api.upload_ms", 1e3 * p50("api.upload"), "ms"},
        {"api.execute_ms", 1e3 * p50("api.execute"), "ms"},
        {"api.download_ms", 1e3 * p50("api.download"), "ms"},
        {"verify_ms", 1e3 * p50("verify"), "ms"},
        {"api.plan_cache_hit_ratio",
         ratio(plan_hits, plan_hits + static_cast<double>(cache1.misses -
                                                          cache0.misses)),
         "ratio"},
        {"api.diag_reuse_ratio",
         1.0 - ratio(static_cast<double>(plain.inverting + traced.inverting),
                     served),
         "ratio"},
        {"sim.runs_per_solve",
         ratio(static_cast<double>(srv.ctx.scheduler().runs() - runs0), served),
         "count"},
        {"sim.slab_hit_ratio",
         ratio(slab_hits,
               slab_hits + static_cast<double>(slab1.misses - slab0.misses)),
         "ratio"},
        {"sim.handle_resident_mib",
         static_cast<double>(srv.ctx.machine().handle_store().resident_bytes()) /
             (1024.0 * 1024.0),
         "MiB"},
        {"trace.traced_solves_per_s", traced.rate(), "1/s"},
        {"trace.overhead_solves_per_s", traced.rate() - plain.rate(), "1/s"},
        {"host.ref_gemm_gflops", ref_gflops, "GFLOP/s"},
        {"host.warmup_s", warmup_s, "s"},
    };
    static const std::pair<const char*, const char*> kPhases[] = {
        {"trsm", "inversion"},      {"trsm", "solve"},
        {"trsm", "update"},         {"factor", "cholesky"},
        {"factor", "forward-trsm"}, {"factor", "backward-trsm"},
    };
    for (const auto& [layer, phase] : kPhases) {
      const sim::Cost c = last_stats.phase_cost(phase);
      const std::string base = std::string(layer) + "." + phase;
      metrics.push_back({base + ".msgs", c.msgs, "count"});
      metrics.push_back({base + ".words", c.words, "words"});
      metrics.push_back({base + ".flops", c.flops, "flops"});
    }
    for (Metric& m : layer_probes(srv, w)) metrics.push_back(std::move(m));
    if (!args.trace_out.empty()) {
      if (spans.write_chrome_json(args.trace_out))
        std::printf("# spans written to %s\n", args.trace_out.c_str());
      else
        std::fprintf(stderr, "warning: cannot write %s\n",
                     args.trace_out.c_str());
    }
  }
  print_result(correct, tally, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

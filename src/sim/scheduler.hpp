#pragma once
// Persistent rank scheduler backing Machine::run / Machine::run_async.
//
// The seed execution model spawned and joined p fresh OS threads on every
// run, so m Plan::execute calls at p ranks paid m*p thread start-ups —
// and, worse, every blocked receive cost a kernel context switch.
// Production machines simulate p = 64+ ranks on a handful of
// cores, where that kernel churn dominates wall-clock while the cost
// model charges nothing for it.
//
// The scheduler therefore runs ranks as cooperative FIBERS multiplexed
// over a small pool of persistent worker threads (min(p, hardware cores)
// by default; override with CATRSM_SIM_WORKERS). On x86-64 the switch is
// a ~20-instruction register save/restore; elsewhere it falls back to
// ucontext swapcontext. The distinction matters more than it sounds:
// glibc's swapcontext makes an rt_sigprocmask SYSCALL on every switch to
// save the signal mask, and at simulator message sizes that syscall was
// measured at >90% of total run CPU. Ranks never touch per-fiber signal
// masks, so the fast path skips the mask entirely and keeps switches in
// user space.
// A receive that would block yields the fiber back to its worker — a
// user-space context switch — and the worker runs the next runnable
// rank; a worker parks on its condition variable only when every fiber
// it owns is blocked on a message from another worker. Workers are
// created once; fiber stacks live in a freelist and are reused.
//
// Concurrency: submit() dispatches one SUBMISSION (p rank tasks) and
// returns immediately; several submissions can be in flight at once,
// their fibers interleaved on the same workers. A worker that would
// otherwise park because every fiber of run A is blocked instead runs
// runnable fibers of run B — that overlap is where multi-stream
// throughput comes from. run() is submit() + wait().
//
// Fallback: under Thread- or AddressSanitizer (which cannot track
// ucontext stack switches without fiber annotations), on non-Linux
// hosts, or with CATRSM_SIM_FIBERS=0, the scheduler degrades to one
// persistent worker thread per rank with condition-variable blocking —
// same semantics, same persistence, kernel-scheduled. Concurrent
// submissions enqueue FIFO per worker there, so a later submission's
// rank task runs on worker i only after earlier tasks on worker i
// finished; cross-rank blocking still never deadlocks because every
// rank has its own worker (W == p in that backend).
//
// Worker/fiber assignment is static: rank i always lives on worker
// i % W (NOT necessarily worker i — there are fewer workers than ranks
// in the fiber backend), so each rank's thread identity is stable across
// runs — tests assert reuse by capturing std::this_thread::get_id()
// inside consecutive runs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace catrsm::sim {

class RankScheduler {
 public:
  /// One in-flight dispatch of p rank tasks. Opaque: create via submit(),
  /// query via RankScheduler::wait / done.
  class Submission {
   private:
    friend class RankScheduler;
    std::function<void(int)> job;
    /// Invoked on a worker thread when the last rank task finishes,
    /// BEFORE waiters are released — when wait() returns, the callback
    /// has completed.
    std::function<void()> on_complete;
    std::atomic<int> remaining{0};
    mutable std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  using SubmissionPtr = std::shared_ptr<Submission>;

  /// Start the worker pool for p ranks (workers park until the first run).
  explicit RankScheduler(int p);
  /// Wakes and joins every worker. All submissions must have completed.
  ~RankScheduler();

  RankScheduler(const RankScheduler&) = delete;
  RankScheduler& operator=(const RankScheduler&) = delete;

  int size() const { return p_; }
  /// Number of OS worker threads backing the p ranks.
  int workers() const { return static_cast<int>(workers_.size()); }
  /// True when ranks run as cooperative fibers (false: thread-per-rank).
  bool fibers() const { return use_fibers_; }

  /// Dispatch job(i) for every i in [0, p) as one submission and return
  /// immediately; rank i runs on worker i % W, interleaved with any other
  /// in-flight submissions. The job must not throw (Machine wraps the
  /// rank body with its own error capture; a leak here aborts the run).
  /// Must not be called from inside a fiber. `on_complete` (optional)
  /// fires on a worker thread when the last rank finishes.
  SubmissionPtr submit(std::function<void(int)> job,
                       std::function<void()> on_complete = nullptr);
  /// Block until every rank task of `sub` finished.
  void wait(const SubmissionPtr& sub);
  /// True once every rank task of `sub` finished.
  static bool done(const SubmissionPtr& sub);

  /// submit() + wait(): execute job(i) for every i in [0, p) and block
  /// until all ranks finish.
  void run(const std::function<void(int)>& job);

  /// Number of completed submissions since construction.
  std::uint64_t runs() const {
    return completed_.load(std::memory_order_acquire);
  }

  // --- Cooperative blocking hooks (used by Machine's mailboxes) -----------
  /// Opaque handle of the calling fiber; nullptr when the caller is not a
  /// scheduler fiber (thread backend, or outside run()).
  static void* current_fiber();
  /// Park the calling fiber until wake_fiber(); returns immediately when
  /// a wake already arrived. Only valid when current_fiber() != nullptr.
  static void block_current_fiber();
  /// Mark a parked fiber runnable again (safe from any thread). A stale
  /// wake on a fiber that has since finished or been recycled is benign:
  /// it at worst causes one spurious wakeup, and blocked receives re-check
  /// their condition.
  static void wake_fiber(void* fiber);

 private:
  struct Fiber;
  struct Worker;
  struct Task;  // thread backend: one queued (submission, rank) pair

  void worker_loop(Worker& w);
  void thread_worker_loop(Worker& w);
  void fiber_worker_loop(Worker& w);
  void complete_task(const SubmissionPtr& sub);
  static void fiber_trampoline(unsigned int hi, unsigned int lo);
  /// Fast-swap fiber body: invoked by the assembly entry thunk with the
  /// Fiber* seeded into the initial stack frame; runs the rank job and
  /// switches back to the owning worker. Never returns.
  static void fiber_main(void* fiber);

  int p_;
  bool use_fibers_;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::mutex submit_mu_;  // serializes submissions (FIFO order per worker)
  std::mutex free_mu_;    // guards the fiber freelist
  std::vector<std::unique_ptr<Fiber>> all_fibers_;  // owns every fiber ever made
  std::vector<Fiber*> free_fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace catrsm::sim

#pragma once
// Packed, register-tiled GEMM micro-kernel layer (BLIS-style).
//
// The flop substrate of every distributed algorithm in this repo is the
// sequential la:: routines, and those now bottom out here: a strided GEMM
// driver packs panels of A and B into contiguous MR- / NR-wide tiles and
// streams them through a small register-tiled inner kernel. The whole
// layer is double precision, like every algorithm above it. Each backend
// (portable scalar 4x8, AVX2/FMA 6x8, AVX-512F 8x16) carries one inner
// kernel, selected once per process by CPU detection and overridable with
// CATRSM_KERNEL=scalar|avx2|avx512.
//
// Large products additionally fan out over a persistent worker pool
// (kernel/pool.hpp, CATRSM_KERNEL_THREADS) as ONE team dispatch per gemm
// call: the B panel is packed cooperatively into a single shared buffer,
// then each thread owns a contiguous band of C rows — packing its own A
// panels and running every jr strip of its band — with spin barriers
// between the phases. The split only decides which thread computes an
// element, never what it computes, so results are bit-identical at any
// pool size. The pool composes with the simulator rather than fighting
// it: calls issued from inside a simulated rank (exec::in_sim_rank())
// always run single-threaded, because sim::RankScheduler already
// multiplexes the p ranks over the physical cores — only direct/library
// callers fan out.
//
// Single-core micro-wins: the inner kernels software-prefetch the packed
// panels a few iterations ahead, and when beta == 0 with a single
// K-blocking pass the C tile is written with plain (or, for a C that
// exceeds the LLC, non-temporal) stores instead of read-modify-write —
// same values to the bit, less traffic. CATRSM_KERNEL_NT=0|1 overrides
// the size heuristic.
//
// Modeled costs (S, W, F) are charged by the distributed layers from
// closed-form flop formulas, so nothing in this layer affects the
// simulator's accounting.

#include "la/matrix.hpp"

namespace catrsm::la::kernel {

enum class Backend { kScalar, kAvx2, kAvx512 };

/// A register-tiled inner kernel: accumulates an mr x nr tile of C from
/// packed panels,
///
///   c[i*ldc + j] += sum_l ap[l*mr + i] * bp[l*nr + j]   (l = 0..kc)
///
/// where ap is an A panel packed column-major within an mr-row strip and
/// bp is a B panel packed row-major within an nr-column strip.
///
/// run_store writes the tile instead of accumulating (c = tile; C may be
/// uninitialized), used when beta == 0 and the K loop has a single
/// blocking pass. run_nt is the same with non-temporal stores (bypassing
/// the cache for a C that would only pollute it); it requires c and ldc
/// scaled by sizeof(double) to be 64-byte aligned and may be null
/// (driver falls back to run_store). All three compute bit-identical
/// values — only the store instruction differs.
struct MicroKernel {
  Backend backend;
  const char* name;
  int mr;
  int nr;
  void (*run)(index_t kc, const double* ap, const double* bp, double* c,
              index_t ldc);
  void (*run_store)(index_t kc, const double* ap, const double* bp, double* c,
                    index_t ldc);
  void (*run_nt)(index_t kc, const double* ap, const double* bp, double* c,
                 index_t ldc);
};

/// The micro-kernel the process dispatched to (resolved once, thread-safe).
/// Order of precedence: CATRSM_KERNEL env var if set and usable, else the
/// widest ISA the CPU supports. An unusable override warns on stderr and
/// falls back rather than aborting.
const MicroKernel& active_microkernel();
Backend active_backend();
const char* backend_name();

/// Kernel for a specific backend, or nullptr when it was compiled out
/// (non-x86 build). Does not check CPU support — see cpu_supports().
const MicroKernel* microkernel_for(Backend b);

/// Whether the running CPU can execute this backend's instructions.
bool cpu_supports(Backend b);

/// Strided row-major GEMM: C = alpha * A * B + beta * C.
/// A: m x k (leading dim lda), B: k x n (ldb), C: m x n (ldc).
/// C must not alias the regions of A or B that are read.
/// Small products take a branch-free naive loop (packing would dominate);
/// everything else goes through the packed micro-kernel path.
void gemm(index_t m, index_t n, index_t k, double alpha, const double* a,
          index_t lda, const double* b, index_t ldb, double beta, double* c,
          index_t ldc);

/// Same, forcing a specific micro-kernel and always taking the packed path
/// (no small-product shortcut). Test hook: lets one process run every
/// backend's tile, partial tiles included, on every edge shape.
void gemm_with(const MicroKernel& uk, index_t m, index_t n, index_t k,
               double alpha, const double* a, index_t lda, const double* b,
               index_t ldb, double beta, double* c, index_t ldc);

/// Non-temporal-store policy for the beta == 0 single-K-pass fast path:
/// by default C uses streaming stores when it exceeds a fixed
/// last-level-cache-sized threshold (and the alignment precondition
/// holds); CATRSM_KERNEL_NT=0 disables, =1 forces them for any size.
/// Values are bit-identical either way — the policy is purely a cache
/// hint. Test hook mirroring the env var: -1 restores the environment
/// setting, 0 forces off, 1 forces on.
void set_nt_for_testing(int mode);

}  // namespace catrsm::la::kernel

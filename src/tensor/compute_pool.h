#ifndef TELEKIT_TENSOR_COMPUTE_POOL_H_
#define TELEKIT_TENSOR_COMPUTE_POOL_H_

#include <functional>

namespace telekit {
class FlagSet;
namespace tensor {

/// Intra-op compute backend (DESIGN.md §3): a lazily-started, persistent
/// worker pool. Only the GEMM drivers of ops.cc fan out over it, and only
/// for a product of at least two chunks of kMinChunkFlops (2 MFLOP); every
/// other kernel is a plain loop, and no product at the model's shapes
/// reaches the floor.
///
/// Determinism contract: ParallelFor splits [0, n) into a fixed grid of
/// contiguous chunks of `grain` items that depends only on (n, grain) —
/// never on the thread count — and every chunk is executed by exactly one
/// thread. Kernels only write locations owned by their chunk and never
/// reorder per-location float accumulation, so results are bit-identical
/// across compute_threads settings and run-to-run; `1` is byte-for-byte
/// the serial loop.

/// Configured intra-op thread count (always >= 1). Resolved lazily on
/// first use: TELEKIT_COMPUTE_THREADS env when set and positive, else
/// std::thread::hardware_concurrency().
int ComputeThreads();

/// Overrides the thread count (the --compute-threads flag lands here).
/// n >= 1 sets it exactly; n == 0 restores the lazy default (env, then
/// hardware_concurrency). 1 disables fan-out entirely. Safe to call at any
/// time; surplus workers are joined, missing ones are spawned on the next
/// parallel region. Updates the tensor/compute_threads gauge.
void SetComputeThreads(int n);

/// Declares --compute-threads=N into `flags`; the value reaches
/// SetComputeThreads while parsing.
void AddComputeThreadsFlag(FlagSet* flags);

namespace internal {
/// ParallelFor's fan-out path: n > grain >= 1 and compute_threads > 1.
void RunParallel(int n, int grain, const std::function<void(int, int)>& body);
}  // namespace internal

/// Runs body(begin, end) over contiguous chunks of [0, n), each `grain`
/// items (the last may be short). Runs body(0, n) inline on the caller when
/// n <= grain, compute_threads == 1, or the pool is busy with another
/// region (concurrent serve workers fall back to serial — bit-identical by
/// the contract above); the first two cases cost no allocation. Increments
/// tensor/parallel_regions when it actually fans out. The body must not
/// recursively call ParallelFor.
template <typename Body>
void ParallelFor(int n, int grain, const Body& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (n <= grain || ComputeThreads() <= 1) {
    body(0, n);
    return;
  }
  internal::RunParallel(n, grain, body);
}

}  // namespace tensor
}  // namespace telekit

#endif  // TELEKIT_TENSOR_COMPUTE_POOL_H_

#pragma once

#include <functional>

#include "src/tensor/kernels/registry.h"

namespace pipemare::tensor::kernels {

void split_rows(int m, double flops, const std::function<void(int i0, int i1)>& fn);

/// Intra-op parallelism: splits the rows [0, m) of a GEMM output into
/// contiguous per-lane ranges and runs `fn(i0, i1)` on each lane, lane 0
/// on the calling thread. The lane count comes from
/// KernelRegistry::lanes(); the split engages only when lanes > 1 AND the
/// op's FLOP count clears KernelRegistry::intra_op_min_flops() — below
/// that the fork/join barrier costs more than it buys — otherwise fn runs
/// inline as fn(0, m).
///
/// Helper lanes live in a thread_local pool nested under
/// sched::WorkerPool, so a pipeline engine's W stage workers compose with
/// K lanes (W×K threads) without sharing any lane state across stages.
/// Row ranges are disjoint and every output element keeps its sequential
/// accumulation order, so any lane count produces bitwise-identical
/// results. With lanes off, fn runs inline and unwrapped (split_rows
/// takes the std::function), so a GEMM allocates nothing to dispatch.
template <class Fn>
void parallel_rows(int m, double flops, const Fn& fn) {
  if (KernelRegistry::lanes() <= 1) {
    fn(0, m);
  } else {
    split_rows(m, flops, fn);
  }
}

}  // namespace pipemare::tensor::kernels

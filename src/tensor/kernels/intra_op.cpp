#include "src/tensor/kernels/intra_op.h"

#include <cstdint>
#include <memory>

#include "src/sched/worker_pool.h"
#include "src/tensor/kernels/registry.h"

namespace pipemare::tensor::kernels {

namespace {

/// K-lane fork/join pool: K-1 helper threads from a sched::WorkerPool
/// plus the caller as lane 0. The slice function is published as a plain
/// member under WorkerPool's generation-barrier memory contract (owner
/// writes before begin_generation are visible to every body; body writes
/// are visible after wait_generation), so no extra synchronization is
/// needed — same single-writer pattern the pipeline engines use.
class LanePool {
 public:
  explicit LanePool(int lanes)
      : lanes_(lanes),
        pool_(lanes - 1, [this](int worker) { (*fn_)(worker + 1, lanes_); }) {}

  int lanes() const { return lanes_; }

  void run(const std::function<void(int lane, int lanes)>& fn) {
    fn_ = &fn;
    pool_.begin_generation();
    fn(0, lanes_);
    pool_.wait_generation();
  }

 private:
  int lanes_;
  const std::function<void(int, int)>* fn_ = nullptr;
  sched::WorkerPool pool_;
};

}  // namespace

void split_rows(int m, double flops, const std::function<void(int i0, int i1)>& fn) {
  int lanes = KernelRegistry::lanes();
  if (lanes > m) lanes = m;
  if (lanes <= 1 ||
      flops < static_cast<double>(KernelRegistry::intra_op_min_flops())) {
    fn(0, m);
    return;
  }

  // One pool per calling thread: stage workers never contend on a shared
  // pool, and the helper threads die with their owner thread.
  thread_local std::unique_ptr<LanePool> pool;
  if (!pool || pool->lanes() != lanes) {
    pool = std::make_unique<LanePool>(lanes);
  }

  pool->run([m, &fn](int lane, int total) {
    auto rows = static_cast<std::int64_t>(m);
    int i0 = static_cast<int>(rows * lane / total);
    int i1 = static_cast<int>(rows * (lane + 1) / total);
    if (i0 < i1) fn(i0, i1);
  });
}

}  // namespace pipemare::tensor::kernels

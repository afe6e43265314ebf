#pragma once

// Outside-in per-layer replay of the sequential pipeline engine's training
// step, built from public calls only: WeightVersions assembly, one
// Model::forward_range / backward_range call per module, the loss head, the
// optimizer step and commit_update, each timed. The replay performs the
// same arithmetic in the same order as the "sequential" backend driven by
// core::train_loop, so over the same batches it must end bitwise-equal in
// weights (the fidelity check), while its spans attribute the step's wall
// time to layers.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/nn/model.h"

namespace perfbench {

/// Module kinds the per-layer metrics are grouped by.
inline constexpr std::array<const char*, 9> kModuleKinds = {
    "Conv2d",         "BatchNorm2d", "Linear",   "MultiHeadAttention", "LayerNorm",
    "TokenEmbedding", "ReLU",        "Residual", "Other"};

/// Per-kind totals over all replayed steps (or forward batches).
struct KindTotals {
  double fwd_ns = 0.0;
  double bwd_ns = 0.0;
  double flops = 0.0;  ///< Module::cost forward (+ backward) FLOPs executed
};

struct ReplayResult {
  int steps = 0;
  bool finite = true;
  std::array<KindTotals, kModuleKinds.size()> kinds{};
  // Totals over all steps, nanoseconds.
  double minibatch_ns = 0.0;
  double assemble_fwd_ns = 0.0;
  double assemble_bwd_ns = 0.0;
  double head_ns = 0.0;
  double grad_buffer_ns = 0.0;  ///< zeroing + the 1/N scale sweep
  double optim_ns = 0.0;        ///< lr segments + Optimizer::step
  double commit_ns = 0.0;
  double wall_ns = 0.0;         ///< whole replayed steps, end to end
  std::uint64_t gemm_calls = 0;
  std::vector<float> weights;   ///< live weights after the last step

  double covered_ns() const;
};

/// Replays `batches` (minibatch index lists, in order) from a fresh model
/// initialized exactly as a backend created with `cfg.seed` would be.
/// Supports the configurations the benchmark trains: PipeMare/PipeDream/
/// Sync, optional T2, no recomputation, no T1, no gradient clipping, a
/// constant learning rate.
ReplayResult replay_training(const pipemare::core::Task& task,
                             const pipemare::core::TrainerConfig& cfg,
                             const std::vector<std::vector<int>>& batches);

/// Forward-only replay for serving: `reps` forwards of `input` through
/// `weights`, one forward_range call per module. Only the kind forward
/// times, flops, gemm_calls and wall_ns are filled.
ReplayResult replay_forward(const pipemare::nn::Model& model,
                            const std::vector<float>& weights,
                            const pipemare::nn::Flow& input, int reps);

}  // namespace perfbench

#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace pipemare::optim {

/// A contiguous parameter range sharing one learning rate. Technique 1
/// assigns each pipeline stage its own step size, so optimizers take a
/// list of these instead of a single scalar.
struct LrSegment {
  std::int64_t offset = 0;
  std::int64_t size = 0;
  double lr = 0.0;
};

/// Flat-vector optimizer interface.
///
/// One update is begin_step(n) followed by step_range over ranges that
/// tile [0, n); step() is that sequence for a list of segments. A
/// pipeline engine instead steps each stage's slice on the worker that
/// finished the stage's last backward, so step_range may run concurrently
/// on disjoint ranges (begin_step and every step_range of one update
/// must be ordered by the caller). State is keyed by the weight's offset,
/// and every weight's update reads only its own state, so a split update
/// is bitwise-equal to step().
///
/// State buffers (momentum, Adam moments) are owned by the optimizer and
/// sized by begin_step. `state_copies()` reports how many weight-sized
/// buffers the optimizer keeps — the quantity the paper's
/// "weight + optimizer memory" column counts (weights + gradient buffer +
/// optimizer state; +1 more for the T2 velocity buffer).
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update in place given gradients and per-segment LRs:
  /// begin_step(params.size()), then step_range per segment. Segments
  /// must tile [0, params.size()).
  void step(std::span<float> params, std::span<const float> grads,
            std::span<const LrSegment> lr);

  /// Starts one update over `n` weights: sizes the state (resetting it if
  /// `n` changed) and advances the step count.
  virtual void begin_step(std::size_t n) = 0;

  /// Applies the begun update to params[seg.offset, seg.offset + seg.size)
  /// with learning rate seg.lr. `params` and `grads` are the full-size
  /// flat vectors. Safe to call concurrently on disjoint ranges.
  virtual void step_range(std::span<float> params, std::span<const float> grads,
                          const LrSegment& seg) = 0;

  /// Number of weight-sized state buffers (excluding weights and grads).
  virtual int state_copies() const = 0;

  virtual void reset() = 0;
};

/// SGD with (PyTorch-convention) heavy-ball momentum and L2 regularization:
/// g' = g + wd * w;  v = mu * v + g';  w -= lr * v.
class SgdMomentum : public Optimizer {
 public:
  explicit SgdMomentum(double momentum = 0.9, double weight_decay = 0.0);

  void begin_step(std::size_t n) override;
  void step_range(std::span<float> params, std::span<const float> grads,
                  const LrSegment& seg) override;
  int state_copies() const override { return momentum_ > 0.0 ? 1 : 0; }
  void reset() override;

 private:
  double momentum_;
  double weight_decay_;
  std::vector<float> velocity_;
};

/// AdamW with decoupled weight decay (Loshchilov & Hutter), the optimizer
/// the paper uses for the Transformer experiments.
class AdamW : public Optimizer {
 public:
  AdamW(double beta1 = 0.9, double beta2 = 0.98, double eps = 1e-9,
        double weight_decay = 0.0);

  void begin_step(std::size_t n) override;
  void step_range(std::span<float> params, std::span<const float> grads,
                  const LrSegment& seg) override;
  int state_copies() const override { return 2; }
  void reset() override;

 private:
  double beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  double bc1_ = 1.0, bc2_ = 1.0;  ///< bias corrections of the begun step
  std::vector<float> m_, v_;
};

/// Global gradient-norm clipping (the Transformer recipe clips at 25).
/// Returns the pre-clip norm.
double clip_grad_norm(std::span<float> grads, double max_norm);

}  // namespace pipemare::optim

#include "src/optim/optimizer.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/tensor/kernels/simd.h"

// The step_range loops below are vectorized (PIPEMARE_SIMD over
// __restrict locals) and stay bitwise-equal to a scalar loop: each weight's
// update is an independent chain of double-precision mul/add/div/sqrt,
// all of which the packed SSE2/AVX instructions round exactly like their
// scalar forms. CMake compiles this file with -fno-math-errno so std::sqrt
// lowers to sqrtpd instead of a scalar libm call guarded for errno; never
// -ffast-math or -mfma, which would reassociate or fuse.

namespace pipemare::optim {

namespace {

/// Checks one step_range call's sizes and returns its [lo, hi) bounds.
std::pair<std::size_t, std::size_t> range_of(std::span<float> params,
                                             std::span<const float> grads,
                                             const LrSegment& seg) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("optimizer: params/grads size mismatch");
  }
  if (seg.offset < 0 || seg.size < 0 ||
      static_cast<std::size_t>(seg.offset + seg.size) > params.size()) {
    throw std::out_of_range("optimizer: segment outside the parameter vector");
  }
  const auto lo = static_cast<std::size_t>(seg.offset);
  return {lo, lo + static_cast<std::size_t>(seg.size)};
}

/// A per-weight state buffer must have been sized by begin_step.
void require_state(std::size_t state, std::size_t n) {
  if (state != n) throw std::logic_error("optimizer: step_range before begin_step");
}

template <bool Momentum>
void sgd_range(float* __restrict w, const float* __restrict g, float* __restrict vel,
               std::size_t lo, std::size_t hi, double mu, double wd, double lr) {
  PIPEMARE_SIMD
  for (std::size_t i = lo; i < hi; ++i) {
    double gi = g[i] + wd * w[i];
    if constexpr (Momentum) {
      const double vi = mu * vel[i] + gi;
      vel[i] = static_cast<float>(vi);
      gi = vi;
    }
    w[i] -= static_cast<float>(lr * gi);
  }
}

}  // namespace

void Optimizer::step(std::span<float> params, std::span<const float> grads,
                     std::span<const LrSegment> lr) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument("optimizer: params/grads size mismatch");
  }
  begin_step(params.size());
  for (const LrSegment& seg : lr) step_range(params, grads, seg);
}

SgdMomentum::SgdMomentum(double momentum, double weight_decay)
    : momentum_(momentum), weight_decay_(weight_decay) {}

void SgdMomentum::begin_step(std::size_t n) {
  if (momentum_ > 0.0 && velocity_.size() != n) velocity_.assign(n, 0.0F);
}

void SgdMomentum::step_range(std::span<float> params, std::span<const float> grads,
                             const LrSegment& seg) {
  const auto [lo, hi] = range_of(params, grads, seg);
  if (momentum_ > 0.0) {
    require_state(velocity_.size(), params.size());
    sgd_range<true>(params.data(), grads.data(), velocity_.data(), lo, hi, momentum_,
                    weight_decay_, seg.lr);
  } else {
    sgd_range<false>(params.data(), grads.data(), nullptr, lo, hi, momentum_,
                     weight_decay_, seg.lr);
  }
}

void SgdMomentum::reset() { velocity_.clear(); }

AdamW::AdamW(double beta1, double beta2, double eps, double weight_decay)
    : beta1_(beta1), beta2_(beta2), eps_(eps), weight_decay_(weight_decay) {}

void AdamW::begin_step(std::size_t n) {
  if (m_.size() != n) {
    m_.assign(n, 0.0F);
    v_.assign(n, 0.0F);
    t_ = 0;
  }
  ++t_;
  bc1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void AdamW::step_range(std::span<float> params, std::span<const float> grads,
                       const LrSegment& seg) {
  const auto [lo, hi] = range_of(params, grads, seg);
  require_state(m_.size(), params.size());
  float* __restrict w = params.data();
  const float* __restrict g = grads.data();
  float* __restrict m = m_.data();
  float* __restrict v = v_.data();
  const double b1 = beta1_, c1 = 1.0 - beta1_;
  const double b2 = beta2_, c2 = 1.0 - beta2_;
  const double bc1 = bc1_, bc2 = bc2_, eps = eps_, wd = weight_decay_, lr = seg.lr;
  PIPEMARE_SIMD
  for (std::size_t i = lo; i < hi; ++i) {
    const double gi = g[i];
    const double mi = b1 * m[i] + c1 * gi;
    const double vi = b2 * v[i] + c2 * gi * gi;
    m[i] = static_cast<float>(mi);
    v[i] = static_cast<float>(vi);
    const double mhat = mi / bc1;
    const double vhat = vi / bc2;
    w[i] -= static_cast<float>(lr * (mhat / (std::sqrt(vhat) + eps) + wd * w[i]));
  }
}

void AdamW::reset() {
  m_.clear();
  v_.clear();
  t_ = 0;
}

double clip_grad_norm(std::span<float> grads, double max_norm) {
  double sq = 0.0;
  for (float g : grads) sq += static_cast<double>(g) * g;
  double norm = std::sqrt(sq);
  if (max_norm > 0.0 && norm > max_norm) {
    auto scale = static_cast<float>(max_norm / (norm + 1e-12));
    for (float& g : grads) g *= scale;
  }
  return norm;
}

}  // namespace pipemare::optim

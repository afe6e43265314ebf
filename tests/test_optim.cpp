#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "src/optim/optimizer.h"
#include "src/optim/schedule.h"
#include "src/optim/t1_reschedule.h"

namespace pipemare::optim {
namespace {

std::vector<LrSegment> whole(double lr, std::size_t n) {
  return {{0, static_cast<std::int64_t>(n), lr}};
}

TEST(SgdMomentum, PlainSgdStep) {
  SgdMomentum opt(0.0, 0.0);
  std::vector<float> w = {1.0F, -2.0F};
  std::vector<float> g = {0.5F, 1.0F};
  opt.step(w, g, whole(0.1, 2));
  EXPECT_NEAR(w[0], 0.95F, 1e-6F);
  EXPECT_NEAR(w[1], -2.1F, 1e-6F);
  EXPECT_EQ(opt.state_copies(), 0);
}

TEST(SgdMomentum, MomentumAccumulates) {
  // PyTorch convention: v = mu v + g, w -= lr v. Two identical steps:
  // step1: v=g, w -= lr g; step2: v = mu g + g, w -= lr (1+mu) g.
  SgdMomentum opt(0.9, 0.0);
  std::vector<float> w = {0.0F};
  std::vector<float> g = {1.0F};
  opt.step(w, g, whole(0.1, 1));
  EXPECT_NEAR(w[0], -0.1F, 1e-6F);
  opt.step(w, g, whole(0.1, 1));
  EXPECT_NEAR(w[0], -0.1F - 0.1F * 1.9F, 1e-6F);
  EXPECT_EQ(opt.state_copies(), 1);
}

TEST(SgdMomentum, WeightDecayAddsToGradient) {
  SgdMomentum opt(0.0, 0.1);
  std::vector<float> w = {2.0F};
  std::vector<float> g = {0.0F};
  opt.step(w, g, whole(0.5, 1));
  // g' = 0 + 0.1*2 = 0.2; w -= 0.5*0.2.
  EXPECT_NEAR(w[0], 1.9F, 1e-6F);
}

TEST(SgdMomentum, PerSegmentLearningRates) {
  SgdMomentum opt(0.0, 0.0);
  std::vector<float> w = {1.0F, 1.0F};
  std::vector<float> g = {1.0F, 1.0F};
  std::vector<LrSegment> segs = {{0, 1, 0.1}, {1, 1, 0.2}};
  opt.step(w, g, segs);
  EXPECT_NEAR(w[0], 0.9F, 1e-6F);
  EXPECT_NEAR(w[1], 0.8F, 1e-6F);
}

TEST(AdamW, FirstStepIsSignedLr) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  AdamW opt(0.9, 0.999, 1e-12, 0.0);
  std::vector<float> w = {0.0F, 0.0F};
  std::vector<float> g = {3.0F, -0.5F};
  opt.step(w, g, whole(0.01, 2));
  EXPECT_NEAR(w[0], -0.01F, 1e-5F);
  EXPECT_NEAR(w[1], 0.01F, 1e-5F);
  EXPECT_EQ(opt.state_copies(), 2);
}

TEST(AdamW, DecoupledWeightDecayShrinksWeights) {
  AdamW opt(0.9, 0.999, 1e-12, 0.1);
  std::vector<float> w = {1.0F};
  std::vector<float> g = {0.0F};
  opt.step(w, g, whole(0.01, 1));
  // Zero gradient: only the decoupled decay applies: w -= lr*wd*w.
  EXPECT_NEAR(w[0], 1.0F - 0.01F * 0.1F, 1e-6F);
}

TEST(AdamW, ConvergesOnQuadratic) {
  AdamW opt;
  std::vector<float> w = {5.0F};
  for (int i = 0; i < 3000; ++i) {
    std::vector<float> g = {w[0]};  // f = w^2/2
    opt.step(w, g, whole(0.01, 1));
  }
  EXPECT_NEAR(w[0], 0.0F, 0.02F);
}

// ---------------------------------------------------------------------------
// The vectorized step_range against the scalar loops it replaced
// ---------------------------------------------------------------------------

/// The scalar SGD loop step() ran before step_range was vectorized, kept
/// verbatim as the bitwise oracle.
struct ScalarSgd {
  double momentum_, weight_decay_;
  std::vector<float> velocity_;

  void step(std::span<float> params, std::span<const float> grads,
            std::span<const LrSegment> lr) {
    if (momentum_ > 0.0 && velocity_.size() != params.size()) {
      velocity_.assign(params.size(), 0.0F);
    }
    for (const LrSegment& seg : lr) {
      auto lo = static_cast<std::size_t>(seg.offset);
      auto hi = lo + static_cast<std::size_t>(seg.size);
      for (std::size_t i = lo; i < hi; ++i) {
        double g = grads[i] + weight_decay_ * params[i];
        if (momentum_ > 0.0) {
          double v = momentum_ * velocity_[i] + g;
          velocity_[i] = static_cast<float>(v);
          g = v;
        }
        params[i] -= static_cast<float>(seg.lr * g);
      }
    }
  }
};

/// The scalar AdamW loop, likewise.
struct ScalarAdamW {
  double beta1_, beta2_, eps_, weight_decay_;
  std::int64_t t_ = 0;
  std::vector<float> m_, v_;

  void step(std::span<float> params, std::span<const float> grads,
            std::span<const LrSegment> lr) {
    if (m_.size() != params.size()) {
      m_.assign(params.size(), 0.0F);
      v_.assign(params.size(), 0.0F);
      t_ = 0;
    }
    ++t_;
    double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (const LrSegment& seg : lr) {
      auto lo = static_cast<std::size_t>(seg.offset);
      auto hi = lo + static_cast<std::size_t>(seg.size);
      for (std::size_t i = lo; i < hi; ++i) {
        double g = grads[i];
        double m = beta1_ * m_[i] + (1.0 - beta1_) * g;
        double v = beta2_ * v_[i] + (1.0 - beta2_) * g * g;
        m_[i] = static_cast<float>(m);
        v_[i] = static_cast<float>(v);
        double mhat = m / bc1;
        double vhat = v / bc2;
        params[i] -= static_cast<float>(
            seg.lr * (mhat / (std::sqrt(vhat) + eps_) + weight_decay_ * params[i]));
      }
    }
  }
};

/// Values spanning the float range the loops must round exactly on: signed
/// zeros, denormals, tiny, ordinary and large magnitudes.
std::vector<float> hostile_values(std::size_t n, std::mt19937& rng) {
  static const float kSpecial[] = {0.0F,  -0.0F,   1e-40F, -3e-42F, 1e-30F,
                                   -7e-8F, 1e15F, -4e17F,  1e18F,   0.5F};
  std::normal_distribution<float> normal(0.0F, 1.0F);
  std::uniform_int_distribution<int> pick(0, 9);
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = pick(rng) < 3 ? kSpecial[static_cast<std::size_t>(pick(rng))] : normal(rng);
  }
  return x;
}

/// Three segments of distinct LRs with unaligned bounds.
std::vector<LrSegment> odd_segments() {
  return {{0, 301, 0.013}, {301, 402, 0.0021}, {703, 300, 0.05}};
}

/// Cuts [0, 1003) at unaligned points, some mid-segment, and returns the
/// pieces (each within one segment, carrying its LR) in a scrambled order.
std::vector<LrSegment> odd_pieces() {
  const std::vector<std::int64_t> cuts = {0, 1, 7, 150, 301, 302, 555, 703, 704, 1000, 1003};
  std::vector<LrSegment> pieces;
  for (const LrSegment& seg : odd_segments()) {
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
      const std::int64_t a = std::max(cuts[c], seg.offset);
      const std::int64_t b = std::min(cuts[c + 1], seg.offset + seg.size);
      if (a < b) pieces.push_back({a, b - a, seg.lr});
    }
  }
  std::reverse(pieces.begin(), pieces.end());
  std::swap(pieces[1], pieces[pieces.size() - 2]);
  return pieces;
}

void expect_same_bits(const std::vector<float>& a, const std::vector<float>& b,
                      const char* what, int step) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << " step " << step << " weight " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Runs `steps` updates three ways — the scalar oracle, step(), and
/// begin_step + step_range over odd_pieces() — and checks the weights
/// bitwise after every step.
template <class Oracle>
void check_against_oracle(Oracle oracle, Optimizer& whole_opt, Optimizer& split_opt) {
  constexpr std::size_t kN = 1003;
  constexpr int kSteps = 50;
  std::mt19937 rng(7);
  std::vector<float> w_oracle = hostile_values(kN, rng);
  std::vector<float> w_whole = w_oracle;
  std::vector<float> w_split = w_oracle;
  const auto segments = odd_segments();
  const auto pieces = odd_pieces();
  for (int step = 0; step < kSteps; ++step) {
    const std::vector<float> g = hostile_values(kN, rng);
    oracle.step(w_oracle, g, segments);
    whole_opt.step(w_whole, g, segments);
    split_opt.begin_step(kN);
    for (const LrSegment& piece : pieces) split_opt.step_range(w_split, g, piece);
    expect_same_bits(w_oracle, w_whole, "step()", step);
    expect_same_bits(w_oracle, w_split, "step_range", step);
  }
}

TEST(StepRange, AdamWMatchesScalarLoopBitwise) {
  AdamW whole(0.9, 0.98, 1e-9, 1e-4);
  AdamW split(0.9, 0.98, 1e-9, 1e-4);
  check_against_oracle(ScalarAdamW{0.9, 0.98, 1e-9, 1e-4, 0, {}, {}}, whole, split);
}

TEST(StepRange, SgdMomentumMatchesScalarLoopBitwise) {
  SgdMomentum whole(0.9, 5e-4);
  SgdMomentum split(0.9, 5e-4);
  check_against_oracle(ScalarSgd{0.9, 5e-4, {}}, whole, split);
}

TEST(StepRange, PlainSgdMatchesScalarLoopBitwise) {
  SgdMomentum whole(0.0, 1e-3);
  SgdMomentum split(0.0, 1e-3);
  check_against_oracle(ScalarSgd{0.0, 1e-3, {}}, whole, split);
}

TEST(StepRange, RejectsOutOfRangeSegmentsAndMissingBeginStep) {
  std::vector<float> w(8, 1.0F);
  std::vector<float> g(8, 0.5F);
  AdamW adam;
  EXPECT_THROW(adam.step_range(w, g, {0, 8, 0.1}), std::logic_error);
  adam.begin_step(w.size());
  EXPECT_THROW(adam.step_range(w, g, {4, 5, 0.1}), std::out_of_range);
  EXPECT_THROW(adam.step_range(w, g, {-1, 2, 0.1}), std::out_of_range);
  std::vector<float> short_g(7, 0.5F);
  EXPECT_THROW(adam.step_range(w, short_g, {0, 2, 0.1}), std::invalid_argument);
  SgdMomentum sgd(0.9);
  EXPECT_THROW(sgd.step_range(w, g, {0, 8, 0.1}), std::logic_error);
  adam.step_range(w, g, {0, 8, 0.1});
  EXPECT_LT(w[0], 1.0F);
}

TEST(ClipGradNorm, ScalesOnlyAboveThreshold) {
  std::vector<float> g = {3.0F, 4.0F};  // norm 5
  double norm = clip_grad_norm(g, 10.0);
  EXPECT_NEAR(norm, 5.0, 1e-9);
  EXPECT_NEAR(g[0], 3.0F, 1e-6F);
  norm = clip_grad_norm(g, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-9);
  EXPECT_NEAR(std::hypot(g[0], g[1]), 1.0F, 1e-4F);
}

TEST(Schedules, StepDecayDropsByFactor) {
  StepDecay s(0.1, 0.1, 100);
  EXPECT_DOUBLE_EQ(s.lr(0), 0.1);
  EXPECT_DOUBLE_EQ(s.lr(99), 0.1);
  EXPECT_DOUBLE_EQ(s.lr(100), 0.01);
  EXPECT_DOUBLE_EQ(s.lr(250), 0.001);
}

TEST(Schedules, InverseSqrtWarmupShape) {
  InverseSqrtWarmup s(1e-3, 100, 1e-7);
  EXPECT_NEAR(s.lr(0), 1e-7, 1e-12);
  EXPECT_NEAR(s.lr(50), 0.5e-3, 1e-5);
  EXPECT_NEAR(s.lr(100), 1e-3, 1e-12);
  EXPECT_NEAR(s.lr(400), 1e-3 * 0.5, 1e-12);  // sqrt(100/400)
  // Monotone decreasing after warmup.
  EXPECT_GT(s.lr(200), s.lr(300));
}

TEST(T1, ScaleAnnealsFromInverseTauToOne) {
  T1Rescheduler t1({8.0, 2.0, 0.25}, 100);
  // Step 0: p=1 -> scale = 1/tau (tau clamped to >= 1).
  EXPECT_NEAR(t1.scale(0, 0), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(t1.scale(0, 1), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(t1.scale(0, 2), 1.0, 1e-12);  // tau<1 clamped: never boosts LR
  // Step 50: p=0.5 -> scale = tau^{-1/2}.
  EXPECT_NEAR(t1.scale(50, 0), std::pow(8.0, -0.5), 1e-12);
  // Step >= K: back to the base schedule.
  EXPECT_NEAR(t1.scale(100, 0), 1.0, 1e-12);
  EXPECT_NEAR(t1.scale(500, 0), 1.0, 1e-12);
}

TEST(T1, DisabledWhenAnnealingNonPositive) {
  T1Rescheduler t1({8.0}, 0);
  EXPECT_NEAR(t1.scale(0, 0), 1.0, 1e-12);
}

TEST(T1, ScalesVectorMonotoneInStage) {
  // Earlier stages (larger tau) get smaller multipliers.
  T1Rescheduler t1({10.0, 5.0, 2.0, 1.0}, 1000);
  auto s = t1.scales(0);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_GE(s[i], s[i - 1]);
}

}  // namespace
}  // namespace pipemare::optim

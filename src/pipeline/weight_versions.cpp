#include "src/pipeline/weight_versions.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/tensor/kernels/simd.h"
#include "src/theory/stability.h"

namespace pipemare::pipeline {

// 64 unit-width buckets cover any realistic P/N or max_delay; see the
// header comment for the cross-backend sharing contract.
std::vector<obs::Histogram*> staleness_histograms(int stages) {
  std::vector<obs::Histogram*> h;
  h.reserve(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    h.push_back(&obs::MetricsRegistry::instance().histogram(
        "train.staleness.stage" + std::to_string(s),
        obs::Histogram::linear_bounds(0.0, 1.0, 64)));
  }
  return h;
}

namespace {

/// The distinct buffers one commit sweep reads and writes.
struct CommitBuffers {
  const float* live;
  const float* prev;  ///< the previous version's ring slot
  float* delta;
  float* slot;  ///< the ring slot being published
  float* bwd;   ///< the per-stage T2 backward weights (may be null)
};

/// One unit's commit sweep over [lo, hi): the T2 delta EMA against the
/// previous version, the ring publish and, with `Bwd`, the per-stage T2
/// backward weights w - g * delta (g = mean_tau_fwd > 0), in one pass.
/// Elementwise-independent, so PIPEMARE_SIMD is bitwise-exact.
template <bool Bwd>
void commit_unit(const CommitBuffers& b, std::size_t lo, std::size_t hi, float gf,
                 float cf, float g) {
  const float* live = b.live;
  const float* prev = b.prev;
  float* delta = b.delta;
  float* slot = b.slot;
  float* bwd = b.bwd;
  PIPEMARE_SIMD
  for (std::size_t i = lo; i < hi; ++i) {
    const float w = live[i];
    const float d = gf * delta[i] + cf * (w - prev[i]);
    delta[i] = d;
    slot[i] = w;
    if constexpr (Bwd) bwd[i] = w - g * d;
  }
}

}  // namespace

WeightVersions::WeightVersions(const nn::Model& model, const EngineConfig& cfg,
                               const Partition& partition, const Schedule& schedule,
                               std::uint64_t seed)
    : cfg_(cfg), partition_(partition), schedule_(schedule) {
  live_.assign(static_cast<std::size_t>(model.param_count()), 0.0F);
  util::Rng rng(seed);
  model.init_params(live_, rng);
  delta_.assign(live_.size(), 0.0F);

  history_depth_ = schedule_.max_staleness() + 2;
  history_.assign(static_cast<std::size_t>(history_depth_), {});
  history_[0] = live_;  // version 0 = initial weights
  staleness_ = staleness_histograms(partition_.num_stages);
  bytes_copied_ = &obs::MetricsRegistry::instance().counter("train.weights.bytes_copied");
  if (cfg_.discrepancy_correction && !cfg_.t2_per_microbatch) {
    bwd_weights_.resize(live_.size());
    refresh();
  }
}

const std::vector<float>& WeightVersions::version(std::int64_t v) const {
  if (v < 0) v = 0;
  if (v > step_ || v < step_ - history_depth_ + 1) {
    throw std::logic_error("WeightVersions: weight version outside history window");
  }
  const auto& slot = history_[static_cast<std::size_t>(v % history_depth_)];
  if (slot.empty()) throw std::logic_error("WeightVersions: empty history slot");
  return slot;
}

std::int64_t WeightVersions::forward_version(int u, int micro) const {
  int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
  return std::max<std::int64_t>(step_ - schedule_.fwd_staleness(stage, micro), 0);
}

void WeightVersions::record_forward_staleness(int ufirst, int ulast, int micro) const {
  for (int u = ufirst; u < ulast; ++u) {
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    staleness_[static_cast<std::size_t>(stage)]->observe(
        static_cast<double>(step_ - forward_version(u, micro)));
  }
}

void WeightVersions::copy_forward_units(int ufirst, int ulast, int micro,
                                        std::span<float> out) const {
  std::uint64_t copied = 0;
  for (int u = ufirst; u < ulast; ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    const float* src = cfg_.method == Method::Sync ? live_.data()
                                                   : version(forward_version(u, micro)).data();
    std::copy(src + unit.offset, src + unit.offset + unit.size, out.begin() + unit.offset);
    copied += static_cast<std::uint64_t>(unit.size);
  }
  bytes_copied_->add(copied * sizeof(float));
}

void WeightVersions::write_t2_unit(int u, double gap, std::span<float> out) const {
  const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
  const auto lo = static_cast<std::size_t>(unit.offset);
  const auto hi = lo + static_cast<std::size_t>(unit.size);
  if (gap <= 0.0) {
    std::copy(live_.begin() + unit.offset, live_.begin() + unit.offset + unit.size,
              out.begin() + unit.offset);
    return;
  }
  // u_bkwd = w - (tau_fwd - tau_bkwd) * delta, with tau_bkwd = 0.
  auto g = static_cast<float>(gap);
  const float* live = live_.data();
  const float* delta = delta_.data();
  float* o = out.data();
  PIPEMARE_SIMD
  for (std::size_t i = lo; i < hi; ++i) o[i] = live[i] - g * delta[i];
}

void WeightVersions::assemble_forward_units(int ufirst, int ulast, int micro,
                                            std::span<float> out) const {
  if (cfg_.method != Method::Sync) record_forward_staleness(ufirst, ulast, micro);
  copy_forward_units(ufirst, ulast, micro, out);
}

void WeightVersions::assemble_backward_units(int ufirst, int ulast, int micro,
                                             std::span<float> out) const {
  if (cfg_.method == Method::PipeDream) {
    // Synchronous-gradient semantics via stashing: the backward pass sees
    // exactly the weights the forward pass used, which are still resident
    // in the version history (the history *is* the stash).
    assemble_forward_units(ufirst, ulast, micro, out);
    return;
  }
  // Sync: backward == forward == live. PipeMare: tau_bkwd = 0, so the
  // backward reads the live weights, optionally T2-corrected toward what
  // the forward pass saw — in one pass over each unit.
  const bool t2 = cfg_.method == Method::PipeMare && cfg_.discrepancy_correction;
  std::uint64_t copied = 0;
  for (int u = ufirst; u < ulast; ++u) {
    double gap = 0.0;
    if (t2) {
      int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
      gap = cfg_.t2_per_microbatch
                ? static_cast<double>(schedule_.fwd_staleness(stage, micro))
                : schedule_.mean_tau_fwd(stage);
    }
    write_t2_unit(u, gap, out);
    copied += static_cast<std::uint64_t>(partition_.units[static_cast<std::size_t>(u)].size);
  }
  bytes_copied_->add(copied * sizeof(float));
}

std::span<const float> WeightVersions::forward_view(int ufirst, int ulast, int micro,
                                                    std::vector<float>& scratch) const {
  if (cfg_.method == Method::Sync || ufirst == ulast) return live_;
  record_forward_staleness(ufirst, ulast, micro);
  const std::int64_t v = forward_version(ufirst, micro);
  for (int u = ufirst + 1; u < ulast; ++u) {
    if (forward_version(u, micro) != v) {
      // Mixed-version range: split_bias schedules a module's bias on the
      // next stage, so no single version holds all of the units' bytes.
      scratch.resize(live_.size());
      copy_forward_units(ufirst, ulast, micro, scratch);
      return scratch;
    }
  }
  return version(v);
}

std::span<const float> WeightVersions::backward_view(int ufirst, int ulast, int micro,
                                                     std::vector<float>& scratch) const {
  switch (cfg_.method) {
    case Method::PipeDream: return forward_view(ufirst, ulast, micro, scratch);
    case Method::Sync: return live_;
    case Method::PipeMare: break;
  }
  if (!cfg_.discrepancy_correction) return live_;
  if (!bwd_weights_.empty()) return bwd_weights_;
  // Per-microbatch T2: the gap depends on the microbatch, so nothing can
  // be materialized ahead of the task.
  scratch.resize(live_.size());
  assemble_backward_units(ufirst, ulast, micro, scratch);
  return scratch;
}

void WeightVersions::commit_update() {
  begin_commit();
  // The weight units tile the flat vector, so this publishes every weight.
  commit_units(0, partition_.num_units());
  publish_commit();
}

void WeightVersions::begin_commit() {
  history_[static_cast<std::size_t>((step_ + 1) % history_depth_)].resize(live_.size());
}

void WeightVersions::commit_units(int ufirst, int ulast) {
  float* slot = history_[static_cast<std::size_t>((step_ + 1) % history_depth_)].data();
  if (!cfg_.discrepancy_correction) {
    const auto [lo, hi] = unit_param_bounds(partition_, ufirst, ulast);
    std::copy(live_.begin() + lo, live_.begin() + hi, slot + lo);
    return;
  }
  // One sweep: the delta EMA against the current version (its ring slot),
  // the publish into the next slot, and the per-stage T2 backward weights.
  CommitBuffers b{live_.data(),
                  history_[static_cast<std::size_t>(step_ % history_depth_)].data(),
                  delta_.data(), slot, bwd_weights_.data()};
  for (int u = ufirst; u < ulast; ++u) {
    const nn::WeightUnit& unit = partition_.units[static_cast<std::size_t>(u)];
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    double gap = schedule_.mean_tau_fwd(stage);
    double gamma = theory::gamma_from_decay(cfg_.decay_d, gap);
    auto gf = static_cast<float>(gamma);
    auto cf = static_cast<float>(1.0 - gamma);
    auto g = static_cast<float>(gap);
    const auto lo = static_cast<std::size_t>(unit.offset);
    const auto hi = lo + static_cast<std::size_t>(unit.size);
    if (bwd_weights_.empty()) {
      commit_unit<false>(b, lo, hi, gf, cf, g);
    } else {
      commit_unit<true>(b, lo, hi, gf, cf, g);
    }
  }
}

void WeightVersions::publish_commit() {
  ++step_;
  bytes_copied_->add(static_cast<std::uint64_t>(live_.size()) * sizeof(float));
}

void WeightVersions::restore_units(int ufirst, int ulast) {
  const auto [lo, hi] = unit_param_bounds(partition_, ufirst, ulast);
  const std::vector<float>& current = version(step_);
  std::copy(current.begin() + lo, current.begin() + hi, live_.begin() + lo);
}

void WeightVersions::refresh() {
  if (bwd_weights_.empty()) return;
  for (int u = 0; u < partition_.num_units(); ++u) {
    int stage = partition_.unit_stage[static_cast<std::size_t>(u)];
    write_t2_unit(u, schedule_.mean_tau_fwd(stage), bwd_weights_);
  }
}

}  // namespace pipemare::pipeline

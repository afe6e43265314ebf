#include "perfbench/src/replay.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "perfbench/src/bench.h"
#include "src/obs/metrics.h"
#include "src/optim/optimizer.h"
#include "src/pipeline/engine.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"
#include "src/pipeline/weight_versions.h"
#include "src/util/stats.h"

namespace perfbench {

namespace {

using namespace pipemare;

using util::ns_between;

std::uint64_t gemm_calls() {
  return obs::MetricsRegistry::instance().counter("kernels.gemm_dispatch").value();
}

/// Per-module FLOPs of one forward (and backward) at the activation shapes
/// the module actually saw.
struct ModuleFlops {
  double fwd = 0.0;
  double bwd = 0.0;
};

ModuleFlops module_flops(const nn::Module& module, std::vector<int> in_shape,
                         const nn::Flow& out) {
  nn::CostShapes shapes;
  shapes.in_shape = std::move(in_shape);
  if (!out.x.empty()) shapes.out_shape = out.x.shape();
  nn::ModuleCost c = module.cost(shapes);
  return {c.fwd_flops, c.bkwd_flops};
}

/// Index into kModuleKinds of a module, by its Module::name().
int module_kind(const nn::Module& module) {
  const std::string n = module.name();
  auto kind = [](const char* k) {
    for (std::size_t i = 0; i < kModuleKinds.size(); ++i) {
      if (std::string(kModuleKinds[i]) == k) return static_cast<int>(i);
    }
    return static_cast<int>(kModuleKinds.size()) - 1;
  };
  if (n == "SelfAttention" || n == "CausalSelfAttention" || n == "CrossAttention") {
    return kind("MultiHeadAttention");
  }
  if (n == "DecoderBridge") return kind("TokenEmbedding");
  if (n == "ResidualOpen" || n == "ResidualClose") return kind("Residual");
  return kind(n.c_str());
}

std::vector<std::size_t> module_kinds(const nn::Model& model) {
  std::vector<std::size_t> kinds;
  for (int i = 0; i < model.num_modules(); ++i) {
    kinds.push_back(static_cast<std::size_t>(module_kind(model.module(i))));
  }
  return kinds;
}

void require_supported(const core::TrainerConfig& cfg) {
  if (cfg.t1 || cfg.grad_clip > 0.0 || cfg.warmup_epochs > 0 ||
      cfg.schedule != core::TrainerConfig::Sched::Constant ||
      cfg.engine.recompute_segments > 0 || cfg.repartition.enabled) {
    throw std::invalid_argument(
        "replay_training: only constant-LR runs without T1, T3, clipping, "
        "recomputation or repartitioning are replayed");
  }
}

}  // namespace

double ReplayResult::covered_ns() const {
  double s = minibatch_ns + assemble_fwd_ns + assemble_bwd_ns + head_ns + grad_buffer_ns +
             optim_ns + commit_ns;
  for (const auto& k : kinds) s += k.fwd_ns + k.bwd_ns;
  return s;
}

ReplayResult replay_training(const core::Task& task, const core::TrainerConfig& cfg,
                             const std::vector<std::vector<int>>& batches) {
  require_supported(cfg);
  const nn::Model model = task.build_model();
  pipeline::EngineConfig ecfg = cfg.engine;
  ecfg.num_microbatches = cfg.num_microbatches();
  ecfg.partition.probe.reset();
  const pipeline::Partition partition =
      pipeline::make_partition(model, ecfg.num_stages, ecfg.split_bias, ecfg.partition);
  const pipeline::Schedule schedule(ecfg.num_stages, ecfg.num_microbatches);
  pipeline::WeightVersions store(model, ecfg, partition, schedule, cfg.seed);

  // The optimizer train_loop builds for this configuration.
  std::unique_ptr<optim::Optimizer> opt;
  if (cfg.optimizer == core::TrainerConfig::Opt::SgdMomentum) {
    opt = std::make_unique<optim::SgdMomentum>(cfg.momentum, cfg.weight_decay);
  } else {
    opt = std::make_unique<optim::AdamW>(cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps,
                                         cfg.weight_decay);
  }

  const int n = ecfg.num_microbatches;
  const int modules = model.num_modules();
  const int units = partition.num_units();
  const nn::LossHead& head = task.loss();
  const bool backward_is_forward =
      ecfg.method == pipeline::Method::Sync || ecfg.method == pipeline::Method::PipeDream;
  std::vector<float> grads(store.live().size(), 0.0F);
  std::vector<float> w_fwd(store.live().size());
  std::vector<float> w_bkwd(store.live().size());
  const std::vector<std::size_t> kind = module_kinds(model);
  std::vector<ModuleFlops> flops(static_cast<std::size_t>(modules));
  bool flops_known = false;

  ReplayResult r;
  const std::uint64_t gemm0 = gemm_calls();
  for (const std::vector<int>& idx : batches) {
    const auto t_step = Clock::now();
    auto t0 = t_step;
    data::MicroBatches mb = task.minibatch(idx, cfg.microbatch_size);
    auto t1 = Clock::now();
    r.minibatch_ns += ns_between(t0, t1);

    std::fill(grads.begin(), grads.end(), 0.0F);
    t0 = Clock::now();
    r.grad_buffer_ns += ns_between(t1, t0);
    auto caches = model.make_caches();
    for (int micro = 0; micro < n; ++micro) {
      t0 = Clock::now();
      store.assemble_forward_units(0, units, micro, w_fwd);
      t1 = Clock::now();
      r.assemble_fwd_ns += ns_between(t0, t1);

      nn::Flow cur = mb.inputs[static_cast<std::size_t>(micro)];
      cur.training = true;
      cur.micro = micro;
      cur.step = store.step();
      for (int i = 0; i < modules; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        std::vector<int> in_shape;
        if (!flops_known) in_shape = cur.x.shape();
        t0 = Clock::now();
        cur = model.forward_range(i, i + 1, std::move(cur), w_fwd, caches);
        t1 = Clock::now();
        r.kinds[kind[ui]].fwd_ns += ns_between(t0, t1);
        if (!flops_known) flops[ui] = module_flops(model.module(i), std::move(in_shape), cur);
      }
      flops_known = true;

      t0 = Clock::now();
      nn::LossResult lr = head.forward_backward(cur.x, mb.targets[static_cast<std::size_t>(micro)]);
      t1 = Clock::now();
      r.head_ns += ns_between(t0, t1);
      if (!std::isfinite(lr.loss)) {
        r.finite = false;
        break;
      }

      t0 = Clock::now();
      if (backward_is_forward) {
        w_bkwd = w_fwd;
      } else {
        store.assemble_backward_units(0, units, micro, w_bkwd);
      }
      t1 = Clock::now();
      r.assemble_bwd_ns += ns_between(t0, t1);

      nn::Flow d;
      d.x = std::move(lr.doutput);
      for (int i = modules - 1; i >= 0; --i) {
        t0 = Clock::now();
        d = model.backward_range(i, i + 1, std::move(d), w_bkwd, caches, grads);
        t1 = Clock::now();
        r.kinds[kind[static_cast<std::size_t>(i)]].bwd_ns += ns_between(t0, t1);
      }
    }
    if (!r.finite) break;

    t0 = Clock::now();
    const auto inv_n = 1.0F / static_cast<float>(n);
    for (float& g : grads) {
      g *= inv_n;
      if (!std::isfinite(g)) r.finite = false;
    }
    t1 = Clock::now();
    r.grad_buffer_ns += ns_between(t0, t1);

    auto segments = pipeline::stage_lr_segments(partition, cfg.lr, {});
    opt->step(store.live(), grads, segments);
    t0 = Clock::now();
    r.optim_ns += ns_between(t1, t0);

    store.commit_update();
    t1 = Clock::now();
    r.commit_ns += ns_between(t0, t1);
    r.wall_ns += ns_between(t_step, t1);
    ++r.steps;
  }
  r.gemm_calls = gemm_calls() - gemm0;
  for (std::size_t i = 0; i < flops.size(); ++i) {
    r.kinds[kind[i]].flops += (flops[i].fwd + flops[i].bwd) * n * r.steps;
  }
  r.weights.assign(store.live().begin(), store.live().end());
  return r;
}

ReplayResult replay_forward(const nn::Model& model, const std::vector<float>& weights,
                            const nn::Flow& input, int reps) {
  const int modules = model.num_modules();
  const std::vector<std::size_t> kind = module_kinds(model);
  std::vector<ModuleFlops> flops(static_cast<std::size_t>(modules));
  ReplayResult r;
  const std::uint64_t gemm0 = gemm_calls();
  for (int rep = 0; rep < reps; ++rep) {
    const auto t_start = Clock::now();
    auto caches = model.make_caches();
    nn::Flow cur = input;
    for (int i = 0; i < modules; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      std::vector<int> in_shape;
      if (rep == 0) in_shape = cur.x.shape();
      const auto t0 = Clock::now();
      cur = model.forward_range(i, i + 1, std::move(cur), weights, caches);
      const auto t1 = Clock::now();
      r.kinds[kind[ui]].fwd_ns += ns_between(t0, t1);
      if (rep == 0) flops[ui] = module_flops(model.module(i), std::move(in_shape), cur);
    }
    r.wall_ns += ns_between(t_start, Clock::now());
    ++r.steps;
  }
  r.gemm_calls = gemm_calls() - gemm0;
  for (std::size_t i = 0; i < flops.size(); ++i) r.kinds[kind[i]].flops += flops[i].fwd * reps;
  return r;
}

}  // namespace perfbench

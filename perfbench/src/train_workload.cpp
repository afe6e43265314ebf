// Training workloads: `resnet-steal` and `transformer-steal`.
//
// Both train with PipeMare on the work-stealing backend (`threaded_steal`,
// W = 4 load-aware workers) driven through core::train_loop, on inputs
// generated from --seed. The end-to-end run (--trace 0) measures steps with
// a step-boundary clock only; the traced run (--trace 1) wraps the task and
// the backend in timing decorators, samples the scheduler's counters at
// step boundaries, and replays the sequential engine's step call by call
// (replay.h) for the per-layer split. Both runs gate correctness: the first
// K losses must equal the `sequential` backend's bitwise, and (traced) the
// replay must end bitwise-equal in weights to the sequential backend.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "src/core/backend.h"
#include "src/core/engine_backend.h"
#include "src/core/task.h"
#include "src/core/trainer.h"
#include "src/tensor/kernels/calibration.h"
#include "src/util/stats.h"

namespace perfbench {

namespace {

using namespace pipemare;

constexpr int kWorkers = 4;
constexpr int kGateSteps = 4;    ///< K: leading losses compared bitwise
constexpr int kWarmupSteps = 3;  ///< leading steps left out of step statistics
constexpr int kSetups = 5;       ///< set-ups per end-to-end run; setup_s is their median

std::unique_ptr<core::Task> make_task(const std::string& workload, std::uint64_t seed) {
  if (workload == "resnet-steal") return core::make_cifar10_analog(seed);
  return make_transformer_task(seed);
}

core::TrainerConfig make_config(const std::string& workload, std::uint64_t seed) {
  core::TrainerConfig cfg;
  cfg.engine.method = pipeline::Method::PipeMare;
  cfg.epochs = INT_MAX;  // runs end on the clock (StopRun), never by epoch count
  cfg.schedule = core::TrainerConfig::Sched::Constant;
  cfg.t1 = false;
  cfg.warmup_epochs = 0;
  cfg.seed = seed;
  cfg.backend = {"threaded_steal",
                 core::StealOptions{.workers = kWorkers, .mode = sched::StealMode::LoadAware}};
  if (workload == "resnet-steal") {
    cfg.engine.num_stages = 4;
    cfg.minibatch_size = 64;
    cfg.microbatch_size = 8;
    cfg.optimizer = core::TrainerConfig::Opt::SgdMomentum;
    cfg.momentum = 0.9;
    cfg.weight_decay = 5e-4;
    cfg.lr = 0.05;
  } else {
    cfg.engine.num_stages = 8;
    cfg.minibatch_size = 32;
    cfg.microbatch_size = 2;
    cfg.optimizer = core::TrainerConfig::Opt::AdamW;
    cfg.adam_beta1 = 0.9;
    cfg.adam_beta2 = 0.98;
    cfg.weight_decay = 1e-4;
    cfg.lr = 5e-4;
    cfg.engine.discrepancy_correction = true;
    cfg.engine.decay_d = 0.1;
  }
  cfg.engine.num_microbatches = cfg.num_microbatches();
  return cfg;
}

struct Setup {
  std::unique_ptr<core::Task> task;
  std::unique_ptr<core::ExecutionBackend> backend;
};

/// Dataset generation, model build and backend creation (graph lowering,
/// partition, schedule, version ring, worker pool), as core::train does it.
Setup make_setup(const std::string& workload, const core::TrainerConfig& cfg,
                 const std::string& backend_name) {
  Setup s;
  s.task = make_task(workload, cfg.seed);
  pipeline::EngineConfig engine = cfg.engine;
  core::BackendConfig backend = cfg.backend;
  if (backend_name == "threaded_steal") {
    // core::train seeds the steal policy's victim ranking from a probe
    // microbatch; the uniform split itself does not depend on it.
    std::vector<int> idx(static_cast<std::size_t>(cfg.microbatch_size));
    for (int i = 0; i < cfg.microbatch_size; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto probe = s.task->minibatch(idx, cfg.microbatch_size);
    engine.partition.probe = std::make_shared<const nn::Flow>(std::move(probe.inputs.at(0)));
  } else {
    backend = core::BackendConfig(backend_name);
  }
  s.backend = core::BackendRegistry::instance().create(s.task->build_model(), backend,
                                                       engine, cfg.seed);
  return s;
}

/// Thrown from a step observer to end a train_loop run on the clock.
struct StopRun {};

/// Step-boundary clock: one duration per optimizer step (minibatch
/// assembly + forward_backward + optimizer + commit; epoch-end evaluation
/// excluded), the first losses for the parity gate, and the stop rule.
class StepClock final : public core::StepObserver {
 public:
  StepClock(Clock::duration budget, int min_steps, int max_steps)
      : budget_(budget), min_steps_(min_steps), max_steps_(max_steps) {}

  void start() {
    mark_ = Clock::now();
    deadline_ = mark_ + budget_;
  }

  void on_step(const core::StepInfo& info) override {
    const auto now = Clock::now();
    step_ms.push_back(ms_between(mark_, now));
    mark_ = now;
    if (losses.size() < static_cast<std::size_t>(kGateSteps)) losses.push_back(info.loss);
    if (!info.result.finite || !std::isfinite(info.loss)) ++nonfinite;
    const int steps = static_cast<int>(step_ms.size());
    if (steps >= max_steps_ || (steps >= min_steps_ && now >= deadline_)) throw StopRun{};
  }

  void on_epoch(core::EpochRecord& /*record*/) override {
    const auto now = Clock::now();
    eval_s.push_back(ms_between(mark_, now) / 1000.0);
    mark_ = now;
  }

  std::vector<double> step_ms;
  std::vector<double> losses;
  std::vector<double> eval_s;
  int nonfinite = 0;
  bool diverged = false;

 private:
  Clock::duration budget_;
  int min_steps_;
  int max_steps_;
  Clock::time_point mark_{};
  Clock::time_point deadline_{};
};

/// Runs train_loop until `clock` stops it; records divergence.
void run_steps(const core::Task& task, core::ExecutionBackend& backend,
               const core::TrainerConfig& cfg, StepClock& clock,
               core::StepObserver* extra = nullptr) {
  std::vector<core::StepObserver*> obs{&clock};
  if (extra != nullptr) obs.push_back(extra);
  clock.start();
  try {
    core::TrainResult r = core::train_loop(task, backend, cfg, obs);
    clock.diverged = r.diverged;
  } catch (const StopRun&) {
  }
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// Step statistics after the warm-up steps.
std::vector<double> measured_steps(const StepClock& clock, int warmup) {
  const auto skip = std::min<std::size_t>(static_cast<std::size_t>(warmup),
                                          clock.step_ms.size() / 2);
  return {clock.step_ms.begin() + static_cast<std::ptrdiff_t>(skip), clock.step_ms.end()};
}

double samples_per_s(const std::vector<double>& step_ms, int minibatch) {
  double total = 0.0;
  for (double ms : step_ms) total += ms;
  return total > 0.0 ? static_cast<double>(step_ms.size()) * minibatch / (total / 1000.0)
                     : 0.0;
}

/// Counts a run's steps as attempted operations and its divergent or
/// non-finite steps as failed ones.
void account_steps(Report& report, const StepClock& clock, const char* what) {
  report.attempt(clock.step_ms.size());
  if (clock.nonfinite > 0) {
    report.fail(std::string(what) + ": non-finite step", static_cast<std::uint64_t>(clock.nonfinite));
  }
  if (clock.diverged) report.fail(std::string(what) + ": training diverged");
}

/// The parity gate: `threaded`'s first K losses against `sequential`'s.
void gate_losses(Report& report, const std::vector<double>& threaded,
                 const std::vector<double>& sequential) {
  const std::size_t k = std::min(threaded.size(), sequential.size());
  if (k == 0) {
    report.attempt();
    report.fail("parity gate: no steps to compare");
    return;
  }
  for (std::size_t i = 0; i < k; ++i) {
    report.attempt();
    if (std::memcmp(&threaded[i], &sequential[i], sizeof(double)) != 0) {
      report.fail("parity gate: step " + std::to_string(i) + " loss " +
                  std::to_string(threaded[i]) + " (threaded_steal) != " +
                  std::to_string(sequential[i]) + " (sequential)");
    }
  }
}

/// Task decorator timing Task::minibatch / Task::evaluate and recording the
/// minibatch index lists (the batches the replay re-runs).
class ProbedTask final : public core::Task {
 public:
  explicit ProbedTask(const core::Task& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::string metric_name() const override { return inner_.metric_name(); }
  nn::Model build_model() const override { return inner_.build_model(); }
  const nn::LossHead& loss() const override { return inner_.loss(); }
  int train_size() const override { return inner_.train_size(); }
  data::MicroBatches minibatch(const std::vector<int>& indices,
                               int micro_size) const override {
    const auto t0 = Clock::now();
    data::MicroBatches mb = inner_.minibatch(indices, micro_size);
    minibatch_ms.push_back(ms_between(t0, Clock::now()));
    batches.push_back(indices);
    return mb;
  }
  double evaluate(const nn::Model& model, std::span<const float> params) const override {
    const auto t0 = Clock::now();
    double v = inner_.evaluate(model, params);
    eval_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return v;
  }

  // Decorator-side records; mutable because the Task interface is const.
  mutable std::vector<double> minibatch_ms;
  mutable std::vector<double> eval_s;
  mutable std::vector<std::vector<int>> batches;

 private:
  const core::Task& inner_;
};

/// Backend decorator timing forward_backward (the scheduler's wall time)
/// and commit_update (the version ring publish).
class TimedBackend final : public core::ExecutionBackend {
 public:
  explicit TimedBackend(core::ExecutionBackend& inner) : inner_(inner) {}

  pipeline::StepResult forward_backward(const std::vector<nn::Flow>& micro_inputs,
                                        const std::vector<tensor::Tensor>& micro_targets,
                                        const nn::LossHead& head) override {
    const auto t0 = Clock::now();
    auto r = inner_.forward_backward(micro_inputs, micro_targets, head);
    fb_ms.push_back(ms_between(t0, Clock::now()));
    return r;
  }
  std::span<float> weights() override { return inner_.weights(); }
  std::span<const float> weights() const override {
    return static_cast<const core::ExecutionBackend&>(inner_).weights();
  }
  std::span<float> gradients() override { return inner_.gradients(); }
  void commit_update() override {
    const auto t0 = Clock::now();
    inner_.commit_update();
    commit_ms.push_back(ms_between(t0, Clock::now()));
  }
  std::vector<optim::LrSegment> lr_segments(double base_lr,
                                            std::span<const double> scales) const override {
    return inner_.lr_segments(base_lr, scales);
  }
  std::vector<double> stage_tau_fwd() const override { return inner_.stage_tau_fwd(); }
  void set_method(pipeline::Method m) override { inner_.set_method(m); }
  pipeline::Method method() const override { return inner_.method(); }
  const nn::Model& model() const override { return inner_.model(); }
  std::string_view name() const override { return inner_.name(); }
  std::vector<pipeline::StageStats> stage_stats() const override {
    return inner_.stage_stats();
  }
  void reset_stage_stats() override { inner_.reset_stage_stats(); }

  std::vector<double> fb_ms;
  std::vector<double> commit_ms;

 private:
  core::ExecutionBackend& inner_;
};

/// Samples the work-stealing engine's counters at step boundaries.
class SchedSampler final : public core::StepObserver {
 public:
  explicit SchedSampler(const sched::StealingEngine& engine)
      : engine_(engine), first_(snapshot()), last_(first_) {}

  void on_step(const core::StepInfo& /*info*/) override {
    last_ = snapshot();
    ++steps_;
  }

  /// Fills the sched.* figures; `fb_ms` are the forward_backward wall times
  /// of the sampled steps.
  void fill(LayerFigures& f, const std::vector<double>& fb_ms) const {
    const std::size_t w = first_.workers.size();
    double fb_ns = 0.0;
    for (double ms : fb_ms) fb_ns += ms * 1e6;
    double busy = 0.0, idle = 0.0, max_busy = 0.0, min_busy = 1e300;
    for (std::size_t i = 0; i < w; ++i) {
      const double b = static_cast<double>(last_.workers[i].busy_ns - first_.workers[i].busy_ns);
      busy += b;
      idle += static_cast<double>(last_.workers[i].pop_wait_ns - first_.workers[i].pop_wait_ns);
      max_busy = std::max(max_busy, b);
      min_busy = std::min(min_busy, b);
    }
    double stage_busy = 0.0, stolen = 0.0;
    for (std::size_t s = 0; s < first_.stages.size(); ++s) {
      stage_busy += static_cast<double>(last_.stages[s].busy_ns - first_.stages[s].busy_ns);
      stolen += static_cast<double>(last_.stages[s].stolen_ns - first_.stages[s].stolen_ns);
    }
    const double capacity = fb_ns * static_cast<double>(w);
    f.fb_ms = median(fb_ms);
    f.worker_busy_share = capacity > 0.0 ? busy / capacity : 0.0;
    f.worker_idle_share = capacity > 0.0 ? idle / capacity : 0.0;
    f.busy_spread = min_busy > 0.0 ? max_busy / min_busy : 0.0;
    f.steals_per_step =
        steps_ > 0 ? static_cast<double>(last_.steals - first_.steals) / steps_ : 0.0;
    f.stolen_busy_share = stage_busy > 0.0 ? stolen / stage_busy : 0.0;
  }

 private:
  struct Snapshot {
    std::vector<pipeline::StageStats> workers;
    std::vector<pipeline::StageStats> stages;
    std::uint64_t steals = 0;
  };
  Snapshot snapshot() const {
    return {engine_.worker_stats(), engine_.stage_stats(), engine_.total_steals()};
  }

  const sched::StealingEngine& engine_;
  Snapshot first_;
  Snapshot last_;
  int steps_ = 0;
};

double ms_per(double total_ns, int n) { return n > 0 ? total_ns / 1e6 / n : 0.0; }

void manifest_model(Report& report, const core::ExecutionBackend& backend) {
  report.manifest("params", static_cast<double>(backend.model().param_count()));
  report.manifest("weight_units", static_cast<double>(backend.partition()->num_units()));
}

void run_traced(const Args& args, const core::TrainerConfig& cfg, Report& report) {
  Setup s = make_setup(args.workload, cfg, "threaded_steal");
  manifest_model(report, *s.backend);
  auto* steal = dynamic_cast<core::ThreadedStealBackend*>(s.backend.get());
  if (steal == nullptr) throw std::logic_error("threaded_steal backend has an unexpected type");
  const int max_steps = args.quick ? kGateSteps + 2 : INT_MAX;
  LayerFigures f;

  // A: untraced steps (the reference for trace overhead and speedup).
  StepClock untraced(seconds(args.seconds * 0.3), kGateSteps, max_steps);
  run_steps(*s.task, *s.backend, cfg, untraced);
  account_steps(report, untraced, "untraced steps");
  const double untraced_sps =
      samples_per_s(measured_steps(untraced, kWarmupSteps), cfg.minibatch_size);

  // B: traced steps on the same backend — timing decorators plus the
  // scheduler counters sampled at step boundaries.
  ProbedTask probed(*s.task);
  TimedBackend timed(*s.backend);
  SchedSampler sampler(steal->engine());
  StepClock traced(seconds(args.seconds * 0.3), kGateSteps, max_steps);
  run_steps(probed, timed, cfg, traced, &sampler);
  account_steps(report, traced, "traced steps");
  sampler.fill(f, timed.fb_ms);
  f.commit_ms = median(timed.commit_ms);
  f.minibatch_ms = median(probed.minibatch_ms);
  const double traced_sps =
      samples_per_s(measured_steps(traced, kWarmupSteps), cfg.minibatch_size);
  f.trace_overhead_pct = untraced_sps > 0.0 ? 100.0 * (untraced_sps - traced_sps) / untraced_sps
                                            : 0.0;
  probed.evaluate(timed.model(), timed.weights());
  f.eval_s = probed.eval_s.back();

  // The sequential backend over recorded batches: its throughput is the
  // speedup base, its losses the parity reference, its weights the
  // replay's fidelity reference.
  Setup seq = make_setup(args.workload, cfg, "sequential");
  ProbedTask recorder(*seq.task);
  StepClock seq_clock(seconds(args.seconds * 0.15), kGateSteps, args.quick ? kGateSteps : 24);
  run_steps(recorder, *seq.backend, cfg, seq_clock);
  account_steps(report, seq_clock, "sequential steps");
  gate_losses(report, untraced.losses, seq_clock.losses);
  const std::vector<double> seq_steps = measured_steps(seq_clock, 1);
  f.seq_samples_per_s = cfg.minibatch_size / (median(seq_steps) / 1000.0);
  f.speedup_vs_seq = f.seq_samples_per_s > 0.0 ? untraced_sps / f.seq_samples_per_s : 0.0;

  const ReplayResult r = replay_training(*seq.task, cfg, recorder.batches);
  report.attempt();
  const auto seq_w = seq.backend->weights();
  if (!r.finite || r.weights.size() != seq_w.size() ||
      std::memcmp(r.weights.data(), seq_w.data(), seq_w.size() * sizeof(float)) != 0) {
    report.fail("replay fidelity: weights after " + std::to_string(r.steps) +
                " replayed steps differ from the sequential backend's");
  }
  f.replay_coverage = r.wall_ns > 0.0 ? r.covered_ns() / r.wall_ns : 0.0;
  report.attempt();
  if (f.replay_coverage < 0.95) {
    report.fail("replay coverage " + std::to_string(f.replay_coverage) + " < 0.95");
  }
  f.assemble_fwd_ms = ms_per(r.assemble_fwd_ns, r.steps);
  f.assemble_bwd_ms = ms_per(r.assemble_bwd_ns, r.steps);
  f.grad_buffer_ms = ms_per(r.grad_buffer_ns, r.steps);
  f.optim_step_ms = ms_per(r.optim_ns, r.steps);
  f.head_ms = ms_per(r.head_ns, r.steps);
  for (int k = 0; k < kKinds; ++k) {
    const KindTotals& t = r.kinds[static_cast<std::size_t>(k)];
    f.fwd_ms[k] = ms_per(t.fwd_ns, r.steps);
    f.bwd_ms[k] = ms_per(t.bwd_ns, r.steps);
    f.gflops[k] = t.fwd_ns + t.bwd_ns > 0.0 ? t.flops / (t.fwd_ns + t.bwd_ns) : 0.0;
  }
  f.gemm_calls_per_step =
      r.steps > 0 ? static_cast<double>(r.gemm_calls) / r.steps : 0.0;
  f.roofline_gflops =
      tensor::kernels::KernelCalibration::measure(tensor::kernels::KernelKind::tiled)
          .gemm_flops_per_ns;
  emit_layer_metrics(report, f);
}

void run_end_to_end(const Args& args, const core::TrainerConfig& cfg, Report& report) {
  // Set-up, several times; the median is setup_s and the last one is kept.
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < (args.quick ? 1 : kSetups); ++i) {
    s = Setup{};
    const auto t0 = Clock::now();
    s = make_setup(args.workload, cfg, "threaded_steal");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  manifest_model(report, *s.backend);

  StepClock clock(seconds(args.seconds), kGateSteps, args.quick ? kGateSteps + 2 : INT_MAX);
  run_steps(*s.task, *s.backend, cfg, clock);
  account_steps(report, clock, "timed steps");
  const std::vector<double> steps = measured_steps(clock, args.quick ? 0 : kWarmupSteps);
  s = Setup{};

  Setup seq = make_setup(args.workload, cfg, "sequential");
  StepClock seq_clock(Clock::duration::zero(), kGateSteps, kGateSteps);
  run_steps(*seq.task, *seq.backend, cfg, seq_clock);
  account_steps(report, seq_clock, "sequential steps");
  gate_losses(report, clock.losses, seq_clock.losses);

  EndToEnd e;
  e.throughput_per_s = samples_per_s(steps, cfg.minibatch_size);
  e.latency_p50_ms = median(steps);
  e.latency_tail_ms = percentile(steps, 0.95);
  e.peak_rss_mb = peak_rss_mb();
  e.setup_s = median(setup_s);
  report.detail("train_samples_per_s", e.throughput_per_s, "1/s");
  report.detail("step_ms_p50", e.latency_p50_ms, "ms");
  report.detail("step_ms_p95", e.latency_tail_ms, "ms");
  report.detail("steps_measured", static_cast<double>(steps.size()), "count");
  report.detail("core.eval_s", util::mean(clock.eval_s), "s");
  emit_end_to_end(report, e);
}

}  // namespace

std::unique_ptr<core::TranslationTask> make_transformer_task(std::uint64_t seed) {
  data::TranslationConfig d;
  d.vocab = 24;
  d.seq_len = 8;
  d.train_size = 2048;
  d.test_size = 96;
  d.seed = seed;
  nn::TransformerConfig m;
  m.d_model = 128;
  m.heads = 4;
  m.enc_layers = 2;
  m.dec_layers = 2;
  m.ffn_hidden = 512;
  return std::make_unique<core::TranslationTask>(d, m, "synth-iwslt14-d128",
                                                 /*eval_sentences=*/48);
}

void run_train(const Args& args, Report& report) {
  const core::TrainerConfig cfg = make_config(args.workload, args.seed);
  // The load: kWorkers pool threads; the trainer thread waits on them.
  add_run_manifest(report, args, kWorkers, kWorkers);
  report.manifest("stages", static_cast<double>(cfg.engine.num_stages));
  report.manifest("microbatches", static_cast<double>(cfg.engine.num_microbatches));
  report.manifest("microbatch_size", static_cast<double>(cfg.microbatch_size));
  if (args.trace) {
    run_traced(args, cfg, report);
  } else {
    run_end_to_end(args, cfg, report);
  }
}

}  // namespace perfbench

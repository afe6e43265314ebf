#include "src/core/trainer.h"

#include <stdexcept>
#include <utility>

#include "src/core/metrics_observer.h"
#include "src/core/repartition_observer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/kernels/registry.h"
#include "src/util/cli.h"

namespace pipemare::core {

namespace {

/// Flag-routing table for the shared backend CLI: which built-in backend
/// honors which backend-specific flag. parse_backend_cli enforces it for
/// the built-in names (custom registered backends own their flags); the
/// serve-side CLI (serve/serve_cli.cpp) reuses the same mechanism for its
/// policy-specific flags.
std::span<const util::FlagRule> backend_flag_rules() {
  static const std::vector<util::FlagRule> rules = {
      {"steal",
       {"threaded_steal"},
       "applies to the threaded_steal backend; pass --backend=threaded_steal"},
      {"max-delay",
       {"hogwild", "threaded_hogwild"},
       "applies to the hogwild backends; pass --backend=hogwild or "
       "--backend=threaded_hogwild"},
      {"workers",
       {"threaded_hogwild", "threaded_steal"},
       "applies to the worker-pool backends; pass --backend=threaded_hogwild "
       "or --backend=threaded_steal"},
  };
  return rules;
}

bool is_builtin_backend(const std::string& name) {
  return name == "sequential" || name == "threaded" || name == "hogwild" ||
         name == "threaded_hogwild" || name == "threaded_steal";
}

}  // namespace

EpochTimer::EpochTimer() : epoch_start_(std::chrono::steady_clock::now()) {}

void EpochTimer::on_epoch(EpochRecord& record) {
  auto now = std::chrono::steady_clock::now();
  record.seconds = std::chrono::duration<double>(now - epoch_start_).count();
  epoch_start_ = now;
}

std::string backend_cli_help() {
  std::string names;
  for (const auto& name : BackendRegistry::instance().names()) {
    if (!names.empty()) names += '|';
    names += name;
  }
  return "  --backend=<" + names +
         ">\n"
         "  --partition=uniform|balanced[,measured|,calibrated]\n"
         "  --kernels=naive|tiled (tensor kernel backend; both bitwise-equal)\n"
         "  --max-delay=<float>   (hogwild family: delay truncation bound)\n"
         "  --workers=<int>       (threaded_hogwild, threaded_steal)\n"
         "  --steal=off|load|det|forced (threaded_steal)\n"
         "  --repartition=off|auto[,<threshold>]  (threaded, threaded_steal: "
         "epoch-boundary dynamic repartitioning)\n"
         "  --trace=<file>        (Chrome trace-event JSON; open in Perfetto)\n"
         "  --metrics=<file>      (per-epoch metrics snapshot JSON)\n";
}

void parse_backend_cli(const util::Cli& cli, TrainerConfig& cfg) {
  const std::string name = cli.get("backend", cfg.backend.name);
  BackendRegistry::instance().require(name);
  cfg.backend.name = name;
  // Flags the selected built-in backend cannot honor are rejected via the
  // routing table instead of being silently dropped; custom registered
  // backends are left untouched (their flags are the caller's business).
  util::reject_mismatched_flags(cli, "parse_backend_cli", name,
                                is_builtin_backend(name), backend_flag_rules());
  // --repartition is value-dependent (=off is legal everywhere), so it
  // stays outside the table.
  if (cli.has("repartition")) {
    cfg.repartition = pipeline::parse_repartition_spec(cli.get("repartition", "off"));
    if (cfg.repartition.enabled &&
        (name == "sequential" || name == "hogwild" || name == "threaded_hogwild")) {
      throw std::invalid_argument(
          "parse_backend_cli: --repartition=auto needs a repartition-capable, "
          "stage-instrumented backend; pass --backend=threaded or "
          "--backend=threaded_steal");
    }
  }
  if (cli.has("partition")) {
    const std::string spec = cli.get("partition", "uniform");
    // Token grammar: <strategy>[,measured|,calibrated]. The cost model
    // itself rejects measured+calibrated; here each token must parse.
    std::string strategy = spec;
    std::string modifier;
    if (auto comma = spec.find(','); comma != std::string::npos) {
      strategy = spec.substr(0, comma);
      modifier = spec.substr(comma + 1);
    }
    cfg.engine.partition.measured = false;
    cfg.engine.partition.calibrated = false;
    if (strategy == "uniform" && modifier.empty()) {
      cfg.engine.partition.strategy = pipeline::PartitionStrategy::Uniform;
    } else if (strategy == "balanced" &&
               (modifier.empty() || modifier == "measured" ||
                modifier == "calibrated")) {
      cfg.engine.partition.strategy = pipeline::PartitionStrategy::Balanced;
      cfg.engine.partition.measured = modifier == "measured";
      cfg.engine.partition.calibrated = modifier == "calibrated";
    } else {
      throw std::invalid_argument(
          "parse_backend_cli: --partition='" + spec +
          "' is not recognized; use uniform, balanced, balanced,measured, or "
          "balanced,calibrated");
    }
  }
  // Kernel selection is process-global (the tensor ops dispatch through
  // one registry), not per-backend — every backend sees the same kernels
  // and, because naive and tiled are bitwise-equal, the same curves.
  if (cli.has("kernels")) {
    const std::string kspec = cli.get("kernels", "tiled");
    auto kind = tensor::kernels::KernelRegistry::parse(kspec);
    if (!kind) {
      throw std::invalid_argument("parse_backend_cli: --kernels='" + kspec +
                                  "' is not recognized; use naive or tiled");
    }
    tensor::kernels::KernelRegistry::set_kind(*kind);
  }
  if (cli.has("kernel-lanes")) {
    throw std::invalid_argument(
        "parse_backend_cli: --kernel-lanes was removed; GEMMs run on the "
        "calling worker (use --workers for parallelism)");
  }
  // Observability flags are universal (every backend is instrumented), so
  // they stay outside the flag-routing table.
  cfg.trace_path = cli.get("trace", cfg.trace_path);
  cfg.metrics_path = cli.get("metrics", cfg.metrics_path);
  if (name == "hogwild") {
    HogwildOptions opts;
    if (const auto* prev = std::get_if<HogwildOptions>(&cfg.backend.options)) {
      opts = *prev;
    } else if (const auto* prev_thr =
                   std::get_if<ThreadedHogwildOptions>(&cfg.backend.options)) {
      opts.max_delay = prev_thr->max_delay;
      opts.mean_delay = prev_thr->mean_delay;
    }
    opts.max_delay = cli.get_double("max-delay", opts.max_delay);
    cfg.backend.options = std::move(opts);
  } else if (name == "threaded_hogwild") {
    ThreadedHogwildOptions opts;
    if (const auto* prev = std::get_if<ThreadedHogwildOptions>(&cfg.backend.options)) {
      opts = *prev;
    } else if (const auto* prev_seq = std::get_if<HogwildOptions>(&cfg.backend.options)) {
      opts.max_delay = prev_seq->max_delay;
      opts.mean_delay = prev_seq->mean_delay;
    } else if (const auto* prev_steal = std::get_if<StealOptions>(&cfg.backend.options)) {
      // Worker counts carry between the worker-pool backends.
      opts.workers = prev_steal->workers;
    }
    opts.max_delay = cli.get_double("max-delay", opts.max_delay);
    opts.workers = cli.get_int("workers", opts.workers);
    cfg.backend.options = std::move(opts);
  } else if (name == "threaded_steal") {
    StealOptions opts;
    if (const auto* prev = std::get_if<StealOptions>(&cfg.backend.options)) {
      opts = *prev;
    } else if (const auto* prev_thr =
                   std::get_if<ThreadedHogwildOptions>(&cfg.backend.options)) {
      opts.workers = prev_thr->workers;
    }
    opts.workers = cli.get_int("workers", opts.workers);
    if (cli.has("steal")) {
      opts.mode = sched::parse_steal_mode(cli.get("steal", "load"));
    }
    cfg.backend.options = std::move(opts);
  } else if (name == "sequential" || name == "threaded") {
    // A --backend switch must not leave another backend's preset options
    // behind (e.g. a driver presets {"hogwild", HogwildOptions{...}} and
    // the user passes --backend=threaded); drop anything that is not the
    // target backend's own option struct. Custom registered backends are
    // left untouched — their options are the caller's business.
    const bool matches =
        std::holds_alternative<std::monostate>(cfg.backend.options) ||
        (name == "sequential" &&
         std::holds_alternative<SequentialOptions>(cfg.backend.options)) ||
        (name == "threaded" &&
         std::holds_alternative<ThreadedOptions>(cfg.backend.options));
    if (!matches) cfg.backend.options = {};
  }
}

TrainResult train(const Task& task, TrainerConfig cfg,
                  std::span<StepObserver* const> observers) {
  if (cfg.minibatch_size % cfg.microbatch_size != 0) {
    throw std::invalid_argument("train: minibatch must be a multiple of microbatch");
  }
  cfg.engine.num_microbatches = cfg.num_microbatches();
  const BackendConfig& backend = cfg.backend;
  // Balanced partitioning wants a probe microbatch for cost profiling
  // (shape-aware analytic estimates, or the timed reps of measured mode),
  // and the work-stealing backend wants one even under a uniform split —
  // its StealPolicy victim ranking is seeded from cost-model predictions,
  // and without a probe the shape-blind intrinsic fallback can rank a
  // shape-dependent model's stages wrongly for the whole run in the
  // fixed-order (det/forced) modes. The task's first training microbatch
  // is a representative sample. A training set smaller than one
  // microbatch still probes with whatever examples exist (per-stage cost
  // *ratios* barely move with row count).
  const int probe_rows = std::min(cfg.microbatch_size, task.train_size());
  if ((cfg.engine.partition.strategy == pipeline::PartitionStrategy::Balanced ||
       backend.name == "threaded_steal") &&
      !cfg.engine.partition.probe && probe_rows > 0) {
    std::vector<int> idx(static_cast<std::size_t>(probe_rows));
    for (int i = 0; i < probe_rows; ++i) idx[static_cast<std::size_t>(i)] = i;
    auto probe_mb = task.minibatch(idx, probe_rows);
    cfg.engine.partition.probe =
        std::make_shared<const nn::Flow>(std::move(probe_mb.inputs.at(0)));
  }
  // Validate before build_model so a bad configuration fails fast instead
  // of constructing (and discarding) a potentially large model first;
  // create() re-validates with the model for the stage-count bound.
  BackendRegistry::instance().validate(backend, cfg.engine);
  auto engine = BackendRegistry::instance().create(task.build_model(), backend,
                                                  cfg.engine, cfg.seed);
  // Observability wiring: tracing covers the whole run (enable here, one
  // export at the end); the metrics observer rides the observer list like
  // any other, after the user's (so their on_epoch sampling is reflected)
  // and before the repartitioner (whose counter resets it must not miss).
  MetricsObserver metrics_observer(*engine, cfg.metrics_path);
  std::vector<StepObserver*> obs(observers.begin(), observers.end());
  if (!cfg.metrics_path.empty()) obs.push_back(&metrics_observer);
  const bool tracing = !cfg.trace_path.empty();
  if (tracing) obs::TraceRecorder::instance().enable();

  TrainResult result;
  if (!cfg.repartition.enabled) {
    result = train_loop(task, *engine, cfg, obs);
  } else {
    // Dynamic repartitioning: the observer runs *after* the user observers
    // (they sample the epoch's stage stats before it resets the counters)
    // and notifies them through on_repartition when it migrates.
    if (!engine->supports_repartition() || engine->stage_stats().empty()) {
      throw std::invalid_argument(
          "train: repartition=auto needs a repartition-capable, "
          "stage-instrumented backend ('threaded', 'threaded_steal'); backend '" +
          std::string(engine->name()) + "' is not");
    }
    RepartitionObserver repartitioner(*engine, cfg.repartition, obs);
    std::vector<StepObserver*> obs_with_rep = obs;
    obs_with_rep.push_back(&repartitioner);
    result = train_loop(task, *engine, cfg, obs_with_rep);
  }

  if (tracing) {
    obs::TraceRecorder::instance().disable();
    obs::write_chrome_trace(cfg.trace_path);
  }
  if (!cfg.metrics_path.empty()) {
    obs::MetricsRegistry::instance().write_json(cfg.metrics_path);
  }
  return result;
}

}  // namespace pipemare::core

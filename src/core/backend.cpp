#include "src/core/backend.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/engine_backend.h"

namespace pipemare::core {

void ExecutionBackend::repartition(const pipeline::Partition& /*next*/) {
  throw std::logic_error("backend '" + std::string(name()) +
                         "' does not support dynamic repartitioning "
                         "(supports_repartition() is false)");
}

pipeline::StepResult ExecutionBackend::train_step(
    const std::vector<nn::Flow>& micro_inputs,
    const std::vector<tensor::Tensor>& micro_targets, const nn::LossHead& head,
    const pipeline::StepUpdate& update) {
  return pipeline::serial_train_step(*this, micro_inputs, micro_targets, head, update);
}

std::string_view backend_options_name(const BackendOptions& options) {
  return std::visit(
      [](const auto& alt) -> std::string_view {
        using T = std::decay_t<decltype(alt)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return "(backend defaults)";
        } else {
          return T::kName;
        }
      },
      options);
}

namespace {

/// Extracts the backend's option struct from the tagged variant: monostate
/// yields defaults, the matching alternative is returned, anything else is
/// a configuration error.
template <class Opts>
Opts options_as(const BackendConfig& cfg) {
  if (std::holds_alternative<std::monostate>(cfg.options)) return Opts{};
  if (const Opts* opts = std::get_if<Opts>(&cfg.options)) return *opts;
  throw std::invalid_argument(
      "backend '" + cfg.name + "' takes " + std::string(Opts::kName) +
      " (or no options), but BackendConfig::options holds " +
      std::string(backend_options_name(cfg.options)));
}

void reject_recompute(const char* backend, const pipeline::EngineConfig& engine) {
  if (engine.recompute_segments > 0) {
    throw std::invalid_argument(
        std::string("backend '") + backend +
        "': activation recomputation is modelled only by the analytic "
        "'sequential' backend; set engine.recompute_segments = 0");
  }
}

}  // namespace

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(std::string name, Validator validate,
                                       Factory create) {
  auto [it, inserted] = entries_.emplace(
      std::move(name), Entry{std::move(validate), std::move(create)});
  if (!inserted) {
    throw std::invalid_argument("BackendRegistry: backend '" + it->first +
                                "' is already registered");
  }
}

bool BackendRegistry::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> BackendRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iteration order: already sorted
}

void BackendRegistry::require(const std::string& name) const {
  if (entries_.find(name) != entries_.end()) return;
  std::string msg =
      "BackendRegistry: unknown execution backend '" + name + "'; available backends: ";
  bool first = true;
  for (const auto& [known, entry] : entries_) {
    if (!first) msg += ", ";
    msg += known;
    first = false;
  }
  throw std::invalid_argument(msg);
}

void BackendRegistry::validate(const BackendConfig& backend,
                               const pipeline::EngineConfig& engine) const {
  require(backend.name);
  entries_.find(backend.name)->second.validate(backend, engine, nullptr);
}

void BackendRegistry::validate(const BackendConfig& backend,
                               const pipeline::EngineConfig& engine,
                               const nn::Model& model) const {
  require(backend.name);
  entries_.find(backend.name)->second.validate(backend, engine, &model);
}

std::unique_ptr<ExecutionBackend> BackendRegistry::create(
    nn::Model model, const BackendConfig& backend,
    const pipeline::EngineConfig& engine, std::uint64_t seed) const {
  validate(backend, engine, model);
  auto built = entries_.find(backend.name)->second.create(std::move(model), backend,
                                                          engine, seed);
  // engine.method is the single source of truth for the training method;
  // backends whose own config lacks a method field (the Hogwild family)
  // pick it up here.
  built->set_method(engine.method);
  return built;
}

BackendRegistry::BackendRegistry() {
  // Every built-in backend shares the partition validation (strategy /
  // probe consistency, and — when the model is known — the stage-count
  // bound naming max_stages).
  auto check_partition = [](const char* name, const pipeline::EngineConfig& engine,
                            const nn::Model* model) {
    pipeline::validate_partition_config(name, model, engine.num_stages,
                                        engine.split_bias, engine.partition);
  };

  register_backend(
      "sequential",
      [check_partition](const BackendConfig& b, const pipeline::EngineConfig& engine,
                        const nn::Model* model) {
        options_as<SequentialOptions>(b);
        check_partition("sequential", engine, model);
      },
      [](nn::Model model, const BackendConfig&, const pipeline::EngineConfig& engine,
         std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        return std::make_unique<SequentialBackend>("sequential", std::move(model),
                                                   engine, seed);
      });

  register_backend(
      "threaded",
      [check_partition](const BackendConfig& b, const pipeline::EngineConfig& engine,
                        const nn::Model* model) {
        options_as<ThreadedOptions>(b);
        reject_recompute("threaded", engine);
        check_partition("threaded", engine, model);
      },
      [](nn::Model model, const BackendConfig&, const pipeline::EngineConfig& engine,
         std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        return std::make_unique<ThreadedStealBackend>(
            "threaded", std::move(model), sched::threaded_config(engine), seed);
      });

  register_backend(
      "hogwild",
      [check_partition](const BackendConfig& b, const pipeline::EngineConfig& engine,
                        const nn::Model* model) {
        auto opts = options_as<HogwildOptions>(b);
        reject_recompute("hogwild", engine);
        check_partition("hogwild", engine, model);
        hogwild::validate_config(hogwild::from_engine_config(
            engine, opts.max_delay, /*num_workers=*/0, std::move(opts.mean_delay)));
      },
      [](nn::Model model, const BackendConfig& b, const pipeline::EngineConfig& engine,
         std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        auto opts = options_as<HogwildOptions>(b);
        return std::make_unique<HogwildBackend>(
            "hogwild", std::move(model),
            hogwild::from_engine_config(engine, opts.max_delay, /*num_workers=*/0,
                                        std::move(opts.mean_delay)),
            seed);
      });

  register_backend(
      "threaded_steal",
      [check_partition](const BackendConfig& b, const pipeline::EngineConfig& engine,
                        const nn::Model* model) {
        auto opts = options_as<StealOptions>(b);
        reject_recompute("threaded_steal", engine);
        check_partition("threaded_steal", engine, model);
        if (opts.workers < 0 || opts.workers > sched::kMaxWorkers) {
          throw std::invalid_argument(
              "backend 'threaded_steal': workers must be in [0, " +
              std::to_string(sched::kMaxWorkers) + "] (0 = min(cores, num_stages))");
        }
      },
      [](nn::Model model, const BackendConfig& b, const pipeline::EngineConfig& engine,
         std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        auto opts = options_as<StealOptions>(b);
        sched::StealConfig cfg;
        cfg.engine = engine;
        cfg.workers = opts.workers;
        cfg.mode = opts.mode;
        return std::make_unique<ThreadedStealBackend>("threaded_steal",
                                                      std::move(model),
                                                      std::move(cfg), seed);
      });

  register_backend(
      "threaded_hogwild",
      [check_partition](const BackendConfig& b, const pipeline::EngineConfig& engine,
                        const nn::Model* model) {
        auto opts = options_as<ThreadedHogwildOptions>(b);
        reject_recompute("threaded_hogwild", engine);
        check_partition("threaded_hogwild", engine, model);
        hogwild::validate_config(hogwild::from_engine_config(
            engine, opts.max_delay, opts.workers, std::move(opts.mean_delay)));
      },
      [](nn::Model model, const BackendConfig& b, const pipeline::EngineConfig& engine,
         std::uint64_t seed) -> std::unique_ptr<ExecutionBackend> {
        auto opts = options_as<ThreadedHogwildOptions>(b);
        return std::make_unique<ThreadedHogwildBackend>(
            "threaded_hogwild", std::move(model),
            hogwild::from_engine_config(engine, opts.max_delay, opts.workers,
                                        std::move(opts.mean_delay)),
            seed);
      });
}

}  // namespace pipemare::core

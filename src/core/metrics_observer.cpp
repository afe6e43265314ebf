#include "src/core/metrics_observer.h"

#include <string>
#include <utility>

#include "src/core/engine_backend.h"
#include "src/obs/metrics.h"

namespace pipemare::core {

namespace {

obs::Gauge& gauge(const std::string& name) {
  return obs::MetricsRegistry::instance().gauge(name);
}

}  // namespace

MetricsObserver::MetricsObserver(ExecutionBackend& backend,
                                 std::string metrics_path)
    : backend_(&backend), metrics_path_(std::move(metrics_path)) {}

void MetricsObserver::on_epoch(EpochRecord& record) {
  gauge("train.epoch").set(static_cast<double>(record.epoch));
  gauge("train.loss").set(record.train_loss);
  if (!record.is_divergence_record()) gauge("train.metric").set(record.metric);
  gauge("train.param_norm").set(record.param_norm);

  // Engine-specific instrumentation that lives behind the concrete
  // surfaces (no ExecutionBackend virtuals for these — they are
  // engine-private notions, mirrored into the registry here so every
  // consumer reads one uniform snapshot).
  if (const auto* steal = dynamic_cast<const ThreadedStealBackend*>(backend_)) {
    // This engine's exact cumulative total (the "sched.steals" counter
    // counts every runner in the process since start).
    gauge("sched.total_steals")
        .set(static_cast<double>(steal->engine().total_steals()));
  }

  if (!metrics_path_.empty()) {
    obs::MetricsRegistry::instance().write_json(metrics_path_);
  }
}

}  // namespace pipemare::core

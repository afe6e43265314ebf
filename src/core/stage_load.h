#pragma once

// StepObserver that turns a backend's per-slot busy/idle/wait counters
// into per-epoch load records — the measurement side of the partition cost
// model (predicted stage cost vs observed busy time) and the refinement
// input of the work-stealing runtime's victim policy. A slot is a stage
// for "threaded" / "threaded_steal" and a worker for "threaded_hogwild"
// (see pipeline::StageStats); the steal counters ride along, so steal
// counts per stage surface on every epoch record.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/backend.h"
#include "src/core/trainer.h"

namespace pipemare::core {

/// Samples the observed backend's stage_stats() at every epoch boundary.
///
/// Works over any ExecutionBackend: backends without per-slot
/// instrumentation (sequential, hogwild) report empty stats and the
/// observer deactivates itself. Attach to a backend created by the
/// registry, then pass to train_loop's observer list:
///
///   auto backend = BackendRegistry::instance().create(...);
///   StageLoadObserver load(*backend);
///   StepObserver* obs[] = {&load};
///   core::train_loop(task, *backend, cfg, obs);
///   if (load.active()) report(load.epoch_stats().back());
class StageLoadObserver final : public StepObserver {
 public:
  using StageStats = pipeline::StageStats;

  explicit StageLoadObserver(const ExecutionBackend& backend)
      : backend_(&backend) {}

  /// False when the observed backend has no per-slot instrumentation.
  bool active() const { return !sample().empty(); }

  void on_epoch(EpochRecord& /*record*/) override {
    auto cumulative = sample();
    if (cumulative.empty()) return;
    auto delta = cumulative;
    if (last_.size() != cumulative.size()) {
      // Slot count changed mid-run (a backend swap or reconfiguration the
      // baseline cannot describe): treat the cumulative values as this
      // epoch's delta rather than indexing a mismatched baseline.
      last_.clear();
    }
    // Counters are cumulative and monotone unless someone called
    // reset_stage_stats() mid-epoch, which zeroes every slot at once. So one
    // regressed counter means the whole baseline is stale, and the
    // cumulative values ARE the epoch's delta. Deciding per slot would miss
    // a reset behind a slot that ran more work since it than before it (a
    // worker slot may run any share of a step).
    auto regressed = [](const StageStats& now, const StageStats& before) {
      return now.busy_ns < before.busy_ns || now.pop_wait_ns < before.pop_wait_ns ||
             now.items < before.items || now.stolen_items < before.stolen_items ||
             now.stolen_ns < before.stolen_ns;
    };
    bool stale = last_.empty();
    for (std::size_t s = 0; s < delta.size(); ++s) {
      stale = stale || regressed(cumulative[s], last_[s]);
    }
    if (!stale) {
      for (std::size_t s = 0; s < delta.size(); ++s) {
        delta[s].busy_ns -= last_[s].busy_ns;
        delta[s].pop_wait_ns -= last_[s].pop_wait_ns;
        delta[s].items -= last_[s].items;
        delta[s].stolen_items -= last_[s].stolen_items;
        delta[s].stolen_ns -= last_[s].stolen_ns;
      }
    }
    last_ = std::move(cumulative);
    epoch_stats_.push_back(std::move(delta));
  }

  /// The per-slot baselines assume counters accumulate within one
  /// execution regime; both events below reset the backend's view of the
  /// world (a repartition also resets the counters themselves), so drop
  /// the baseline — otherwise the first post-event delta would compare
  /// new counters against a stale epoch.
  void on_method_switch(pipeline::Method /*from*/, pipeline::Method /*to*/,
                        int /*epoch*/) override {
    last_ = sample();
  }
  void on_repartition(const pipeline::Partition& /*from*/,
                      const pipeline::Partition& /*to*/, int /*epoch*/) override {
    last_.clear();
  }

  /// Per-epoch per-slot load deltas, one entry per observed epoch.
  const std::vector<std::vector<StageStats>>& epoch_stats() const {
    return epoch_stats_;
  }

  /// Cumulative stats at the last observed epoch boundary.
  const std::vector<StageStats>& totals() const { return last_; }

  /// Busy-time imbalance of a stats vector: max busy / mean busy (1.0 =
  /// perfectly balanced). The wall-clock analogue of
  /// Partition::balance_ratio, computed by the same helper.
  static double busy_spread(const std::vector<StageStats>& stats) {
    std::vector<double> busy;
    busy.reserve(stats.size());
    for (const auto& s : stats) busy.push_back(static_cast<double>(s.busy_ns));
    return pipeline::balance_ratio(busy);
  }

 private:
  std::vector<StageStats> sample() const { return backend_->stage_stats(); }

  const ExecutionBackend* backend_ = nullptr;
  std::vector<StageStats> last_;
  std::vector<std::vector<StageStats>> epoch_stats_;
};

}  // namespace pipemare::core

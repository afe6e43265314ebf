#pragma once

// Epoch-boundary dynamic repartitioning (the BaPipe-flavoured closing of
// the cost-model loop): compare each stage's *observed* busy time against
// the partition's *predicted* stage cost, and when the observed balance
// ratio drifts past a threshold, recompute the balanced min-max split from
// observed per-unit costs and migrate weight units across stage
// boundaries.
//
// Why migration is cheap under the WeightVersions protocol: committed
// weight versions are *full* flat vectors (not per-stage slabs), optimizer
// state is flat and offset-keyed, and the 1F1B Schedule depends only on
// (P, N) — so moving a unit between stages changes nothing but the
// unit -> stage map the weight views read the staleness from (and the
// per-stage T2 gap of the materialized backward view, which
// WeightVersions::refresh re-derives). The engines drain to a quiescent
// point between minibatches anyway (workers park on the generation
// barrier), so an engine's repartition() is: swap the Partition, refresh
// the store, rebuild the per-stage module/unit ranges, done. No weight
// bytes, history slabs, or optimizer moments move; tests assert
// the migrated state is bit-identical to a fresh engine built with the
// new split.
//
// This header is core-free policy; the core::RepartitionObserver
// (src/core/repartition_observer.h) wires it into the training loop.

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/nn/model.h"
#include "src/pipeline/partition.h"

namespace pipemare::pipeline {

/// Knobs of the epoch-boundary repartitioning loop
/// (`--repartition=off|auto[,<threshold>]` on every example/bench driver).
struct RepartitionConfig {
  bool enabled = false;

  /// Migrate when the observed busy-time balance ratio (max/mean, 1.0 =
  /// perfect) exceeds this AND the replanned split predicts a strictly
  /// better ratio. 1.25 tolerates measurement noise while still catching
  /// genuinely skewed splits.
  double threshold = 1.25;

  /// Epochs that must elapse between migrations (>= 1): the post-migration
  /// epoch measures the new split before another move is considered.
  int min_epochs_between = 1;
};

/// Parses the `--repartition=` value: "off" disables, "auto" enables with
/// the default threshold, "auto,<t>" sets it (t > 1.0). Throws
/// std::invalid_argument naming the accepted forms.
RepartitionConfig parse_repartition_spec(std::string_view text);

std::string repartition_spec_name(const RepartitionConfig& cfg);

/// Distributes observed per-stage busy nanoseconds down to per-unit costs:
/// each unit receives its stage's observed busy time, split across the
/// stage's units proportionally to their *predicted* costs (the
/// within-stage ratios are the best available estimate — observation is
/// per-stage). A stage with zero predicted cost splits evenly. The result
/// feeds the same balanced DP the static planner uses.
std::vector<double> observed_unit_costs(const Partition& partition,
                                        std::span<const std::uint64_t> busy_ns);

/// Migration-compatibility check: `to` must repartition the same units
/// (same count, modules, offsets, sizes, split_bias) across the same
/// number of stages as `from`. Throws std::invalid_argument otherwise.
/// Engines call this at the top of repartition().
void validate_repartition(const Partition& from, const Partition& to);

/// One planning decision (also the BENCH/observer reporting record).
struct RepartitionDecision {
  bool migrate = false;
  double observed_ratio = 1.0;  ///< balance ratio of the observed busy ns
  double planned_ratio = 1.0;   ///< predicted ratio of the replanned split
};

/// The planner: given the current partition and one epoch's observed
/// per-stage busy time, decide whether to migrate and to what.
class Repartitioner {
 public:
  Repartitioner(const nn::Model& model, RepartitionConfig cfg);

  const RepartitionConfig& config() const { return cfg_; }

  /// Returns the new partition when migration is warranted (observed ratio
  /// past the threshold, the replanned balanced split predicts strictly
  /// better, and the unit -> stage map actually changes), nullopt
  /// otherwise. `decision`, when non-null, receives the ratios either way.
  std::optional<Partition> plan(const Partition& current,
                                std::span<const std::uint64_t> busy_ns,
                                RepartitionDecision* decision = nullptr) const;

 private:
  const nn::Model* model_;
  RepartitionConfig cfg_;
};

}  // namespace pipemare::pipeline

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pipemare::sched {

/// How (and whether) idle workers steal work from other stages' deques.
enum class StealMode {
  /// Never steal: each worker drains only the stages it is home to. With
  /// W == P this is stage-per-thread execution — the "threaded" backend
  /// (see threaded_config).
  Disabled,
  /// Steal from the busy-share leader: victim ranking is seeded from the
  /// partition cost model's predicted stage costs and re-ranked between
  /// minibatches from the observed per-stage busy counters. The default.
  LoadAware,
  /// Fixed victim order (predicted costs only, never re-ranked at
  /// runtime), so the victim ranking is a pure function of observable
  /// pre-run state. Training curves are bitwise run-to-run reproducible in
  /// every mode — the engine's numerics are scheduling-independent by
  /// construction — this mode additionally keeps the steal policy fixed.
  Deterministic,
  /// Stress mode for tests: workers try to steal *before* draining their
  /// own stages (fixed victim order like Deterministic), which maximizes
  /// cross-stage execution and is what the bitwise-parity-under-stealing
  /// tests run.
  Forced,
};

std::string steal_mode_name(StealMode mode);

/// Parses "off"/"disabled", "load"/"load-aware", "det"/"deterministic",
/// "forced"; throws std::invalid_argument naming the accepted spellings.
StealMode parse_steal_mode(std::string_view text);

/// Victim selection for idle workers: ranks stages by busy share, busiest
/// first. Seeded from the partition cost model's predicted per-stage costs
/// (so the very first minibatch already steals from the predicted leader);
/// in LoadAware mode `refresh` re-ranks from observed busy nanoseconds
/// between minibatches, in the deterministic modes the seeded order is
/// fixed for the lifetime of the run.
///
/// Not internally synchronized: the owning engine calls refresh() between
/// minibatches only, and the worker-release barrier orders the write
/// before any worker reads victim_order().
class StealPolicy {
 public:
  StealPolicy(StealMode mode, std::vector<double> predicted_cost);

  /// Stage indices, preferred victim first. Stable for a given ranking
  /// input: ties break toward the lower stage index.
  const std::vector<int>& victim_order() const { return order_; }

  /// Re-ranks victims by observed cumulative busy time (LoadAware only; a
  /// no-op in the other modes). All-zero observations keep the predicted
  /// seed — the first minibatch has nothing measured yet.
  void refresh(std::span<const std::uint64_t> busy_ns);

 private:
  void rank(std::span<const double> share);

  StealMode mode_;
  std::vector<double> predicted_;
  std::vector<int> order_;
};

}  // namespace pipemare::sched

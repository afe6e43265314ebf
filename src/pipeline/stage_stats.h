#pragma once

#include <cstdint>

namespace pipemare::pipeline {

/// Per-slot load counters shared by every instrumented execution backend.
/// One slot is one unit of execution-side parallelism: a pipeline *stage*
/// for the stage-partitioned engines ("threaded", "threaded_steal"), a
/// *worker thread* for the threaded Hogwild backend (which has no stage
/// workers) and for StealingEngine::worker_stats(). Only ratios between
/// slots are meaningful; absolute nanoseconds depend on the host.
///
/// This is the measurement substrate the partition cost model is validated
/// against (predicted stage cost vs observed busy share) and what the
/// work-stealing runtime balances: a slot whose busy share dwarfs the
/// others bounds wall-clock, and its siblings' pop-wait is the headroom
/// stealing reclaims.
struct StageStats {
  std::uint64_t busy_ns = 0;       ///< compute (forward/backward/loss)
  std::uint64_t pop_wait_ns = 0;   ///< blocked waiting for work (idle/starved)
  std::uint64_t items = 0;         ///< forward + backward items processed

  /// Work-stealing backends only (0 elsewhere). For a stage slot: tasks of
  /// this stage executed by a worker other than the stage's home worker,
  /// and the busy time of those tasks. For a worker slot: tasks this
  /// worker stole from stages it does not own.
  std::uint64_t stolen_items = 0;  ///< executed elsewhere / stolen
  std::uint64_t stolen_ns = 0;     ///< busy time of the stolen items
};

}  // namespace pipemare::pipeline

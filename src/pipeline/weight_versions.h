#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/nn/model.h"
#include "src/obs/metrics.h"
#include "src/pipeline/config.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/schedule.h"

namespace pipemare::pipeline {

/// Registry-owned per-stage weight-staleness histograms
/// ("train.staleness.stage<k>", 64 unit-width buckets): every engine that
/// measures observed weight delay registers through this one helper, so a
/// single metric family covers all five backends with identical bounds.
/// Histogram::observe is a wait-free relaxed-atomic write and
/// Histogram::max_observed() is exact regardless of the bucket bounds.
std::vector<obs::Histogram*> staleness_histograms(int stages);

/// The versioned-weight state every pipeline execution backend shares: the
/// live weights, the bounded ring of committed weight versions (which
/// doubles as PipeDream's weight stash), and the Technique 2 delta EMA.
///
/// Every backend reads its per-(stage, microbatch) forward/backward
/// parameters through this class, which is what makes the backends
/// bitwise-equivalent: the weight bytes fed to every forward and backward
/// pass are computed by the same code from the same history.
///
/// Two ways to read them:
///  - The *views* (forward_view / backward_view) return a full-size flat
///    parameter span that points straight at bytes the store already
///    holds: the live weights, a committed ring slot, or the T2 backward
///    weights materialized once per commit. Only a mixed-version stage
///    (split_bias schedules a module's bias on the next stage) or
///    per-microbatch T2 assembles into the caller's `scratch`, which is
///    sized on first use. StealingEngine ("threaded", "threaded_steal")
///    runs on the views.
///  - The *assembly* calls (assemble_forward_units / assemble_backward_units)
///    always copy into a caller buffer. The sequential PipelineEngine runs
///    on them, so it stays the copying oracle the views are tested against.
///
/// Lifetime: a view is valid until the next commit of its units
/// (commit_update(), or commit_units() over them) or refresh(). A unit's
/// `live()` weights may be mutated only by the optimizer step that
/// precedes the unit's commit: the T2 backward view is derived from the
/// live weights at commit time.
///
/// Counting: every byte an assembly call writes and every byte the commit
/// publishes to the ring is added to the "train.weights.bytes_copied"
/// registry counter; the views add nothing on their fast paths.
///
/// `cfg`, `partition` and `schedule` are borrowed; the owning engine keeps
/// them alive (and may mutate `cfg.method` between minibatches, e.g. the
/// Technique 3 sync-to-async switch). After reassigning the borrowed
/// Partition (repartitioning), the engine must call refresh().
class WeightVersions {
 public:
  WeightVersions(const nn::Model& model, const EngineConfig& cfg,
                 const Partition& partition, const Schedule& schedule,
                 std::uint64_t seed);

  /// Live (most recent) weights; the caller's optimizer mutates these.
  std::span<float> live() { return live_; }
  std::span<const float> live() const { return live_; }

  /// Number of committed updates (= index of the live version).
  std::int64_t step() const { return step_; }

  /// Ring-buffer depth: max forward staleness + 2 versions are retained.
  int history_depth() const { return history_depth_; }

  /// Committed weight version `v`; throws if `v` is outside the retained
  /// window [step - history_depth + 1, step]. Negative `v` reads version 0.
  const std::vector<float>& version(std::int64_t v) const;

  /// Technique 2 EMA of per-step weight deltas.
  std::span<const float> delta() const { return delta_; }

  /// Forward-pass weights of microbatch `micro` for weight units
  /// [ufirst, ulast), as a full-size flat parameter span (only the units'
  /// positions are meaningful). Each unit reads the version its own
  /// stage's schedule staleness dictates: the live weights under Sync,
  /// version step - fwd_staleness(stage, micro) otherwise. Returns the
  /// live weights or that version's ring slot without copying when every
  /// unit reads one version; assembles into `scratch` only for a
  /// mixed-version range. Records the same staleness observations as
  /// assemble_forward_units.
  std::span<const float> forward_view(int ufirst, int ulast, int micro,
                                      std::vector<float>& scratch) const;

  /// Backward counterpart of forward_view: the forward view under
  /// PipeDream, the live weights under Sync and uncorrected PipeMare, and
  /// the T2 weights materialized by the last commit under PipeMare with
  /// per-stage T2. Only per-microbatch T2 assembles into `scratch`.
  std::span<const float> backward_view(int ufirst, int ulast, int micro,
                                       std::vector<float>& scratch) const;

  /// Copying form of forward_view: writes the units' forward-pass weights
  /// into the matching positions of `out` (a full-size flat parameter
  /// buffer; positions outside the units are untouched).
  void assemble_forward_units(int ufirst, int ulast, int micro,
                              std::span<float> out) const;

  /// Copying form of backward_view: the forward weights under Sync
  /// (trivially) and PipeDream (the stash — reassembled from the history,
  /// which is exactly what the stash is), the live weights under PipeMare,
  /// optionally T2-extrapolated toward what the forward saw.
  void assemble_backward_units(int ufirst, int ulast, int micro,
                               std::span<float> out) const;

  /// Publishes the mutated live weights as the next version, updates the
  /// T2 delta EMA and re-materializes the T2 backward view, in one sweep
  /// over the weights. The previous version is read from its ring slot.
  /// Call exactly once after each optimizer step. The one-call form of
  /// begin_commit(), commit_units() over every unit and publish_commit().
  void commit_update();

  /// The split commit, for an engine that commits each stage's units on
  /// the worker that ran the stage's last backward (StealingEngine):
  ///  - begin_commit() sizes the next version's ring slot. Call it on the
  ///    owning thread before the generation whose workers commit.
  ///  - commit_units(ufirst, ulast) writes the units' next-version ring
  ///    slot, T2 delta EMA and per-stage T2 backward weights from the live
  ///    weights. Safe concurrently on disjoint unit ranges while a
  ///    generation runs, provided every reader of those units' live or T2
  ///    backward weights in the step has finished: the slot it writes,
  ///    (step + 1) % history_depth, is older than any version a forward
  ///    pass of this step reads, and the views of other units never read
  ///    these units' positions.
  ///  - publish_commit() makes the written version current (++step) and
  ///    counts the commit's bytes. Call once, after every unit committed.
  /// Skipping publish_commit() leaves the current version intact, but the
  /// delta EMA and the T2 backward weights of committed units are then
  /// unspecified.
  void begin_commit();
  void commit_units(int ufirst, int ulast);
  void publish_commit();

  /// Copies units [ufirst, ulast) of the current version's ring slot back
  /// into the live weights, undoing an optimizer update that will not be
  /// committed (the slot holds the live weights of the last commit
  /// bitwise). Not counted in "train.weights.bytes_copied".
  void restore_units(int ufirst, int ulast);

  /// Re-derives the state that depends on the unit -> stage map (the T2
  /// backward view's per-unit gap). Call after the borrowed Partition was
  /// reassigned; only between minibatches.
  void refresh();

 private:
  /// The version unit `u`'s forward pass reads for microbatch `micro`
  /// (asynchronous methods; Sync reads the live weights).
  std::int64_t forward_version(int u, int micro) const;
  /// Records the observed forward staleness of units [ufirst, ulast).
  void record_forward_staleness(int ufirst, int ulast, int micro) const;
  /// assemble_forward_units without the staleness observations.
  void copy_forward_units(int ufirst, int ulast, int micro, std::span<float> out) const;
  /// Writes unit `u`'s backward weights into `out`: live - gap * delta for
  /// gap > 0 (Technique 2), a plain copy of the live weights otherwise.
  void write_t2_unit(int u, double gap, std::span<float> out) const;

  const EngineConfig& cfg_;
  const Partition& partition_;
  const Schedule& schedule_;

  // Version-ring-published state (deliberately NOT GUARDED_BY any mutex):
  // this class is lock-free by contract. The trainer thread writes step_
  // and sizes history_ slots only between minibatches (begin_commit /
  // publish_commit / refresh); workers call the const view and assembly
  // readers only inside a minibatch. The optimizer's update of live_ and
  // commit_units' writes to the next ring slot, delta_ and bwd_weights_
  // run either between minibatches (commit_update) or, in StealingEngine,
  // on the worker that ran a stage's last backward — after every read of
  // that stage's units in the step (the backward chain orders them) and
  // on units no other stage reads. The owning engine's generation barrier
  // — the TaskGraphRunner's in StealingEngine — is the happens-before
  // edge that publishes each commit to the next minibatch's workers.
  // Annotating these fields GUARDED_BY a capability would outlaw exactly
  // the lock-free reads that make the hot path scale.
  std::int64_t step_ = 0;  ///< number of committed updates (version index)
  int history_depth_ = 1;
  std::vector<std::vector<float>> history_;  ///< ring buffer of weight versions
  std::vector<float> live_;
  std::vector<float> delta_;  ///< T2 EMA of weight deltas
  /// Per-stage T2 backward weights, live - mean_tau_fwd(stage) * delta,
  /// materialized by each commit; empty unless per-stage T2 is configured.
  std::vector<float> bwd_weights_;

  // Per-stage weight-staleness histograms ("train.staleness.stage<k>"):
  // each forward read records the *observed* read-version delay
  // step - version, i.e. the paper's tau as actually experienced (clamped
  // at startup while step < staleness). Registry-owned pointers cached at
  // construction; Histogram::observe and Counter::add are relaxed-atomic
  // wait-free writes, so the lock-free contract above is untouched.
  std::vector<obs::Histogram*> staleness_;
  obs::Counter* bytes_copied_ = nullptr;  ///< "train.weights.bytes_copied"
};

}  // namespace pipemare::pipeline

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/model.h"
#include "src/pipeline/partition.h"
#include "src/pipeline/stage_stats.h"
#include "src/sched/task_graph_runner.h"
#include "src/serve/batch_scheduler.h"
#include "src/serve/checkpoint.h"
#include "src/serve/request_queue.h"
#include "src/util/sync.h"

namespace pipemare::serve {

/// Configuration of the serving runtime.
struct ServeConfig {
  int num_stages = 1;       ///< pipeline stages (partition granularity)
  int workers = 0;          ///< worker threads; 0 = min(cores, num_stages)
  bool split_bias = false;  ///< partition weight/bias units separately
  int queue_capacity = 64;  ///< admission queue bound (backpressure beyond)
  int slots = 0;            ///< in-flight microbatch slots; 0 = num_stages + 1
  BatchConfig batch;
  pipeline::PartitionSpec partition;
  std::string trace_path;    ///< --trace: Chrome trace JSON path ("" = off)
  std::string metrics_path;  ///< --metrics: metrics snapshot JSON ("" = off)
};

/// Throws std::invalid_argument on an unusable configuration. `model` may
/// be null (CLI-time validation before a model exists checks everything
/// model-independent).
void validate_serve_config(const ServeConfig& cfg, const nn::Model* model);

/// Aggregate request accounting, cumulative since construction.
struct ServeCounters {
  std::uint64_t submitted = 0;         ///< submit() calls
  std::uint64_t admitted = 0;          ///< requests that entered a microbatch
  std::uint64_t completed_ok = 0;      ///< Status::Ok responses
  std::uint64_t rejected_full = 0;     ///< Status::RejectedQueueFull
  std::uint64_t rejected_stopped = 0;  ///< Status::RejectedStopped
  std::uint64_t deadline_expired = 0;  ///< Status::DeadlineExceeded
  std::uint64_t errors = 0;            ///< Status::Error
  std::uint64_t batches = 0;           ///< microbatches dispatched
};

/// Continuous-batching inference runtime over the work-stealing scheduler:
/// the serving-side counterpart of sched::StealingEngine.
///
/// Execution model. Serving is the forward-only restriction of the
/// pipeline task graph: the model is cut into `num_stages` contiguous
/// stages by the same graph-linearized pipeline::Partition the training
/// engines use, each in-flight microbatch occupies one *slot* (its
/// activation Flow plus per-module caches), and running stage s of slot m
/// is one sched::Task{Forward, s, m}. The tasks run on the training
/// engine's scheduler, a sched::TaskGraphRunner of W workers with one open
/// generation per serving session: stage s is *home* to worker s mod W,
/// idle workers steal the oldest ready task from other stages (deepest
/// stage first, to drain in-flight batches), and non-home execution is
/// counted in the stolen_items / stolen_ns stats.
/// There is no weight-version protocol to preserve — inference reads one
/// frozen checkpoint — which is precisely why serving needs no staleness
/// machinery and W can be anything.
///
/// Admission. Clients call submit() from any thread; requests land in a
/// bounded RequestQueue (Full => an immediate RejectedQueueFull response —
/// backpressure is an explicit error, never an unbounded stall). A worker
/// with no ready task performs *admission* — the runner's idle step —
/// under the server mutex: expire
/// timed-out requests, ask the BatchScheduler whether to form a batch now
/// (continuous: whenever a slot is free; fixed: when max_batch are queued
/// or the oldest has waited max_wait_ms), pop the FIFO prefix of
/// batch-compatible requests, concatenate them into a free slot and push
/// the slot's stage-0 task. New requests therefore enter the pipeline at
/// stage-0 boundaries while earlier microbatches are still in flight —
/// continuous batching in the vLLM sense, restricted to whole-forward
/// requests.
///
/// Parity. Every in-tree module computes row i of a batched forward from
/// row i of the input alone (scalar kernels; per-row normalization,
/// attention and softmax; Dropout is identity when training = false), so a
/// request's rows of the batched output are bitwise-identical to running
/// model.forward on that request alone — regardless of worker count, batch
/// policy, or who stole which stage. tests/test_serve.cpp asserts this
/// across the whole grid; it is the serving analogue of the training
/// engines' bitwise-parity invariant.
///
/// Concurrency contracts. All serving state (slot occupancy, counters,
/// stop flag) is GUARDED_BY(m_); slot payloads (flow, caches, request
/// list) are owner-accessed — exactly one worker holds a slot's task at a
/// time, and handoff happens-before through the TaskQueue mutex. Lock
/// order: m_ -> (RequestQueue | runner -> TaskQueue | Ticket) internal
/// mutexes; those never take m_.
class PipelineServer {
 public:
  /// Validates the checkpoint against the model (shape digest + parameter
  /// count) and builds the partition; throws on mismatch. The worker
  /// threads are created parked — call start() to begin serving.
  PipelineServer(const nn::Model& model, ModelCheckpoint ckpt, ServeConfig cfg);
  ~PipelineServer();

  PipelineServer(const PipelineServer&) = delete;
  PipelineServer& operator=(const PipelineServer&) = delete;

  /// Opens the serving session (releases the parked workers). Call once.
  void start();

  /// Closes admission, drains every queued and in-flight request (partial
  /// batches flush immediately), and parks the workers. Idempotent; called
  /// by the destructor if still serving.
  void stop();

  /// Submits one inference request: `input.x` (plus optional `input.aux`)
  /// with a leading batch dimension; ctx/skip must be empty (throws
  /// std::invalid_argument otherwise). Never blocks: on a full queue or a
  /// stopped server the returned ticket is already completed with the
  /// rejection status. `timeout` (if given) sets the request deadline —
  /// a request still queued when it expires completes DeadlineExceeded.
  TicketPtr submit(nn::Flow input);
  TicketPtr submit(nn::Flow input, Clock::duration timeout);

  ServeCounters counters() const;

  /// The runner's per-stage and per-worker load counters, the same ones
  /// the training engine reports (so the StageLoadObserver carries over);
  /// a worker's pop_wait_ns includes waiting for admission. Safe to call
  /// while serving (relaxed atomics: transient skew, no torn values).
  std::vector<pipeline::StageStats> stage_stats() const { return runner_->stage_stats(); }
  std::vector<pipeline::StageStats> worker_stats() const { return runner_->worker_stats(); }
  void reset_stage_stats() { runner_->reset_stats(); }

  const pipeline::Partition& partition() const { return partition_; }
  const ServeConfig& config() const { return cfg_; }
  const nn::Model& model() const { return model_; }
  std::span<const float> weights() const { return weights_; }
  int num_workers() const { return runner_->num_workers(); }
  int num_slots() const { return static_cast<int>(slots_.size()); }

 private:
  /// One in-flight microbatch: the activation Flow between stages, the
  /// per-module caches its forwards write, and the admitted requests it
  /// carries. Owner-accessed (see class comment); only the busy/free bit
  /// lives under m_.
  struct Slot {
    nn::Flow flow;
    std::vector<nn::Cache> caches;
    std::vector<Request> requests;
    std::vector<int> rows;  ///< per-request row counts, request order
    Clock::time_point formed{};
  };

  TicketPtr submit_with_deadline(nn::Flow input, Clock::time_point deadline);
  /// The runner's task body: stage `task.stage` of slot `task.micro`.
  void execute(const sched::Task& task);
  /// Completes every ticket of `slot` with `base` (output/metrics filled
  /// per request for Ok) and frees the slot.
  void complete_slot(int slot, const Response& base, const tensor::Tensor* output);
  /// The runner's idle step: one admission round. Returns zero if a batch
  /// was dispatched, else how long the worker may sleep before a timer
  /// (batch flush or request deadline) needs another round. Closes the
  /// runner's generation once stop() has drained every request.
  Clock::duration admit();

  const nn::Model& model_;
  ServeConfig cfg_;
  std::vector<float> weights_;  ///< frozen checkpoint weights
  pipeline::Partition partition_;
  std::vector<pipeline::StageModuleRange> ranges_;  ///< per stage
  BatchScheduler scheduler_;

  RequestQueue queue_;
  std::vector<Slot> slots_;

  mutable util::Mutex m_;
  std::vector<std::uint8_t> slot_busy_ GUARDED_BY(m_);
  int active_slots_ GUARDED_BY(m_) = 0;
  std::uint64_t next_id_ GUARDED_BY(m_) = 0;
  bool started_ GUARDED_BY(m_) = false;
  bool stopping_ GUARDED_BY(m_) = false;
  bool stopped_ GUARDED_BY(m_) = false;
  ServeCounters counters_ GUARDED_BY(m_);

  std::unique_ptr<sched::TaskGraphRunner> runner_;  ///< last member: parks first
};

}  // namespace pipemare::serve

#include "src/serve/pipeline_server.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace pipemare::serve {

namespace {

// Registry-owned serve metrics, resolved once per process (the registry
// lookup is string-keyed; the hot path then pays one relaxed atomic op).
// Latency bucket bounds: 24 exponential buckets from 10us to ~2s cover
// the smoke models through deliberately-stalled deadline tests.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& completed;
  obs::Counter& rejected;
  obs::Counter& expired;
  obs::Counter& errors;
  obs::Counter& batches;
  obs::Histogram& queue_ms;
  obs::Histogram& total_ms;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m{
      obs::MetricsRegistry::instance().counter("serve.submitted"),
      obs::MetricsRegistry::instance().counter("serve.admitted"),
      obs::MetricsRegistry::instance().counter("serve.completed"),
      obs::MetricsRegistry::instance().counter("serve.rejected"),
      obs::MetricsRegistry::instance().counter("serve.expired"),
      obs::MetricsRegistry::instance().counter("serve.errors"),
      obs::MetricsRegistry::instance().counter("serve.batches"),
      obs::MetricsRegistry::instance().histogram(
          "serve.queue_ms", obs::Histogram::exponential_bounds(0.01, 2.0, 24)),
      obs::MetricsRegistry::instance().histogram(
          "serve.total_ms", obs::Histogram::exponential_bounds(0.01, 2.0, 24)),
  };
  return m;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

void validate_serve_config(const ServeConfig& cfg, const nn::Model* model) {
  if (cfg.workers < 0 || cfg.workers > sched::kMaxWorkers) {
    throw std::invalid_argument("serve: workers must be in [0, " +
                                std::to_string(sched::kMaxWorkers) + "] (0 = auto)");
  }
  if (cfg.queue_capacity < 1) {
    throw std::invalid_argument("serve: queue_capacity must be >= 1");
  }
  if (cfg.slots < 0) {
    throw std::invalid_argument("serve: slots must be >= 0 (0 = num_stages + 1)");
  }
  validate_batch_config(cfg.batch);
  pipeline::validate_partition_config("serve", model, cfg.num_stages,
                                      cfg.split_bias, cfg.partition);
}

namespace {
/// Runs config validation before any member constructor consumes the
/// config (BatchScheduler / RequestQueue would otherwise report their own
/// lower-level errors first).
ServeConfig validated(ServeConfig cfg, const nn::Model* model) {
  validate_serve_config(cfg, model);
  return cfg;
}
}  // namespace

PipelineServer::PipelineServer(const nn::Model& model, ModelCheckpoint ckpt,
                               ServeConfig cfg)
    : model_(model),
      cfg_(validated(std::move(cfg), &model)),
      partition_(pipeline::make_partition(model, cfg_.num_stages, cfg_.split_bias,
                                          cfg_.partition)),
      ranges_(pipeline::stage_module_ranges(partition_)),
      scheduler_(cfg_.batch),
      queue_(cfg_.queue_capacity) {
  ckpt.validate_against(model);
  weights_ = std::move(ckpt.weights);
  const int p = cfg_.num_stages;
  const int nslots = cfg_.slots > 0 ? cfg_.slots : p + 1;
  slots_.resize(static_cast<std::size_t>(nslots));
  for (auto& slot : slots_) slot.caches = model_.make_caches();
  slot_busy_.assign(static_cast<std::size_t>(nslots), 0);
  // Last: once the runner exists its workers may call back into execute and
  // admit. Home stages first, then steal deepest first: finishing in-flight
  // microbatches frees slots (and completes requests) before new work starts.
  runner_ = std::make_unique<sched::TaskGraphRunner>(
      p, sched::resolve_workers(cfg_.workers, p), sched::StealMode::Deterministic,
      [this](int /*worker*/, const sched::Task& task) { execute(task); },
      [this](int /*worker*/) { return admit(); });
  std::vector<int> deepest_first(static_cast<std::size_t>(p));
  for (int s = 0; s < p; ++s) deepest_first[static_cast<std::size_t>(s)] = p - 1 - s;
  runner_->set_victim_order(deepest_first);
}

PipelineServer::~PipelineServer() { stop(); }

void PipelineServer::start() {
  {
    util::MutexLock lock(m_);
    if (started_) throw std::logic_error("PipelineServer::start: already started");
    started_ = true;
  }
  // Tracing brackets the serving session: enabled here (the workers are
  // still parked, satisfying the recorder's quiescence contract) and
  // exported in stop() after the pool parks again.
  if (!cfg_.trace_path.empty()) obs::TraceRecorder::instance().enable();
  runner_->open_generation();
}

void PipelineServer::stop() {
  bool wait = false;
  {
    util::MutexLock lock(m_);
    if (stopped_) return;
    stopped_ = true;
    stopping_ = true;
    queue_.close();
    wait = started_;
  }
  runner_->notify_all();
  if (wait) runner_->wait_generation();
  if (!cfg_.trace_path.empty()) {
    obs::TraceRecorder::instance().disable();
    obs::write_chrome_trace(cfg_.trace_path);
  }
  if (!cfg_.metrics_path.empty()) {
    obs::MetricsRegistry::instance().write_json(cfg_.metrics_path);
  }
}

TicketPtr PipelineServer::submit(nn::Flow input) {
  return submit_with_deadline(std::move(input), Clock::time_point::max());
}

TicketPtr PipelineServer::submit(nn::Flow input, Clock::duration timeout) {
  return submit_with_deadline(std::move(input), Clock::now() + timeout);
}

TicketPtr PipelineServer::submit_with_deadline(nn::Flow input,
                                               Clock::time_point deadline) {
  if (input.x.empty()) {
    throw std::invalid_argument(
        "PipelineServer::submit: input.x must be non-empty with a leading "
        "batch dimension");
  }
  if (!input.ctx.empty() || !input.skip.empty()) {
    throw std::invalid_argument(
        "PipelineServer::submit: ctx/skip must be empty (requests enter at "
        "the model's first module)");
  }
  input.training = false;

  auto ticket = std::make_shared<Ticket>();
  Request req;
  req.input = std::move(input);
  req.enqueue_time = Clock::now();
  req.deadline = deadline;
  req.ticket = ticket;

  Status reject = Status::Ok;
  std::uint64_t id = 0;
  serve_metrics().submitted.add();
  {
    util::MutexLock lock(m_);
    ++counters_.submitted;
    id = req.id = next_id_++;
    if (!started_ || stopping_) {
      ++counters_.rejected_stopped;
      reject = Status::RejectedStopped;
    } else {
      switch (queue_.try_push(std::move(req))) {
        case RequestQueue::Admit::Ok:
          break;
        case RequestQueue::Admit::Full:
          ++counters_.rejected_full;
          reject = Status::RejectedQueueFull;
          break;
        case RequestQueue::Admit::Closed:
          ++counters_.rejected_stopped;
          reject = Status::RejectedStopped;
          break;
      }
    }
  }
  if (reject == Status::Ok) {
    obs::instant("enqueue", "serve", -1, -1, static_cast<std::int64_t>(id));
    runner_->notify_all();
  } else {
    serve_metrics().rejected.add();
    Response r;
    r.status = reject;
    ticket->complete(std::move(r));
  }
  return ticket;
}

void PipelineServer::execute(const sched::Task& task) {
  const int stage = task.stage;
  const int slot = task.micro;
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  const pipeline::StageModuleRange& range = ranges_[static_cast<std::size_t>(stage)];

  obs::Span span("stage", "serve", stage, slot);
  try {
    s.flow = model_.forward_range(range.module_first, range.module_last,
                                  std::move(s.flow), weights_, s.caches);
  } catch (const std::exception& e) {
    Response base;
    base.status = Status::Error;
    base.error = std::string("serve worker failed at stage ") +
                 std::to_string(stage) + ": " + e.what();
    complete_slot(slot, base, nullptr);
    return;
  }
  if (stage + 1 < cfg_.num_stages) {
    runner_->push({sched::Task::Kind::Forward, stage + 1, slot});
  } else {
    Response base;  // Status::Ok
    complete_slot(slot, base, &s.flow.x);
  }
}

void PipelineServer::complete_slot(int slot, const Response& base,
                                   const tensor::Tensor* output) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  const auto now = Clock::now();

  Status status = base.status;
  std::string error = base.error;
  std::vector<tensor::Tensor> parts;
  if (status == Status::Ok && output != nullptr) {
    try {
      parts = split_output_rows(*output, s.rows);
    } catch (const std::exception& e) {
      status = Status::Error;
      error = e.what();
    }
  }

  const int nreq = static_cast<int>(s.requests.size());
  for (int i = 0; i < nreq; ++i) {
    Request& req = s.requests[static_cast<std::size_t>(i)];
    Response r;
    r.status = status;
    r.error = error;
    r.queue_ms = ms_between(req.enqueue_time, s.formed);
    r.total_ms = ms_between(req.enqueue_time, now);
    r.batch_requests = nreq;
    // The exported p50/p99 are computed from exactly the latencies the
    // client sees in the Response.
    serve_metrics().queue_ms.observe(r.queue_ms);
    serve_metrics().total_ms.observe(r.total_ms);
    obs::instant("complete", "serve", -1, slot,
                 static_cast<std::int64_t>(req.id));
    if (status == Status::Ok) r.output = std::move(parts[static_cast<std::size_t>(i)]);
    req.ticket->complete(std::move(r));
  }
  if (status == Status::Ok) {
    serve_metrics().completed.add(static_cast<std::uint64_t>(nreq));
  } else {
    serve_metrics().errors.add(static_cast<std::uint64_t>(nreq));
  }

  s.requests.clear();
  s.rows.clear();
  s.flow = nn::Flow{};  // release the activation storage while the slot idles
  {
    util::MutexLock lock(m_);
    slot_busy_[static_cast<std::size_t>(slot)] = 0;
    --active_slots_;
    if (status == Status::Ok) {
      counters_.completed_ok += static_cast<std::uint64_t>(nreq);
    } else {
      counters_.errors += static_cast<std::uint64_t>(nreq);
    }
  }
  runner_->notify_all();
}

Clock::duration PipelineServer::admit() {
  const auto now = Clock::now();
  util::MutexLock lock(m_);

  // All queue-consumer operations run under m_, so admission (including
  // deadline expiry) is serialized across workers and FIFO order within a
  // batch is exactly arrival order.
  std::vector<Request> expired;
  const int nexpired = queue_.expire_before(now, expired);
  if (nexpired > 0) {
    counters_.deadline_expired += static_cast<std::uint64_t>(nexpired);
    serve_metrics().expired.add(static_cast<std::uint64_t>(nexpired));
    for (Request& req : expired) {
      Response r;
      r.status = Status::DeadlineExceeded;
      r.queue_ms = ms_between(req.enqueue_time, now);
      r.total_ms = r.queue_ms;
      req.ticket->complete(std::move(r));
    }
  }

  const std::size_t queued = queue_.size();
  if (queued == 0) {
    // stop() closed admission and every in-flight slot has completed: no
    // task is queued or running, so the serving generation can end.
    if (stopping_ && active_slots_ == 0) runner_->close();
    return Clock::duration::max();
  }

  Clock::time_point oldest;
  queue_.oldest_enqueue(oldest);
  const BatchScheduler::Decision d =
      scheduler_.decide(queued, oldest, now, stopping_);

  int slot = -1;
  for (std::size_t i = 0; i < slot_busy_.size(); ++i) {
    if (!slot_busy_[i]) {
      slot = static_cast<int>(i);
      break;
    }
  }

  if (d.admit == 0 || slot < 0) {
    // Bound the caller's sleep by the nearest timer: the fixed-policy
    // flush deadline and/or the earliest request deadline. A freed slot
    // wakes every worker, so "no slot" needs no timer of its own.
    Clock::duration recheck = Clock::duration::max();
    if (d.admit == 0) recheck = std::min(recheck, d.recheck);
    Clock::time_point dl;
    if (queue_.earliest_deadline(dl)) {
      recheck = std::min(recheck, Clock::duration(dl - now));
    }
    return recheck;
  }

  // Pop the FIFO prefix of requests batch-compatible with the front.
  std::vector<Request> batch;
  batch.reserve(static_cast<std::size_t>(d.admit));
  Request first;
  if (!queue_.pop_if([](const Request&) { return true; }, first)) {
    return Clock::duration::max();
  }
  batch.push_back(std::move(first));
  while (static_cast<int>(batch.size()) < d.admit) {
    const nn::Flow& head = batch.front().input;
    Request next;
    if (!queue_.pop_if(
            [&head](const Request& r) { return batch_compatible(head, r.input); },
            next)) {
      break;
    }
    batch.push_back(std::move(next));
  }

  Slot& s = slots_[static_cast<std::size_t>(slot)];
  s.requests = std::move(batch);
  s.rows.clear();
  s.rows.reserve(s.requests.size());
  for (const Request& req : s.requests) s.rows.push_back(req.input.x.dim(0));
  s.flow = concat_inputs(s.requests);
  s.formed = now;

  slot_busy_[static_cast<std::size_t>(slot)] = 1;
  ++active_slots_;
  counters_.admitted += static_cast<std::uint64_t>(s.requests.size());
  ++counters_.batches;
  serve_metrics().admitted.add(s.requests.size());
  serve_metrics().batches.add();
  obs::instant("admit", "serve", -1, slot,
               static_cast<std::int64_t>(s.requests.front().id));
  runner_->push({sched::Task::Kind::Forward, 0, slot});
  return Clock::duration::zero();
}

ServeCounters PipelineServer::counters() const {
  util::MutexLock lock(m_);
  return counters_;
}

}  // namespace pipemare::serve

// Serving workload: `serve-transformer`.
//
// The scaled Transformer (make_transformer_task), initialized from --seed,
// is frozen into a PMCK checkpoint that set-up writes and loads back, then
// served by serve::PipelineServer with continuous batching (P = 4 stages,
// W = 3 workers, max_batch 8). Load is an open loop: one generator thread
// submits seeded Poisson arrivals on a schedule regardless of completions,
// and every latency is timed from the request's *due* time, so a stalled
// generator or server shows up in the latencies instead of hiding in a late
// submit. Phases: a short warm-up, alternating rounds at the fixed `low`
// and `high` rates, a closed-loop saturation phase, then a rate ladder
// upward until a rung misses the p99 limit or its backlog grows;
// max_rps_slo interpolates the limit crossing between the last rung that
// met it and the first that did not. Rates and the limit come from
// perfbench/workloads.json (--param), which also records why the gated
// serving figures are saturation, p50 at `low` and p99 at `high`.
//
// Correctness: every request must complete Ok (a rejected, expired or
// errored request is a failed operation), and a deterministic sample of
// responses must equal model.forward on that request alone, bitwise.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"
#include "perfbench/src/replay.h"
#include "src/core/task.h"
#include "src/serve/checkpoint.h"
#include "src/serve/pipeline_server.h"
#include "src/tensor/kernels/calibration.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using namespace pipemare;

constexpr int kStages = 4;
constexpr int kServeWorkers = 3;
constexpr int kMaxBatch = 8;
constexpr int kRequestPool = 256;  ///< distinct request inputs, cycled
constexpr int kParityEvery = 64;   ///< every k-th request is checked bitwise
constexpr int kRounds = 3;         ///< alternating low/high rounds per run
constexpr int kSetups = 5;         ///< set-ups per end-to-end run; setup_s is their median
/// Closed-loop requests in flight: two full batches per slot, so every
/// admission round finds a full batch waiting.
constexpr int kSaturationInflight = 2 * (kStages + 1) * kMaxBatch;

struct ServeSetup {
  std::unique_ptr<core::TranslationTask> task;
  std::unique_ptr<nn::Model> model;  ///< the server borrows it: stable address
  std::unique_ptr<serve::PipelineServer> server;

  void reset() {
    server.reset();  // stops and joins before the model it reads goes away
    model.reset();
    task.reset();
  }
};

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.num_stages = kStages;
  cfg.workers = kServeWorkers;
  cfg.queue_capacity = 4096;  // open-loop bursts must queue, not bounce
  cfg.batch.policy = serve::BatchPolicy::Continuous;
  cfg.batch.max_batch = kMaxBatch;
  return cfg;
}

/// Dataset + model build, checkpoint save/load round trip, server
/// construction (partition, slots, worker pool) and start().
ServeSetup make_setup(const Args& args) {
  ServeSetup s;
  s.task = make_transformer_task(args.seed);
  s.model = std::make_unique<nn::Model>(s.task->build_model());
  std::vector<float> weights(static_cast<std::size_t>(s.model->param_count()));
  util::Rng rng(args.seed);
  s.model->init_params(weights, rng);
  std::filesystem::create_directories(args.work_dir);
  const std::string path = args.work_dir + "/serve-transformer.pmck";
  serve::save_checkpoint(path, *s.model, weights);
  serve::ModelCheckpoint ckpt = serve::load_checkpoint(path);
  s.server = std::make_unique<serve::PipelineServer>(*s.model, std::move(ckpt), serve_config());
  s.server->start();
  return s;
}

/// The request inputs: single sentences (source + teacher-forced decoder
/// input) drawn from the seeded training set.
std::vector<nn::Flow> make_requests(const core::TranslationTask& task, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<nn::Flow> out;
  out.reserve(kRequestPool);
  for (int i = 0; i < kRequestPool; ++i) {
    data::MicroBatches mb = task.minibatch({rng.randint(task.train_size())}, 1);
    nn::Flow f = std::move(mb.inputs.at(0));
    f.training = false;
    out.push_back(std::move(f));
  }
  return out;
}

/// Sleeps to just before `due`, then spins to it: sleep_until alone wakes
/// up to several milliseconds late on a loaded host.
void wait_until(Clock::time_point due) {
  using namespace std::chrono_literals;
  if (due - Clock::now() > 200us) std::this_thread::sleep_until(due - 100us);
  while (Clock::now() < due) std::this_thread::yield();
}

struct PhaseResult {
  double rate = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t errors = 0;
  std::uint64_t parity_checked = 0;
  std::uint64_t parity_failed = 0;
  std::vector<double> latency_ms;  ///< due time -> completion, Ok requests
  std::vector<double> queue_ms;
  std::vector<double> service_ms;  ///< microbatch formation -> completion
  std::vector<double> late_ms;     ///< generator submit - due time
  double batch_sum = 0.0;          ///< requests per serving microbatch, summed
  bool backlog_grew = false;
  double busy_ns = 0.0;            ///< worker busy time
  double capacity_ns = 0.0;        ///< phase wall time x workers
  double stage_busy_ns = 0.0;
  double stolen_ns = 0.0;          ///< busy time of stages' stolen tasks
  double sample_ns = 0.0;          ///< time spent reading the server's counters

  double p99() const { return percentile(latency_ms, 0.99); }
  double mean_batch() const { return ok > 0 ? batch_sum / static_cast<double>(ok) : 0.0; }

  /// Pools another phase at the same rate into this one.
  void absorb(const PhaseResult& o) {
    rate = o.rate;
    submitted += o.submitted;
    ok += o.ok;
    rejected += o.rejected;
    expired += o.expired;
    errors += o.errors;
    parity_checked += o.parity_checked;
    parity_failed += o.parity_failed;
    for (auto [dst, src] : {std::pair{&latency_ms, &o.latency_ms}, {&queue_ms, &o.queue_ms},
                            {&service_ms, &o.service_ms}, {&late_ms, &o.late_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    batch_sum += o.batch_sum;
    backlog_grew = backlog_grew || o.backlog_grew;
    busy_ns += o.busy_ns;
    capacity_ns += o.capacity_ns;
    stage_busy_ns += o.stage_busy_ns;
    stolen_ns += o.stolen_ns;
    sample_ns += o.sample_ns;
  }
};

/// In-flight capacity: requests the pipeline holds without queueing
/// (slots x max_batch), the backlog slack a stable rate may show.
double inflight_capacity() { return (kStages + 1.0) * kMaxBatch; }

PhaseResult run_phase(serve::PipelineServer& server, const nn::Model& model,
                      const std::vector<nn::Flow>& requests, double rate, double seconds,
                      std::uint64_t seed) {
  PhaseResult r;
  r.rate = rate;
  util::Rng rng(seed);
  std::vector<double> offset_s;  // Poisson arrival schedule
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    offset_s.push_back(t);
  }
  const auto sample0 = Clock::now();
  const auto workers0 = server.worker_stats();
  const auto stages0 = server.stage_stats();
  const auto start = Clock::now();
  r.sample_ns += std::chrono::duration<double, std::nano>(start - sample0).count();

  std::vector<serve::TicketPtr> tickets;
  tickets.reserve(offset_s.size());
  const auto t0 = start + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < offset_s.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(offset_s[i]));
    wait_until(due);
    const auto now = Clock::now();
    tickets.push_back(server.submit(requests[i % requests.size()]));
    r.late_ms.push_back(ms_between(due, now));
  }
  std::vector<double> done_s(tickets.size(), 0.0);  // completion, from t0
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const serve::Response& resp = tickets[i]->wait();
    ++r.submitted;
    switch (resp.status) {
      case serve::Status::Ok: break;
      case serve::Status::RejectedQueueFull:
      case serve::Status::RejectedStopped: ++r.rejected; continue;
      case serve::Status::DeadlineExceeded: ++r.expired; continue;
      case serve::Status::Error: ++r.errors; continue;
    }
    ++r.ok;
    const double latency = r.late_ms[i] + resp.total_ms;
    r.latency_ms.push_back(latency);
    r.queue_ms.push_back(resp.queue_ms);
    r.service_ms.push_back(resp.total_ms - resp.queue_ms);
    r.batch_sum += resp.batch_requests;
    done_s[i] = offset_s[i] + latency / 1000.0;
  }
  const auto end = Clock::now();
  const auto workers1 = server.worker_stats();
  const auto stages1 = server.stage_stats();
  r.sample_ns += std::chrono::duration<double, std::nano>(Clock::now() - end).count();

  // Backlog (arrived - completed) at mid-window and at the window's end: a
  // rate the server sustains keeps it within the in-flight capacity.
  auto backlog_at = [&](double t) {
    double arrived = 0.0, completed = 0.0;
    for (std::size_t i = 0; i < offset_s.size(); ++i) {
      if (offset_s[i] <= t) arrived += 1.0;
      if (done_s[i] > 0.0 && done_s[i] <= t) completed += 1.0;
    }
    return arrived - completed;
  };
  r.backlog_grew = backlog_at(seconds) > backlog_at(seconds / 2.0) + inflight_capacity();

  for (std::size_t w = 0; w < workers0.size(); ++w) {
    r.busy_ns += static_cast<double>(workers1[w].busy_ns - workers0[w].busy_ns);
  }
  for (std::size_t s = 0; s < stages0.size(); ++s) {
    r.stage_busy_ns += static_cast<double>(stages1[s].busy_ns - stages0[s].busy_ns);
    r.stolen_ns += static_cast<double>(stages1[s].stolen_ns - stages0[s].stolen_ns);
  }
  r.capacity_ns = std::chrono::duration<double, std::nano>(end - start).count() *
                  static_cast<double>(workers0.size());

  // Parity sample, outside the timed window.
  const std::span<const float> weights = server.weights();
  for (std::size_t i = 0; i < tickets.size(); i += kParityEvery) {
    const serve::Response& resp = tickets[i]->wait();
    if (resp.status != serve::Status::Ok) continue;
    auto caches = model.make_caches();
    const tensor::Tensor ref =
        model.forward(requests[i % requests.size()], weights, caches).x;
    ++r.parity_checked;
    if (ref.shape() != resp.output.shape() ||
        std::memcmp(ref.data(), resp.output.data(),
                    static_cast<std::size_t>(ref.size()) * sizeof(float)) != 0) {
      ++r.parity_failed;
    }
  }
  return r;
}

/// Closed-loop saturation: keeps `outstanding` requests in flight (a new
/// one submitted as the oldest completes) for `seconds`; returns completed
/// requests per second over the window.
double run_closed_loop(serve::PipelineServer& server, const std::vector<nn::Flow>& requests,
                       double seconds, int outstanding, Report& report) {
  std::deque<serve::TicketPtr> inflight;
  std::size_t next = 0;
  auto submit = [&] { inflight.push_back(server.submit(requests[next++ % requests.size()])); };
  for (int i = 0; i < outstanding; ++i) submit();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::uint64_t completed = 0, failed = 0;
  auto retire = [&] {
    if (inflight.front()->wait().status != serve::Status::Ok) ++failed;
    inflight.pop_front();
  };
  Clock::time_point now = start;
  while ((now = Clock::now()) < end) {
    if (!inflight.front()->done()) {
      std::this_thread::yield();
      continue;
    }
    retire();
    ++completed;
    submit();
  }
  while (!inflight.empty()) retire();
  report.attempt(next);
  if (failed > 0) report.fail("saturation: requests not served Ok", failed);
  return static_cast<double>(completed) / ms_between(start, now) * 1000.0;
}

void account(Report& report, const PhaseResult& r, const std::string& what) {
  report.attempt(r.submitted + r.parity_checked);
  if (r.rejected > 0) report.fail(what + ": rejected requests", r.rejected);
  if (r.expired > 0) report.fail(what + ": expired requests", r.expired);
  if (r.errors > 0) report.fail(what + ": errored requests", r.errors);
  if (r.parity_failed > 0) {
    report.fail(what + ": responses differ from model.forward on the request alone",
                r.parity_failed);
  }
}

ServePhaseFigures phase_figures(const PhaseResult& r) {
  ServePhaseFigures f;
  f.queue_ms_p50 = median(r.queue_ms);
  f.queue_ms_p99 = percentile(r.queue_ms, 0.99);
  f.service_ms_p50 = median(r.service_ms);
  f.mean_batch = r.mean_batch();
  f.rejected = static_cast<double>(r.rejected);
  f.expired = static_cast<double>(r.expired);
  f.gen_late_ms_p99 = percentile(r.late_ms, 0.99);
  f.worker_busy_share = r.capacity_ns > 0.0 ? r.busy_ns / r.capacity_ns : 0.0;
  f.stolen_share = r.stage_busy_ns > 0.0 ? r.stolen_ns / r.stage_busy_ns : 0.0;
  return f;
}

void detail_phase(Report& report, const PhaseResult& r, const std::string& name) {
  report.detail("latency_p50_ms." + name, median(r.latency_ms), "ms");
  report.detail("latency_p99_ms." + name, r.p99(), "ms");
  report.detail("requests." + name, static_cast<double>(r.submitted), "count");
  report.detail("gen_late_ms_p99." + name, percentile(r.late_ms, 0.99), "ms");
}

/// Highest rate meeting the p99 limit without a growing backlog: linear
/// interpolation of p99 between the last rung that met the limit and the
/// first that did not (the last rung's rate when every rung met it).
double max_rps_slo(const std::vector<PhaseResult>& ladder, double limit_ms) {
  double pass_rate = 0.0, pass_p99 = 0.0;
  for (const PhaseResult& rung : ladder) {
    const bool met = rung.p99() <= limit_ms && !rung.backlog_grew && rung.ok == rung.submitted;
    if (met) {
      pass_rate = rung.rate;
      pass_p99 = rung.p99();
      continue;
    }
    if (rung.p99() <= limit_ms) return pass_rate;  // missed on backlog alone
    const double frac = (limit_ms - pass_p99) / (rung.p99() - pass_p99);
    return pass_rate + (rung.rate - pass_rate) * frac;
  }
  return pass_rate;
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  // The load: kServeWorkers pool threads plus the generator thread.
  add_run_manifest(report, args, kServeWorkers, kServeWorkers + 1);
  report.manifest("stages", static_cast<double>(kStages));
  report.manifest("max_batch", static_cast<double>(kMaxBatch));
  const double low_rps = args.param("low_rps");
  const double high_rps = args.param("high_rps");
  const double limit_ms = args.param("p99_limit_ms");
  const std::vector<double> ladder_rps = args.param_list("ladder_rps");
  report.manifest("low_rps", low_rps);
  report.manifest("high_rps", high_rps);
  report.manifest("p99_limit_ms", limit_ms);

  std::vector<double> setup_s;
  ServeSetup s;
  for (int i = 0; i < (args.quick || args.trace ? 1 : kSetups); ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s = make_setup(args);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const std::vector<nn::Flow> requests = make_requests(*s.task, args.seed);
  serve::PipelineServer& server = *s.server;
  report.manifest("params", static_cast<double>(s.model->param_count()));
  report.manifest("weight_units", static_cast<double>(server.partition().num_units()));

  // Phase lengths: `low` gets a fifth of the run and `high` three tenths,
  // each split over kRounds alternating rounds so that both rates sample
  // the whole run (a host's speed drifts over seconds); the closed-loop
  // saturation phase a quarter; each ladder rung 4% (the ladder stops at
  // its first missed rung, a few rungs up).
  const double quick = args.quick ? 0.05 : 1.0;
  const double low_s = args.seconds * 0.2 * quick / kRounds;
  const double high_s = args.seconds * 0.3 * quick / kRounds;
  const double rung_s = args.seconds * 0.04 * quick;
  std::uint64_t phase_seed = args.seed * 1000003ULL;

  account(report, run_phase(server, *s.model, requests, low_rps, 0.5 * quick, ++phase_seed),
          "warm-up");
  PhaseResult low, high;
  for (int round = 0; round < kRounds; ++round) {
    low.absorb(run_phase(server, *s.model, requests, low_rps, low_s, ++phase_seed));
    high.absorb(run_phase(server, *s.model, requests, high_rps, high_s, ++phase_seed));
  }
  account(report, low, "low");
  account(report, high, "high");

  if (args.trace) {
    LayerFigures f;
    f.low = phase_figures(low);
    f.high = phase_figures(high);
    const double sampled_ns = low.sample_ns + high.sample_ns;
    f.trace_overhead_pct = 100.0 * sampled_ns / ((low_s + high_s) * kRounds * 1e9);
    // Forward-only per-layer split on one full batch of requests.
    std::vector<int> idx;
    for (int i = 0; i < kMaxBatch; ++i) idx.push_back(i);
    nn::Flow batch = std::move(s.task->minibatch(idx, kMaxBatch).inputs.at(0));
    batch.training = false;
    const std::vector<float> weights(server.weights().begin(), server.weights().end());
    const ReplayResult r = replay_forward(*s.model, weights, batch, args.quick ? 2 : 100);
    for (int k = 0; k < kKinds; ++k) {
      const KindTotals& t = r.kinds[static_cast<std::size_t>(k)];
      f.fwd_ms[k] = t.fwd_ns / 1e6 / r.steps;
      f.gflops[k] = t.fwd_ns > 0.0 ? t.flops / t.fwd_ns : 0.0;
    }
    f.replay_coverage = r.wall_ns > 0.0 ? r.covered_ns() / r.wall_ns : 0.0;
    report.attempt();
    if (f.replay_coverage < 0.95) {
      report.fail("forward replay coverage " + std::to_string(f.replay_coverage) + " < 0.95");
    }
    f.gemm_calls_per_step = static_cast<double>(r.gemm_calls) / r.steps;
    f.roofline_gflops =
        tensor::kernels::KernelCalibration::measure(tensor::kernels::KernelKind::tiled)
            .gemm_flops_per_ns;
    emit_layer_metrics(report, f);
    return;
  }

  const double saturation_rps =
      run_closed_loop(server, requests, args.seconds * 0.25 * quick, kSaturationInflight, report);
  // Before the ladder, whose length (and backlog) depends on the host.
  const double rss_mb = peak_rss_mb();

  std::vector<PhaseResult> ladder;
  for (double rate : ladder_rps) {
    ladder.push_back(run_phase(server, *s.model, requests, rate, rung_s, ++phase_seed));
    const PhaseResult& rung = ladder.back();
    account(report, rung, "ladder");
    const std::string at = "@" + std::to_string(static_cast<int>(rate));
    report.detail("ladder_p50_ms" + at, median(rung.latency_ms), "ms");
    report.detail("ladder_p99_ms" + at, rung.p99(), "ms");
    if (rung.p99() > limit_ms || rung.backlog_grew) break;
  }

  EndToEnd e;
  e.throughput_per_s = saturation_rps;
  e.latency_p50_ms = median(low.latency_ms);
  e.latency_tail_ms = high.p99();
  e.peak_rss_mb = rss_mb;
  e.setup_s = median(setup_s);
  detail_phase(report, low, "low");
  detail_phase(report, high, "high");
  report.detail("max_rps_slo", max_rps_slo(ladder, limit_ms), "1/s");
  report.detail("saturation_rps", saturation_rps, "1/s");
  emit_end_to_end(report, e);
}

}  // namespace perfbench

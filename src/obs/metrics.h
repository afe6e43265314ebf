#pragma once

// Process-global metrics: named counters, gauges and fixed-bucket
// histograms with text/JSON snapshot exporters.
//
// Registration (name -> metric) is a mutex-guarded slow path; instruments
// cache the returned reference/pointer once (metrics are never deleted —
// the registry owns them for the process lifetime, so cached pointers
// stay valid across reset()). Increments/observations are relaxed atomics:
// wait-free, allocation-free, and safe from any thread. Like tracing,
// recording never touches model state or float accumulation order, so
// instrumented runs stay bitwise-equal to uninstrumented ones.
//
// PipeMare metric names in use (see README "Observability" for the table):
//   train.staleness.stage<k>    histogram of observed weight delay (tau)
//   serve.queue_ms / serve.total_ms   request latency histograms
//   sched.steals / kernels.gemm_dispatch ...

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/json_writer.h"
#include "src/util/sync.h"

namespace pipemare::obs {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depths, high-water marks).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// finite buckets; one implicit overflow bucket catches everything above
/// the last bound. Bucket counts, total count, sum and max are relaxed
/// atomics, so observe() is wait-free and snapshot reads are monotonic
/// but possibly transiently skewed (fine for telemetry).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// Equal-width bounds lo, lo+step, ..., lo+(n-1)*step (n finite buckets).
  static std::vector<double> linear_bounds(double lo, double step, int n);
  /// Geometric bounds start, start*factor, ... (n finite buckets).
  static std::vector<double> exponential_bounds(double start, double factor,
                                                int n);

  const std::vector<double>& bounds() const { return bounds_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double mean() const;
  /// Largest value observed so far (-inf when empty).
  double max_observed() const;
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::size_t num_buckets() const { return buckets_.size(); }

  /// Bucket-resolution quantile in [0, 1]: the upper bound of the first
  /// bucket whose cumulative count reaches q * count (the last finite
  /// bound for the overflow bucket). NaN when empty.
  double quantile(double q) const;

  void reset();

 private:
  std::vector<double> bounds_;  ///< immutable after construction
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_max_{false};
};

/// Process-global name -> metric registry. Lookups are mutex-guarded and
/// return references that stay valid for the process lifetime; cache them.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket bounds; later calls with the same
  /// name return the existing histogram (bounds argument ignored).
  Histogram& histogram(const std::string& name, std::vector<double> bounds);
  /// Existing histogram or nullptr (for tests/exporters that must not
  /// create-on-read).
  const Histogram* find_histogram(const std::string& name) const;

  /// Snapshot of every registered metric, names sorted (std::map order):
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, mean, max, p50, p99, buckets: [{le, count}, ...]}}}.
  util::Json snapshot_json() const;
  /// One metric per line: "name value" / histogram summary lines.
  std::string snapshot_text() const;
  /// snapshot_json() to a file; throws std::runtime_error on open failure.
  void write_json(const std::string& path) const;

  /// Zeroes every metric's state; registrations (and cached pointers)
  /// survive.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable util::Mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(m_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(m_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(m_);
};

}  // namespace pipemare::obs

#pragma once

// Low-overhead tracing: per-thread fixed-capacity span ring buffers that
// export Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// Design goals, in order:
//   1. The *disabled* path is one relaxed atomic load and one branch —
//      tracing is always compiled in, and the training hot loops are
//      instrumented unconditionally, so the off cost must be invisible
//      (<1% on bench/micro_steal; measured by bench/micro_obs).
//   2. The *enabled* path allocates nothing: each thread writes POD events
//      into its own pre-sized buffer, published with a single release
//      store of the count. Buffers fill until full; overflow increments a
//      drop counter instead of overwriting (so a concurrent export never
//      races a wrapping writer, and the Chrome trace is an honest prefix).
//   3. Recording must not perturb numerics: events carry observations
//      (names, timestamps, stage/micro/step indices) and never touch
//      model state, RNG streams, or float accumulation order — curves are
//      bitwise-equal with tracing on vs off (asserted in tests/test_obs).
//
// Event names and categories must be string literals (or otherwise
// immortal): the hot path stores the pointers, not copies.
//
// Thread model. Each recording thread lazily registers one ThreadBuffer
// (under the registry mutex — a once-per-thread slow path) and caches the
// pointer in a thread_local; buffers outlive their threads, so short-lived
// worker-pool threads keep their events. enable()/reset() must only be
// called while no instrumented thread is recording (between training
// minibatches / serving sessions, or in tests) — they bump a session
// counter that invalidates every cached thread_local pointer.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/sync.h"

namespace pipemare::obs {

/// One recorded event. POD on purpose: writing one is a handful of stores.
struct TraceEvent {
  enum class Phase : std::uint8_t { Complete, Instant };
  const char* name = nullptr;  ///< string literal
  const char* cat = nullptr;   ///< string literal ("sched", "serve", ...)
  std::uint64_t ts_ns = 0;     ///< start time, ns since recorder base
  std::uint64_t dur_ns = 0;    ///< Complete events only
  Phase phase = Phase::Instant;
  std::int32_t stage = -1;     ///< -1 = not applicable
  std::int32_t micro = -1;
  std::int64_t step = -1;
};

/// Process-global trace recorder. All methods are safe to call from any
/// thread except enable()/reset(), which require recording quiescence
/// (see file comment).
class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  static TraceRecorder& instance();

  /// Starts a recording session: clears previous buffers and sets the
  /// per-thread event capacity. Idempotent capacity-wise only across
  /// reset(); calling enable() twice restarts the session.
  void enable(std::size_t capacity_per_thread = kDefaultCapacity);

  /// Stops recording (already-written events stay exportable).
  void disable();

  /// Drops all buffers and counters; leaves the recorder disabled.
  void reset();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the recorder's steady-clock base.
  std::uint64_t now_ns() const;

  /// Records a completed span [ts_ns, ts_ns + dur_ns). No-op when disabled.
  void record_complete(const char* name, const char* cat, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, int stage, int micro,
                       std::int64_t step);

  /// Records a point-in-time event. No-op when disabled.
  void record_instant(const char* name, const char* cat, int stage, int micro,
                      std::int64_t step);

  /// Labels the calling thread in the exported trace ("steal-worker", ...).
  /// Slow path (takes the registry mutex); call once per thread role.
  void set_thread_name(const std::string& name);

  /// Events recorded across all threads this session.
  std::uint64_t recorded() const;
  /// Events discarded because a thread's buffer was full.
  std::uint64_t dropped() const;

  /// Writes the session as Chrome trace-event JSON:
  ///   {"traceEvents": [{name, cat, ph, ts, dur, pid, tid, args}, ...]}
  /// ts/dur are microseconds (fractional); args carries stage/micro/step
  /// when present. Thread-name metadata events label each tid. Throws
  /// std::runtime_error if the file cannot be opened.
  void write_chrome_trace(const std::string& path) const;

 private:
  /// One thread's buffer. Only the owning thread writes events/count; the
  /// release store of count_ publishes each event to concurrent exporters.
  struct ThreadBuffer {
    std::vector<TraceEvent> events;       ///< sized once at registration
    std::atomic<std::size_t> count{0};    ///< published events
    std::atomic<std::uint64_t> dropped{0};
    int tid = 0;                          ///< registration order
    std::string name;                     ///< set_thread_name label
  };

  TraceRecorder();
  ThreadBuffer* this_thread_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> session_{0};  ///< bumped by enable()/reset()
  std::chrono::steady_clock::time_point base_;

  mutable util::Mutex m_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ GUARDED_BY(m_);
  std::size_t ring_capacity_ GUARDED_BY(m_) = kDefaultCapacity;
};

/// RAII span: captures the start time at construction and records one
/// Complete event at destruction. When tracing is disabled both ends cost
/// a relaxed load and a branch.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "default", int stage = -1,
                int micro = -1, std::int64_t step = -1)
      : name_(name), cat_(cat), stage_(stage), micro_(micro), step_(step) {
    TraceRecorder& r = TraceRecorder::instance();
    active_ = r.enabled();
    if (active_) start_ns_ = r.now_ns();
  }
  ~Span() {
    if (active_) {
      TraceRecorder& r = TraceRecorder::instance();
      r.record_complete(name_, cat_, start_ns_, r.now_ns() - start_ns_, stage_,
                        micro_, step_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t start_ns_ = 0;
  std::int32_t stage_;
  std::int32_t micro_;
  std::int64_t step_;
  bool active_;
};

/// Point event helper (steals, repartitions, request lifecycle marks).
inline void instant(const char* name, const char* cat = "default",
                    int stage = -1, int micro = -1, std::int64_t step = -1) {
  TraceRecorder& r = TraceRecorder::instance();
  if (!r.enabled()) return;
  r.record_instant(name, cat, stage, micro, step);
}

/// Convenience forwarder for TraceRecorder::instance().write_chrome_trace.
void write_chrome_trace(const std::string& path);

}  // namespace pipemare::obs

// Zero-dependency tracing + metrics layer for the solver and optimizer
// loops.
//
// Concepts:
//   Span     - RAII timed region; spans nest naturally per thread. Each
//              span can carry key/value annotations ("args").
//   instant  - a point event (e.g. a solver restart).
//
// All events funnel into the process-wide Trace sink, which is thread-safe
// and exports two ways when a capture ends:
//   * Chrome trace_event JSON - load the file in chrome://tracing or
//     https://ui.perfetto.dev to see the whole Pareto sweep as a timeline,
//     one track per thread (portfolio strategies get named tracks).
//   * a human-readable summary tree (span path -> count, total ms) printed
//     to stderr.
//
// Activation (checked once, on first use):
//   OLSQ2_TRACE=<file>      write a Chrome trace to <file> at process exit
//   OLSQ2_TRACE_SUMMARY=1   print the summary tree to stderr at exit
//
// Both default off; a disabled Span costs one relaxed atomic load, so
// instrumentation can stay in hot-ish paths permanently. Tests and bench
// harnesses drive captures programmatically with begin_capture/end_capture.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace olsq2::obs {

/// Nanoseconds since the current capture's epoch (monotonic clock).
using TimeNs = std::int64_t;

/// One span annotation. `quoted` selects JSON string vs raw number.
struct Arg {
  std::string key;
  std::string value;
  bool quoted = false;
};

struct Event {
  enum class Kind : std::uint8_t { kSpan, kInstant };
  Kind kind = Kind::kSpan;
  std::string name;
  std::uint32_t tid = 0;
  TimeNs ts = 0;
  TimeNs dur = 0;  // spans only
  std::vector<Arg> args;
};

/// Environment-derived activation settings (exposed for unit tests).
struct EnvConfig {
  std::string trace_file;  // empty = no trace file
  bool summary = false;
};
EnvConfig read_env_config();

/// The process-wide event sink. Thread-safe.
class Trace {
 public:
  /// Lazily constructed; the constructor applies read_env_config() and, if
  /// it activates anything, the capture is flushed at process exit.
  static Trace& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Start a capture. An in-flight capture is ended (and flushed) first.
  /// `trace_file` empty = collect events but write no file (tests use
  /// snapshot()); `summary` additionally prints the span tree on end.
  void begin_capture(std::string trace_file, bool summary = false);

  /// End the capture: write the Chrome trace file (if configured), print
  /// the summary (if configured), clear the event buffer, and return the
  /// summary text (always built, so callers can log it regardless).
  std::string end_capture();

  /// Record a finished event. No-op when disabled.
  void record(Event e);

  /// Name the calling thread's track in the exported timeline (portfolio
  /// strategies). No-op when disabled.
  void set_thread_name(std::string name);

  /// Small dense id for the calling thread, stable for its lifetime.
  static std::uint32_t thread_id();

  /// Monotonic timestamp relative to the capture epoch.
  TimeNs now_ns() const;

  /// Copy of the buffered events (test introspection).
  std::vector<Event> snapshot() const;

  ~Trace();

 private:
  Trace();

  mutable sync::Mutex mutex_{"obs.trace"};
  std::atomic<bool> enabled_{false};
  std::vector<Event> events_ OLSQ2_GUARDED_BY(mutex_);
  std::vector<std::pair<std::uint32_t, std::string>> thread_names_
      OLSQ2_GUARDED_BY(mutex_);
  std::string trace_file_ OLSQ2_GUARDED_BY(mutex_);
  bool summary_ OLSQ2_GUARDED_BY(mutex_) = false;
  /// steady_clock ns at capture start. Atomic, not guarded: now_ns() runs
  /// on every live span and must stay off the trace lock; begin_capture
  /// publishes the new epoch with a release store.
  std::atomic<std::int64_t> epoch_ns_{0};
};

/// RAII timed region. When tracing is disabled construction is one relaxed
/// atomic load; args and the clock are only touched when live.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool live() const { return live_; }

  /// Attach annotations; all no-ops when the span is not live.
  void arg(const char* key, std::string_view value);
  void arg(const char* key, const char* value);
  void arg(const char* key, std::int64_t value);
  void arg(const char* key, std::uint64_t value);
  void arg(const char* key, int value);
  void arg(const char* key, double value);
  void arg(const char* key, bool value);

 private:
  bool live_;
  TimeNs start_ = 0;
  Event event_;
};

/// Record a point event.
void instant(const char* name);

/// Build the human-readable summary tree from a flat event list (pure;
/// exposed so tests can check aggregation). Nesting is reconstructed per
/// thread from ts/dur containment.
std::string build_summary(const std::vector<Event>& events);

/// Serialize events as a Chrome trace_event JSON document (pure).
std::string to_chrome_trace(
    const std::vector<Event>& events,
    const std::vector<std::pair<std::uint32_t, std::string>>& thread_names);

}  // namespace olsq2::obs

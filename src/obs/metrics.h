// Aggregated metrics registry: the numeric companion to the trace layer in
// obs.h. Where obs::Span/counter record *events* for timeline inspection,
// this registry keeps *aggregates* — monotonic counters, gauges, and
// log-bucketed latency histograms — cheap enough to stay on permanently and
// exportable in machine-readable form (obs/expose.h: Prometheus text
// exposition + JSON snapshot) for the serving daemon and the bench-diff
// regression gate.
//
// Concepts:
//   Counter    - monotonically increasing uint64 (events, bytes written).
//   Gauge      - a value that goes up and down (resident bytes, entries).
//   Histogram  - log₂-bucketed distribution with exact min/max/sum/count
//                and interpolated p50/p90/p99 at snapshot time.
//   Family     - a named metric plus help text; label sets select series
//                within the family (same name+labels => same object).
//
// Cost discipline (same contract as obs::Span):
//   * disabled: every record call is one relaxed atomic load and a branch.
//   * enabled:  counters/histograms are sharded across cache-line-padded
//     atomic slots indexed by thread id, so portfolio threads never contend
//     on one cache line. Registry lookups take a mutex — call sites on hot
//     paths cache the returned reference in a function-local static.
//
// Activation (checked once, on first use):
//   OLSQ2_METRICS=<file>  collect, and write the registry to <file> at
//                         process exit (*.json => JSON snapshot, otherwise
//                         Prometheus text exposition)
//   OLSQ2_METRICS=1       collect only (programmatic export)
// or programmatically via set_enabled(true) (tests, olsq2_serve
// --metrics-out).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace olsq2::obs::metrics {

/// Ordered label key/value pairs. Series identity compares the whole
/// vector, so call sites must list labels in a consistent order.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace internal {
extern std::atomic<bool> g_enabled;
/// Small dense shard index for the calling thread (reuses the trace
/// layer's thread ids, so shard count stays power-of-two cheap).
std::size_t shard_index();
}  // namespace internal

/// One relaxed load; every record call checks this first.
inline bool enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Shards per metric: enough that a 4-8 thread portfolio rarely collides,
/// small enough that snapshot sums stay trivial.
inline constexpr std::size_t kShards = 8;

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled()) return;
    shards_[internal::shard_index()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_{};
};

class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!enabled()) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Aggregated view of one histogram series, consistent enough for export:
/// shards are summed at snapshot time (concurrent observes may straddle the
/// walk, which skews a live snapshot by at most the in-flight samples).
struct HistogramSnapshot {
  /// Per-bucket (non-cumulative) counts; bucket i covers
  /// (upper(i-1), upper(i)], the last bucket is the +Inf overflow.
  std::vector<std::uint64_t> bucket_counts;
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;  // exact (0 when count == 0)
  double max = 0;  // exact

  /// Upper bound of bucket `i` (+Inf for the last bucket).
  static double bucket_upper(std::size_t i);

  /// Interpolated quantile estimate, clamped to [min, max]; q in [0, 1].
  /// Error is bounded by the log₂ bucket width (< 2x), while min/max/sum
  /// are exact — the usual histogram trade.
  double quantile(double q) const;
};

class Histogram {
 public:
  /// Finite bucket upper bounds are 2^(kMinExp) .. 2^(kMinExp+kBuckets-2);
  /// with kMinExp = -10 and latencies in ms that spans ~1 µs to ~6 days.
  static constexpr int kMinExp = -10;
  static constexpr int kBuckets = 40;

  void observe(double v);
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0};
  };
  std::array<Shard, kShards> shards_{};
  std::atomic<double> min_{0};
  std::atomic<double> max_{0};
  std::atomic<bool> has_sample_{false};
};

enum class Kind { kCounter, kGauge, kHistogram };

/// Process-wide metric registry. Thread-safe; returned references are
/// stable for the registry's lifetime (metrics are never unregistered).
class Registry {
 public:
  static Registry& instance();

  /// Find-or-create the series (name, labels). Re-registering an existing
  /// name with a different Kind throws std::logic_error; `help` is taken
  /// from the first registration.
  Counter& counter(std::string_view name, std::string_view help = "",
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = "",
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help = "",
                       Labels labels = {});

  struct SeriesSnapshot {
    Labels labels;
    double value = 0;            // counter / gauge
    HistogramSnapshot histogram;  // kHistogram only
  };
  struct FamilySnapshot {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    std::vector<SeriesSnapshot> series;
  };
  /// Consistent-enough copy of every family, in registration order.
  std::vector<FamilySnapshot> snapshot() const;

  /// Zero every metric (objects stay registered and references stay
  /// valid). Tests only — live handles cached in function-local statics
  /// keep counting into the same storage.
  void reset_all();

  ~Registry();

 private:
  Registry();
  struct Family;
  /// Caller holds impl_->mutex. Impl is incomplete here, so the contract
  /// cannot be spelled as OLSQ2_REQUIRES(impl_->mutex); the analysis is
  /// disabled for the body instead and every caller in metrics.cpp locks
  /// first (checked there by the annotations on Impl's fields).
  Family& family(std::string_view name, std::string_view help, Kind kind)
      OLSQ2_NO_THREAD_SAFETY_ANALYSIS;

  struct Impl;
  Impl* impl_;
};

/// Resident-set high-water mark of this process in bytes (0 when the
/// platform offers no cheap answer). Byte-level accounting hook shared by
/// the bench emitters' schema stamp and the exporters.
std::size_t peak_rss_bytes();

/// 8-hex-char FNV-1a digest — bounded-cardinality label values for
/// unbounded strings (e.g. cache keys).
std::string short_hash(std::string_view s);

}  // namespace olsq2::obs::metrics

#ifndef RESUFORMER_COMMON_METRICS_H_
#define RESUFORMER_COMMON_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace resuformer {
namespace metrics {

/// \brief Process-wide metrics: named counters, gauges and histograms.
///
/// Design rules (the substrate every serving/batching PR reports through):
///  * The hot path is lock-free: instruments are plain relaxed atomics, and
///    callers hold stable `Counter*`/`Gauge*`/`Histogram*` pointers obtained
///    once (registration takes the registry mutex; updates never do).
///  * Counters and gauges are ALWAYS live — a relaxed fetch_add is cheaper
///    than a branch-to-skip would be worth, and it keeps structural tallies
///    (documents parsed, GEMM calls) available even in untimed runs.
///  * Anything that needs a clock (ScopedTimerUs, the thread-pool wait/run
///    histograms) is gated on `MetricsRegistry::Enabled()`, a single relaxed
///    atomic load, so `enable_metrics = false` costs one predictable branch
///    per site and zero clock syscalls.
///
/// Snapshot() materializes every instrument into plain structs; ToJson()
/// renders the snapshot as a stable, machine-readable JSON object (consumed
/// by `bench_micro`'s BENCH_MICRO.json sidecar and the CLI --metrics-out).

/// Monotonic counter. Increment is a relaxed atomic add.
class Counter {
 public:
  // Relaxed: a counter is an independent tally — nothing is published
  // through it and readers tolerate slightly stale values.
  void Increment(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Up/down instantaneous value (outstanding buffers, cached bytes, ...).
class Gauge {
 public:
  // Relaxed: same contract as Counter — an isolated instantaneous value,
  // no cross-field ordering required by any reader.
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }  // see above

 private:
  std::atomic<int64_t> value_{0};
};

/// Histogram over int64 samples with fixed log2-scale buckets: bucket 0
/// holds samples <= 0, bucket b (1-based) holds samples in
/// [2^(b-1), 2^b). 48 buckets cover [1, 2^47) — microsecond latencies up
/// to years. Record is a handful of relaxed atomic ops (bucket, count,
/// sum, CAS min/max); no locks, no allocation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 48;

  void Record(int64_t value);

  // Relaxed reads: histogram fields are statistically independent tallies;
  // a snapshot may pair a count with a sum from one sample earlier, which
  // is acceptable for latency statistics (see the header comment).
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// INT64_MAX / INT64_MIN when empty.
  int64_t min() const { return min_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  int64_t bucket_count(int b) const {
    // Relaxed for the same reason as count()/sum() above.
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket b: 0 for bucket 0, else 2^b - 1.
  static int64_t BucketUpperBound(int b);
  void Reset();

  /// Approximate percentile: the inclusive upper bound of the bucket holding
  /// the q-th sample, so resolution is the log2 bucket width — good enough
  /// for p50/p99 latency reporting. The total is derived from the bucket
  /// counts themselves (not count_), so a concurrent Record can never leave
  /// the target rank unreachable. Boundary contract:
  ///  * empty histogram        -> 0 for every q
  ///  * q <= 0                 -> upper bound of the first non-empty bucket
  ///                              (the coarse minimum)
  ///  * q >= 1 (and NaN)       -> upper bound of the last non-empty bucket
  ///                              (the coarse maximum)
  ///  * a single sample        -> its bucket's upper bound for every q
  ///  * samples <= 0           -> land in bucket 0, whose bound is 0; a
  ///                              histogram holding only such samples
  ///                              returns 0 for every q
  /// Reads are relaxed (same contract as count()).
  int64_t ApproxPercentile(double q) const;

 private:
  std::atomic<int64_t> buckets_[kNumBuckets]{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// Sliding-window histogram: a ring of `num_epochs` rotating Histogram
/// epochs of `epoch_ns` each. Record() is lock-free and costs the same as a
/// plain Histogram::Record plus one relaxed load (and, once per epoch roll,
/// one CAS + Reset) — cheap enough to run unconditionally on paths that
/// already hold a timestamp, matching the counters-always-live cost model.
///
/// Window(now_ns) merges every epoch still inside the window into one bucket
/// array and reports count/sum/p50/p99 over it. The window covers between
/// (num_epochs - 1) and num_epochs full epochs depending on where `now_ns`
/// falls inside the current epoch, so configure num_epochs for the
/// granularity/error trade-off (10 epochs -> the window is accurate to 10%).
///
/// Epoch rotation is racy by design: a recorder that loses the reset CAS for
/// a fresh epoch may land its sample just before the winner's Reset() wipes
/// it. At most a handful of samples per epoch roll are lost, which is
/// statistically irrelevant for latency percentiles and keeps the record
/// path free of locks.
class RollingHistogram {
 public:
  /// `num_epochs` >= 2 rotating epochs of `epoch_ns` > 0 nanoseconds each.
  RollingHistogram(int num_epochs, int64_t epoch_ns);

  /// Records `value` into the epoch containing `now_ns` (caller supplies the
  /// timestamp — the serve path already has it in hand, so recording never
  /// reads a clock).
  void Record(int64_t value, int64_t now_ns);

  struct WindowSnapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t p50 = 0;  ///< same bucket-bound contract as ApproxPercentile
    int64_t p99 = 0;
  };
  /// Merged statistics over the epochs still inside the window ending at
  /// `now_ns`. Empty window -> all zeros.
  WindowSnapshot Window(int64_t now_ns) const;

  int num_epochs() const { return num_epochs_; }
  int64_t epoch_ns() const { return epoch_ns_; }
  /// Upper bound of the history the window can cover.
  int64_t window_ns() const { return static_cast<int64_t>(num_epochs_) * epoch_ns_; }

 private:
  struct Epoch {
    Histogram hist;
    /// Epoch sequence number (now_ns / epoch_ns) of the samples currently
    /// stored; -1 until first use.
    std::atomic<int64_t> seq{-1};
  };

  const int num_epochs_;
  const int64_t epoch_ns_;
  /// unique_ptr ring because Histogram (atomics) is not movable.
  std::vector<std::unique_ptr<Epoch>> epochs_;
};

/// Plain-struct materialization of the registry (see Snapshot()).
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;  // 0 when empty
    int64_t max = 0;  // 0 when empty
    /// Only non-empty buckets, ascending by bound.
    struct Bucket {
      int64_t upper_bound;  // inclusive
      int64_t count;
    };
    std::vector<Bucket> buckets;
  };
  std::vector<CounterValue> counters;    // sorted by name
  std::vector<GaugeValue> gauges;        // sorted by name
  std::vector<HistogramValue> histograms;  // sorted by name

  /// Stable JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {"name": {"count":..,"sum":..,"min":..,"max":..,
  /// "buckets":[{"le":..,"count":..},...]}, ...}}.
  std::string ToJson() const;

  /// Prometheus text exposition (format 0.0.4) of the snapshot. Metric
  /// names are prefixed with "resuformer_" and sanitized (every character
  /// outside [a-zA-Z0-9_:] becomes '_' — our dotted names turn into
  /// underscore names); the original registry name is preserved on the
  /// "# HELP" line with spec escaping (backslash and newline). Histograms
  /// render as cumulative "_bucket{le=...}" series plus "+Inf", "_sum" and
  /// "_count". Served by the kStats admin frame with payload "prometheus".
  std::string ToPrometheusText() const;
};

class MetricsRegistry {
 public:
  /// Process-wide registry. Intentionally leaked so instruments touched
  /// during static teardown stay valid.
  static MetricsRegistry& Global();

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Pointers are stable for the process lifetime. Requesting an
  /// existing name with a different instrument kind is a programming error
  /// (checked).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Gates the *timed* instrumentation (ScopedTimerUs, thread-pool queue
  /// wait / run histograms, per-stage pipeline timers). Counters and gauges
  /// stay live regardless — see the header comment.
  void SetEnabled(bool enabled) {
    // Relaxed: the gate is advisory — a site that reads the old value for a
    // few more samples just times (or skips) a handful of extra records.
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  static bool Enabled() {
    // Relaxed: pairs with SetEnabled above; no data is published through
    // the flag, so acquire would buy nothing.
    return Global().enabled_.load(std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const;

  /// Resets every counter and histogram to zero. Gauges are left alone:
  /// they mirror live state (outstanding buffers, cached bytes) that a
  /// metrics reset must not fabricate. Intended for tests and bench runs.
  void ResetCountersAndHistograms();

 private:
  MetricsRegistry() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards the maps only, never the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Records elapsed microseconds into `h` on destruction. Samples the clock
/// only if the registry was enabled at construction — disabled, both ends
/// cost one relaxed load and a branch.
class ScopedTimerUs {
 public:
  explicit ScopedTimerUs(Histogram* h)
      : histogram_(MetricsRegistry::Enabled() ? h : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimerUs() {
    if (histogram_ != nullptr) {
      histogram_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count());
    }
  }
  ScopedTimerUs(const ScopedTimerUs&) = delete;
  ScopedTimerUs& operator=(const ScopedTimerUs&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace metrics
}  // namespace resuformer

#endif  // RESUFORMER_COMMON_METRICS_H_

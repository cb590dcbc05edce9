// Low-overhead metrics registry: named, label-bearing counters, gauges,
// and log-linear latency histograms with JSON and Prometheus exporters.
//
// Handles returned by the registry are stable for its lifetime, so hot
// paths resolve a metric once and then pay a single atomic add per
// event; the evaluator's per-probe and per-firing distributions stage
// small values in a plain HistogramStage and publish them in batches.
// Registration (the Get* calls) is mutex-guarded; recording through a
// handle is lock-free (relaxed atomics), so any number of threads (the
// evaluator, HTTP scrapes) may touch the same counter or histogram
// concurrently without losing updates. The registry is always on by
// default (ObsOptions::metrics_enabled); see docs/OBSERVABILITY.md for
// the bucket scheme and naming conventions.
#ifndef GDLOG_OBS_METRICS_H_
#define GDLOG_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gdlog {

class JsonWriter;

/// Label set attached to a metric, e.g. {{"rule", "prm/4"}}.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Keeps the running maximum (high-water marks).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Lock-free log-linear (HDR-style) histogram over non-negative integer
/// values (nanoseconds, row counts, queue depths).
///
/// Bucket scheme: values below kSubBuckets get one exact bucket each;
/// above that, every power-of-two octave [2^k, 2^(k+1)) splits into
/// kSubBuckets/2 equal-width sub-buckets, so the relative quantization
/// error is bounded by 2/kSubBuckets (~6.25%) across the whole uint64
/// range. Recording is one relaxed fetch_add on the bucket plus count,
/// sum, and CAS-maintained min/max — safe from any number of threads
/// with no lost updates.
class Histogram {
 public:
  static constexpr uint32_t kSubBucketBits = 5;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 32
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * (kSubBuckets / 2);  // 976

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation. Lock-free, wait-free on the common path.
  void Record(uint64_t v) noexcept {
    counts_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Records a batch staged on one thread (HistogramStage): counts[v]
  /// observations of each value v < kSubBuckets, whose buckets are
  /// exact. The count, sum, min and max move as by that many Record
  /// calls, at the atomic cost of one.
  void AddSmall(const uint64_t (&counts)[kSubBuckets]) noexcept;

  /// Legacy double entry point: clamps negatives to 0 and records.
  void Observe(double v) noexcept {
    Record(v <= 0 ? 0
           : v >= 9.2e18
               ? static_cast<uint64_t>(9'200'000'000'000'000'000ull)
               : static_cast<uint64_t>(v));
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min() const {
    const uint64_t m = min_.load(std::memory_order_relaxed);
    return m == UINT64_MAX ? 0 : m;
  }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Approximate quantile (0 <= q <= 1) by linear interpolation within
  /// the containing bucket, clamped to the observed [min, max]. Returns
  /// 0 on an empty histogram.
  double Quantile(double q) const;

  /// The bucket an observation of `v` lands in.
  static size_t BucketIndex(uint64_t v);
  /// Inclusive upper edge of bucket `i` (the Prometheus `le` value).
  static uint64_t BucketUpperEdge(size_t i);

  struct Bucket {
    uint64_t upper = 0;  // inclusive upper edge
    uint64_t count = 0;  // non-cumulative
  };
  /// Snapshot of the non-empty buckets in ascending edge order.
  std::vector<Bucket> NonZeroBuckets() const;

 private:
  std::atomic<uint64_t> counts_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Plain staging for one Histogram, written and flushed by one thread: a
/// value below Histogram::kSubBuckets bumps its exact per-value slot, a
/// larger one is recorded into the histogram at once. Flush() publishes
/// the slots through Histogram::AddSmall and clears them, so a hot path
/// pays a plain increment per observation and the atomics once per
/// flush. With a null target every observation is dropped.
class HistogramStage {
 public:
  explicit HistogramStage(Histogram* target = nullptr) : target_(target) {}

  void Record(uint64_t v) {
    if (v < Histogram::kSubBuckets) {
      ++small_[v];
    } else if (target_ != nullptr) {
      target_->Record(v);
    }
  }

  void Flush() noexcept;

 private:
  Histogram* target_;
  uint64_t small_[Histogram::kSubBuckets] = {};
};

/// Point-in-time copy of every metric's value, comparable across time:
/// Delta(before, after) yields the per-interval movement, which is what
/// bench reports and external scrapers want when one registry accumulates
/// over many runs.
struct MetricsSnapshot {
  struct Sample {
    enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
    Kind kind = Kind::kCounter;
    std::string name;
    MetricLabels labels;
    uint64_t value = 0;  // counter value; histogram observation count
    int64_t gauge = 0;   // gauge value
    uint64_t sum = 0;    // histogram sum
  };
  std::vector<Sample> samples;

  /// Monotonic difference: counters and histogram counts/sums subtract
  /// (clamped at 0); gauges keep the `after` value. Samples present only
  /// in `after` are kept whole.
  static MetricsSnapshot Delta(const MetricsSnapshot& before,
                               const MetricsSnapshot& after);

  /// {"samples":[{"kind":..,"name":..,"labels":{..},"value":..}, ...]}
  void WriteJson(JsonWriter* w) const;
};

class MetricsRegistry {
 public:
  /// Find-or-create. The same (name, labels) pair always returns the
  /// same handle; handles stay valid for the registry's lifetime.
  /// Thread-safe (mutex-guarded); the returned handles record lock-free.
  Counter* GetCounter(std::string_view name, MetricLabels labels = {});
  Gauge* GetGauge(std::string_view name, MetricLabels labels = {});
  Histogram* GetHistogram(std::string_view name, MetricLabels labels = {});

  /// Read-only lookups: nullptr when the metric was never registered
  /// (unlike the Get* calls these never create).
  const Counter* FindCounter(std::string_view name,
                             const MetricLabels& labels = {}) const;
  const Gauge* FindGauge(std::string_view name,
                         const MetricLabels& labels = {}) const;
  const Histogram* FindHistogram(std::string_view name,
                                 const MetricLabels& labels = {}) const;

  size_t size() const;

  /// Appends the snapshot as one JSON object:
  ///   {"counters":[{"name":..,"labels":{..},"value":..}, ...],
  ///    "gauges":[...],
  ///    "histograms":[{"name":..,"labels":{..},"count":..,"sum":..,
  ///                   "min":..,"max":..,"p50":..,"p90":..,"p95":..,
  ///                   "p99":..,"buckets":[{"le":..,"count":..}, ...]}]}
  void SnapshotJson(JsonWriter* w) const;
  std::string SnapshotJson() const;

  /// Point-in-time value snapshot for delta computation.
  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (version 0.0.4): one `# TYPE`
  /// line per metric name, samples grouped by name, histogram
  /// `_bucket{le=..}` series cumulative with a `+Inf` terminator plus
  /// `_sum`/`_count`. Names are prefixed with `gdlog_` and sanitized to
  /// [a-zA-Z0-9_:]; counters gain the conventional `_total` suffix.
  void WriteText(std::string* out) const;
  std::string PrometheusText() const;

 private:
  template <typename T>
  struct Entry {
    Entry(std::string n, MetricLabels l)
        : name(std::move(n)), labels(std::move(l)) {}
    std::string name;
    MetricLabels labels;
    T metric;
  };

  static std::string KeyOf(std::string_view name, const MetricLabels& labels);

  mutable std::mutex mu_;
  // Deques keep handles stable across growth.
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
  std::unordered_map<std::string, Counter*> counter_index_;
  std::unordered_map<std::string, Gauge*> gauge_index_;
  std::unordered_map<std::string, Histogram*> histogram_index_;
};

}  // namespace gdlog

#endif  // GDLOG_OBS_METRICS_H_

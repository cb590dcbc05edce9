#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>

#include "obs/json.h"

namespace gdlog {

size_t Histogram::BucketIndex(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  // msb >= kSubBucketBits here. The octave [2^msb, 2^(msb+1)) holds
  // kSubBuckets/2 sub-buckets of width 2^shift each.
  const int msb = 63 - __builtin_clzll(v);
  const int shift = msb - static_cast<int>(kSubBucketBits) + 1;
  const uint64_t sub = v >> shift;  // in [kSubBuckets/2, kSubBuckets)
  return kSubBuckets +
         static_cast<size_t>(shift - 1) * (kSubBuckets / 2) +
         static_cast<size_t>(sub - kSubBuckets / 2);
}

uint64_t Histogram::BucketUpperEdge(size_t i) {
  if (i < kSubBuckets) return static_cast<uint64_t>(i);
  const size_t k = i - kSubBuckets;
  const size_t shift = k / (kSubBuckets / 2) + 1;
  const uint64_t sub = k % (kSubBuckets / 2) + kSubBuckets / 2;
  return ((sub + 1) << shift) - 1;
}

void Histogram::AddSmall(const uint64_t (&counts)[kSubBuckets]) noexcept {
  uint64_t n = 0, sum = 0, lo = UINT64_MAX, hi = 0;
  for (uint64_t v = 0; v < kSubBuckets; ++v) {
    if (counts[v] == 0) continue;
    counts_[v].fetch_add(counts[v], std::memory_order_relaxed);
    n += counts[v];
    sum += v * counts[v];
    lo = std::min(lo, v);
    hi = v;
  }
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (lo < cur &&
         !min_.compare_exchange_weak(cur, lo, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (hi > cur &&
         !max_.compare_exchange_weak(cur, hi, std::memory_order_relaxed)) {
  }
}

void HistogramStage::Flush() noexcept {
  if (target_ != nullptr) target_->AddSmall(small_);
  std::fill(std::begin(small_), std::end(small_), 0);
}

std::vector<Histogram::Bucket> Histogram::NonZeroBuckets() const {
  std::vector<Bucket> out;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c != 0) out.push_back({BucketUpperEdge(i), c});
  }
  return out;
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  const double lo_clamp = static_cast<double>(min());
  const double hi_clamp = static_cast<double>(max());
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = counts_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) < target) {
      seen += c;
      continue;
    }
    // Interpolate inside bucket i over its [lower, upper] edge range,
    // clamped to the observed extremes.
    const double upper = static_cast<double>(BucketUpperEdge(i));
    const double lower =
        i == 0 ? 0 : static_cast<double>(BucketUpperEdge(i - 1));
    const double lo = std::max(lower, lo_clamp);
    const double hi = std::min(upper, hi_clamp);
    if (hi <= lo) return std::clamp(hi, lo_clamp, hi_clamp);
    const double frac =
        (target - static_cast<double>(seen)) / static_cast<double>(c);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return hi_clamp;
}

std::string MetricsRegistry::KeyOf(std::string_view name,
                                   const MetricLabels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     MetricLabels labels) {
  const std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = counter_index_.find(key); it != counter_index_.end()) {
    return it->second;
  }
  counters_.emplace_back(std::string(name), std::move(labels));
  Counter* c = &counters_.back().metric;
  counter_index_.emplace(key, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, MetricLabels labels) {
  const std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = gauge_index_.find(key); it != gauge_index_.end()) {
    return it->second;
  }
  gauges_.emplace_back(std::string(name), std::move(labels));
  Gauge* g = &gauges_.back().metric;
  gauge_index_.emplace(key, g);
  return g;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         MetricLabels labels) {
  const std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = histogram_index_.find(key); it != histogram_index_.end()) {
    return it->second;
  }
  histograms_.emplace_back(std::string(name), std::move(labels));
  Histogram* h = &histograms_.back().metric;
  histogram_index_.emplace(key, h);
  return h;
}

const Counter* MetricsRegistry::FindCounter(std::string_view name,
                                            const MetricLabels& labels) const {
  const std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counter_index_.find(key);
  return it == counter_index_.end() ? nullptr : it->second;
}

const Gauge* MetricsRegistry::FindGauge(std::string_view name,
                                        const MetricLabels& labels) const {
  const std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauge_index_.find(key);
  return it == gauge_index_.end() ? nullptr : it->second;
}

const Histogram* MetricsRegistry::FindHistogram(
    std::string_view name, const MetricLabels& labels) const {
  const std::string key = KeyOf(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histogram_index_.find(key);
  return it == histogram_index_.end() ? nullptr : it->second;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

namespace {

void WriteLabels(JsonWriter* w, const MetricLabels& labels) {
  w->Key("labels").BeginObject();
  for (const auto& [k, v] : labels) w->Key(k).String(v);
  w->EndObject();
}

}  // namespace

void MetricsRegistry::SnapshotJson(JsonWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->BeginObject();
  w->Key("counters").BeginArray();
  for (const auto& e : counters_) {
    w->BeginObject();
    w->Key("name").String(e.name);
    WriteLabels(w, e.labels);
    w->Key("value").UInt(e.metric.value());
    w->EndObject();
  }
  w->EndArray();
  w->Key("gauges").BeginArray();
  for (const auto& e : gauges_) {
    w->BeginObject();
    w->Key("name").String(e.name);
    WriteLabels(w, e.labels);
    w->Key("value").Int(e.metric.value());
    w->EndObject();
  }
  w->EndArray();
  w->Key("histograms").BeginArray();
  for (const auto& e : histograms_) {
    const Histogram& h = e.metric;
    w->BeginObject();
    w->Key("name").String(e.name);
    WriteLabels(w, e.labels);
    w->Key("count").UInt(h.count());
    w->Key("sum").UInt(h.sum());
    w->Key("min").UInt(h.min());
    w->Key("max").UInt(h.max());
    w->Key("p50").Double(h.Quantile(0.50));
    w->Key("p90").Double(h.Quantile(0.90));
    w->Key("p95").Double(h.Quantile(0.95));
    w->Key("p99").Double(h.Quantile(0.99));
    w->Key("buckets").BeginArray();
    for (const Histogram::Bucket& b : h.NonZeroBuckets()) {
      w->BeginObject();
      w->Key("le").UInt(b.upper);
      w->Key("count").UInt(b.count);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string MetricsRegistry::SnapshotJson() const {
  JsonWriter w;
  SnapshotJson(&w);
  return w.Take();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  using Kind = MetricsSnapshot::Sample::Kind;
  for (const auto& e : counters_) {
    MetricsSnapshot::Sample s;
    s.kind = Kind::kCounter;
    s.name = e.name;
    s.labels = e.labels;
    s.value = e.metric.value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& e : gauges_) {
    MetricsSnapshot::Sample s;
    s.kind = Kind::kGauge;
    s.name = e.name;
    s.labels = e.labels;
    s.gauge = e.metric.value();
    snap.samples.push_back(std::move(s));
  }
  for (const auto& e : histograms_) {
    MetricsSnapshot::Sample s;
    s.kind = Kind::kHistogram;
    s.name = e.name;
    s.labels = e.labels;
    s.value = e.metric.count();
    s.sum = e.metric.sum();
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  std::map<std::string, const Sample*> prior;
  for (const Sample& s : before.samples) {
    std::string key = s.name;
    for (const auto& [k, v] : s.labels) {
      key += '\x1f';
      key += k;
      key += '\x1e';
      key += v;
    }
    prior[key] = &s;
  }
  MetricsSnapshot out;
  for (const Sample& s : after.samples) {
    std::string key = s.name;
    for (const auto& [k, v] : s.labels) {
      key += '\x1f';
      key += k;
      key += '\x1e';
      key += v;
    }
    Sample d = s;
    const auto it = prior.find(key);
    if (it != prior.end() && s.kind != Sample::Kind::kGauge) {
      const Sample& p = *it->second;
      d.value = s.value >= p.value ? s.value - p.value : 0;
      d.sum = s.sum >= p.sum ? s.sum - p.sum : 0;
    }
    out.samples.push_back(std::move(d));
  }
  return out;
}

void MetricsSnapshot::WriteJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("samples").BeginArray();
  for (const Sample& s : samples) {
    w->BeginObject();
    switch (s.kind) {
      case Sample::Kind::kCounter:
        w->Key("kind").String("counter");
        break;
      case Sample::Kind::kGauge:
        w->Key("kind").String("gauge");
        break;
      case Sample::Kind::kHistogram:
        w->Key("kind").String("histogram");
        break;
    }
    w->Key("name").String(s.name);
    WriteLabels(w, s.labels);
    if (s.kind == Sample::Kind::kGauge) {
      w->Key("value").Int(s.gauge);
    } else {
      w->Key("value").UInt(s.value);
    }
    if (s.kind == Sample::Kind::kHistogram) w->Key("sum").UInt(s.sum);
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

namespace {

// -- Prometheus text exposition helpers ------------------------------------

std::string PromName(std::string_view name) {
  std::string out = "gdlog_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string PromLabelName(std::string_view name) {
  std::string out;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

void AppendPromLabelValue(std::string* out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '"':
        *out += "\\\"";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        *out += c;
    }
  }
}

/// Renders `{a="x",b="y"}` with `extra` ("le=...") appended; empty
/// string when there is nothing to render.
std::string PromLabels(const MetricLabels& labels, const std::string& extra) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += PromLabelName(k);
    out += "=\"";
    AppendPromLabelValue(&out, v);
    out += '"';
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

}  // namespace

void MetricsRegistry::WriteText(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The exposition format wants every sample of one metric name grouped
  // under a single # TYPE line, so bucket the entries by rendered name
  // first (std::map gives a deterministic emission order).
  std::map<std::string, std::vector<const Entry<Counter>*>> counters;
  for (const auto& e : counters_) {
    counters[PromName(e.name) + "_total"].push_back(&e);
  }
  std::map<std::string, std::vector<const Entry<Gauge>*>> gauges;
  for (const auto& e : gauges_) gauges[PromName(e.name)].push_back(&e);
  std::map<std::string, std::vector<const Entry<Histogram>*>> histograms;
  for (const auto& e : histograms_) {
    histograms[PromName(e.name)].push_back(&e);
  }

  for (const auto& [name, entries] : counters) {
    *out += "# TYPE " + name + " counter\n";
    for (const Entry<Counter>* e : entries) {
      *out += name + PromLabels(e->labels, "") + " " +
              std::to_string(e->metric.value()) + "\n";
    }
  }
  for (const auto& [name, entries] : gauges) {
    *out += "# TYPE " + name + " gauge\n";
    for (const Entry<Gauge>* e : entries) {
      *out += name + PromLabels(e->labels, "") + " " +
              std::to_string(e->metric.value()) + "\n";
    }
  }
  for (const auto& [name, entries] : histograms) {
    *out += "# TYPE " + name + " histogram\n";
    for (const Entry<Histogram>* e : entries) {
      const Histogram& h = e->metric;
      uint64_t cumulative = 0;
      for (const Histogram::Bucket& b : h.NonZeroBuckets()) {
        cumulative += b.count;
        *out += name + "_bucket" +
                PromLabels(e->labels,
                           "le=\"" + std::to_string(b.upper) + "\"") +
                " " + std::to_string(cumulative) + "\n";
      }
      // Live scrape: a writer may record between the bucket scan and
      // this read, in either order, so clamp the total to keep +Inf
      // cumulative and equal to _count — a torn mid-run scrape must
      // still be a valid exposition.
      const uint64_t total = std::max(cumulative, h.count());
      *out += name + "_bucket" + PromLabels(e->labels, "le=\"+Inf\"") + " " +
              std::to_string(total) + "\n";
      *out += name + "_sum" + PromLabels(e->labels, "") + " " +
              std::to_string(h.sum()) + "\n";
      *out += name + "_count" + PromLabels(e->labels, "") + " " +
              std::to_string(total) + "\n";
    }
  }
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  WriteText(&out);
  return out;
}

}  // namespace gdlog

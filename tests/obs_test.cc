// Tests for the observability layer: JSON writer/parser round trips,
// histogram bucketing and quantiles, registry snapshots, and trace span
// nesting.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gdlog {
namespace {

TEST(Json, WriterProducesParsableDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("line \"1\"\n\ttab");
  w.Key("n").Int(-42);
  w.Key("u").UInt(18446744073709551615ull);
  w.Key("pi").Double(3.5);
  w.Key("flag").Bool(true);
  w.Key("nothing").Null();
  w.Key("xs").BeginArray().Int(1).Int(2).Int(3).EndArray();
  w.EndObject();

  auto doc = ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("name")->string, "line \"1\"\n\ttab");
  EXPECT_EQ(doc->Find("n")->number, -42);
  EXPECT_EQ(doc->Find("pi")->number, 3.5);
  EXPECT_TRUE(doc->Find("flag")->boolean);
  EXPECT_EQ(doc->Find("nothing")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(doc->Find("xs")->is_array());
  EXPECT_EQ(doc->Find("xs")->items.size(), 3u);
  EXPECT_EQ(doc->Find("xs")->items[2].number, 3);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray().Double(0.0 / 0.0).Double(1e308 * 10).EndArray();
  auto doc = ParseJson(w.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->items[0].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc->items[1].kind, JsonValue::Kind::kNull);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("'single'").ok());
  EXPECT_TRUE(ParseJson("  {\"a\": [true, null]}  ").ok());
}

TEST(Histogram, SmallValuesGetExactBuckets) {
  // Values below kSubBuckets each own one bucket: no quantization at all.
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v) << "v=" << v;
    EXPECT_EQ(Histogram::BucketUpperEdge(v), v) << "v=" << v;
  }
  h.Record(5);
  h.Record(5);
  h.Record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 17u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 7u);
  const auto buckets = h.NonZeroBuckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].upper, 5u);
  EXPECT_EQ(buckets[0].count, 2u);
  EXPECT_EQ(buckets[1].upper, 7u);
  EXPECT_EQ(buckets[1].count, 1u);
}

TEST(Histogram, LogLinearRelativeErrorIsBounded) {
  // Above the exact range, the bucket edge quantizes with relative error
  // at most 2/kSubBuckets (~6.25%) across the whole uint64 range.
  const double max_rel = 2.0 / Histogram::kSubBuckets;
  const std::vector<uint64_t> probes = {
      33, 100, 1000, 123456, uint64_t{1} << 40,
      (uint64_t{1} << 40) + 12345, UINT64_MAX / 2};
  for (uint64_t v : probes) {
    const size_t i = Histogram::BucketIndex(v);
    const uint64_t upper = Histogram::BucketUpperEdge(i);
    ASSERT_GE(upper, v) << "v=" << v;
    const uint64_t lower = i == 0 ? 0 : Histogram::BucketUpperEdge(i - 1);
    ASSERT_LT(lower, v) << "v=" << v;
    EXPECT_LE(static_cast<double>(upper - lower) / static_cast<double>(v),
              max_rel)
        << "v=" << v;
  }
}

TEST(Histogram, BucketEdgesAreStrictlyMonotonic) {
  uint64_t prev = Histogram::BucketUpperEdge(0);
  for (size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    const uint64_t edge = Histogram::BucketUpperEdge(i);
    ASSERT_GT(edge, prev) << "bucket " << i;
    // BucketIndex(upper edge) must map back into bucket i: the edges and
    // the index function agree on where boundaries sit.
    ASSERT_EQ(Histogram::BucketIndex(edge), i) << "bucket " << i;
    prev = edge;
  }
}

TEST(Histogram, QuantilesInterpolateAndClamp) {
  Histogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0);

  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(50);
  // Identical observations: every quantile collapses onto the value
  // (clamped to the observed [min, max], not just the bucket).
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 50.0) << "q=" << q;
  }

  Histogram spread;
  for (uint64_t v = 1; v <= 1000; ++v) spread.Record(v);
  const double p50 = spread.Quantile(0.5);
  const double p99 = spread.Quantile(0.99);
  EXPECT_GT(p99, p50);
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.07);   // within the 6.25% error bound
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.07);
  EXPECT_LE(spread.Quantile(1.0), 1000.0);

  Histogram one;
  one.Record(3);
  EXPECT_LE(one.Quantile(0.99), 3);
}

TEST(Histogram, ObserveClampsNegativesAndHugeDoubles) {
  Histogram h;
  h.Observe(-5.0);
  h.Observe(1e30);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_GE(h.max(), 1ull << 62);
}

TEST(Histogram, StagedBatchEqualsRecordingEachValue) {
  // A stage flushed twice, with a value too large for the exact buckets
  // in between, against the same observations recorded one by one.
  const uint64_t values[] = {3, 0, 31, 3, 32, 7, 1000, 3, 5};
  Histogram direct, staged;
  HistogramStage stage(&staged);
  for (size_t i = 0; i < std::size(values); ++i) {
    direct.Record(values[i]);
    stage.Record(values[i]);
    if (i == 3) stage.Flush();
  }
  EXPECT_EQ(staged.count(), 6u);  // 32 and 1000 recorded at once
  stage.Flush();
  stage.Flush();  // an empty flush adds nothing
  EXPECT_EQ(staged.count(), direct.count());
  EXPECT_EQ(staged.sum(), direct.sum());
  EXPECT_EQ(staged.min(), direct.min());
  EXPECT_EQ(staged.max(), direct.max());
  const auto a = direct.NonZeroBuckets();
  const auto b = staged.NonZeroBuckets();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].upper, b[i].upper);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

TEST(Metrics, HandlesAreStableAndKeyedByLabels) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("rule.firings", {{"rule", "p/1"}});
  Counter* b = reg.GetCounter("rule.firings", {{"rule", "q/2"}});
  Counter* a2 = reg.GetCounter("rule.firings", {{"rule", "p/1"}});
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);

  a->Add(3);
  b->Add();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(b->value(), 1u);

  // Force growth; earlier handles must stay valid.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("filler", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(a->value(), 3u);

  Gauge* g = reg.GetGauge("queue.max");
  g->SetMax(7);
  g->SetMax(4);
  EXPECT_EQ(g->value(), 7);
}

TEST(Metrics, SnapshotRoundTripsThroughJson) {
  MetricsRegistry reg;
  reg.GetCounter("fires", {{"rule", "prm/4"}})->Add(11);
  reg.GetGauge("depth")->Set(-3);
  Histogram* h = reg.GetHistogram("lat");
  h->Record(7);
  h->Record(70);

  auto doc = ParseJson(reg.SnapshotJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const JsonValue* counters = doc->Find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_array());
  ASSERT_EQ(counters->items.size(), 1u);
  const JsonValue& c = counters->items[0];
  EXPECT_EQ(c.Find("name")->string, "fires");
  EXPECT_EQ(c.Find("value")->number, 11);
  EXPECT_EQ(c.Find("labels")->Find("rule")->string, "prm/4");

  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_TRUE(gauges != nullptr && gauges->is_array());
  EXPECT_EQ(gauges->items[0].Find("value")->number, -3);

  const JsonValue* hists = doc->Find("histograms");
  ASSERT_TRUE(hists != nullptr && hists->is_array());
  const JsonValue& hj = hists->items[0];
  EXPECT_EQ(hj.Find("count")->number, 2);
  EXPECT_EQ(hj.Find("sum")->number, 77);
  EXPECT_EQ(hj.Find("min")->number, 7);
  EXPECT_EQ(hj.Find("max")->number, 70);
  EXPECT_TRUE(hj.Find("p50") != nullptr);
}

TEST(Metrics, FindNeverCreates) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("missing"), nullptr);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  EXPECT_EQ(reg.size(), 0u);

  Counter* c = reg.GetCounter("hits", {{"rule", "p/1"}});
  EXPECT_EQ(reg.FindCounter("hits", {{"rule", "p/1"}}), c);
  EXPECT_EQ(reg.FindCounter("hits"), nullptr);  // labels are part of the key
  Histogram* h = reg.GetHistogram("lat");
  EXPECT_EQ(reg.FindHistogram("lat"), h);
}

TEST(Metrics, SnapshotDeltaSubtractsMonotonics) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("inserts");
  Gauge* g = reg.GetGauge("depth");
  Histogram* h = reg.GetHistogram("lat");
  c->Add(10);
  g->Set(5);
  h->Record(100);
  const MetricsSnapshot before = reg.Snapshot();
  c->Add(7);
  g->Set(2);
  h->Record(50);
  h->Record(60);
  const MetricsSnapshot after = reg.Snapshot();

  const MetricsSnapshot d = MetricsSnapshot::Delta(before, after);
  std::map<std::string, const MetricsSnapshot::Sample*> by_name;
  for (const auto& s : d.samples) by_name[s.name] = &s;
  ASSERT_EQ(by_name.count("inserts"), 1u);
  EXPECT_EQ(by_name["inserts"]->value, 7u);   // counter: after - before
  ASSERT_EQ(by_name.count("depth"), 1u);
  EXPECT_EQ(by_name["depth"]->gauge, 2);      // gauge: keeps `after`
  ASSERT_EQ(by_name.count("lat"), 1u);
  EXPECT_EQ(by_name["lat"]->value, 2u);       // histogram count delta
  EXPECT_EQ(by_name["lat"]->sum, 110u);       // histogram sum delta
}

// Minimal Prometheus text-format (0.0.4) checker: every non-comment line
// must be `name[{labels}] value`, names must match the metric name
// charset, every name must be typed by a preceding # TYPE line, and each
// histogram must expose a cumulative _bucket series ending in le="+Inf"
// whose final count equals _count.
void CheckPrometheusText(const std::string& text) {
  std::map<std::string, std::string> type_of;    // base name -> kind
  std::map<std::string, uint64_t> inf_buckets;   // series key -> +Inf count
  std::map<std::string, uint64_t> hist_counts;   // series key -> _count
  std::map<std::string, uint64_t> last_bucket;   // cumulative check
  std::istringstream in(text);
  std::string line;
  auto valid_name = [](const std::string& n) {
    if (n.empty() || (!std::isalpha(static_cast<unsigned char>(n[0])) &&
                      n[0] != '_' && n[0] != ':')) {
      return false;
    }
    for (char ch : n) {
      if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_' &&
          ch != ':') {
        return false;
      }
    }
    return true;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kw, name, kind;
      ls >> hash >> kw >> name >> kind;
      ASSERT_EQ(kw, "TYPE") << line;
      ASSERT_TRUE(valid_name(name)) << line;
      ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                  kind == "histogram")
          << line;
      ASSERT_EQ(type_of.count(name), 0u) << "duplicate TYPE: " << line;
      type_of[name] = kind;
      continue;
    }
    // Sample line: name[{labels}] value
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name =
        line.substr(0, brace == std::string::npos
                           ? line.find(' ')
                           : brace);
    ASSERT_TRUE(valid_name(name)) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparsable value: " << line;
    if (brace != std::string::npos) {
      ASSERT_NE(line.find('}'), std::string::npos) << line;
    }
    // Histogram series bookkeeping. The series key is the name plus its
    // non-le labels, so labeled histograms are checked independently.
    auto strip_suffix = [&](const char* suffix) {
      const size_t n = std::strlen(suffix);
      return name.size() > n && name.compare(name.size() - n, n, suffix) == 0
                 ? name.substr(0, name.size() - n)
                 : std::string();
    };
    const std::string bucket_base = strip_suffix("_bucket");
    const std::string count_base = strip_suffix("_count");
    if (!bucket_base.empty() && type_of.count(bucket_base) &&
        type_of[bucket_base] == "histogram") {
      ASSERT_NE(brace, std::string::npos) << "bucket without le: " << line;
      std::string labels = line.substr(brace, line.find('}') - brace + 1);
      // The le label starts after '{' or ',' — a bare find("le=\"")
      // would also match inside e.g. rule="...".
      size_t le = labels.find("{le=\"");
      if (le == std::string::npos) le = labels.find(",le=\"");
      ASSERT_NE(le, std::string::npos) << line;
      ++le;  // past the delimiter
      const size_t le_end = labels.find('"', le + 4);
      const std::string le_val = labels.substr(le + 4, le_end - le - 4);
      // Series key: everything except the le label (and the comma it
      // left behind when other labels precede or follow it).
      std::string rest = labels.substr(0, le) + labels.substr(le_end + 1);
      size_t comma;
      while ((comma = rest.find(",}")) != std::string::npos) {
        rest.erase(comma, 1);
      }
      while ((comma = rest.find("{,")) != std::string::npos) {
        rest.erase(comma + 1, 1);
      }
      std::string key = bucket_base + rest;
      const uint64_t n = std::strtoull(value.c_str(), nullptr, 10);
      ASSERT_GE(n, last_bucket[key]) << "non-cumulative: " << line;
      last_bucket[key] = n;
      if (le_val == "+Inf") inf_buckets[key] = n;
    } else if (!count_base.empty() && type_of.count(count_base) &&
               type_of[count_base] == "histogram") {
      std::string key = count_base;
      if (brace != std::string::npos) {
        key += line.substr(brace, line.find('}') - brace + 1);
      }
      hist_counts[key] = std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  for (const auto& [key, n] : hist_counts) {
    // Match the _count series against its +Inf bucket. The bucket key has
    // the le label removed, so a label-free histogram's keys line up; a
    // labeled one differs only by the brace content ordering, which the
    // writer emits deterministically.
    auto it = inf_buckets.find(key.find('{') == std::string::npos
                                   ? key + "{}"
                                   : key);
    if (it == inf_buckets.end()) it = inf_buckets.find(key);
    ASSERT_NE(it, inf_buckets.end()) << "no +Inf bucket for " << key;
    EXPECT_EQ(it->second, n) << key;
  }
}

TEST(Metrics, PrometheusTextIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("exec.inserts")->Add(42);
  reg.GetCounter("rule.firings", {{"rule", "prm/4#1"}})->Add(3);
  reg.GetGauge("memory.tracked_peak_bytes")->Set(12345);
  Histogram* h = reg.GetHistogram("rule.apply_ns", {{"rule", "prm/4#1"}});
  h->Record(100);
  h->Record(2000);
  h->Record(2000000);
  Histogram* d = reg.GetHistogram("seminaive.delta_rows");
  d->Record(0);
  d->Record(17);

  const std::string text = reg.PrometheusText();
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("gdlog_exec_inserts_total 42"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gdlog_rule_apply_ns_bucket"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  CheckPrometheusText(text);
}

TEST(Metrics, PrometheusEscapesHostileLabelValues) {
  MetricsRegistry reg;
  reg.GetCounter("rule.firings", {{"rule", "we\"ird\\p\n/1"}})->Add(1);
  const std::string text = reg.PrometheusText();
  // The raw quote, backslash, and newline must come out escaped.
  EXPECT_NE(text.find("we\\\"ird\\\\p\\n/1"), std::string::npos) << text;
  CheckPrometheusText(text);
}

// -- Flight recorder --------------------------------------------------------

TEST(FlightRecorder, RecordsAndDumpsInOrder) {
  FlightRecorder rec(/*capacity=*/16);
  rec.Record(FlightEventKind::kRunStart, 3, 7);
  rec.Record(FlightEventKind::kRound, 1, 10);
  rec.Record(FlightEventKind::kRound, 1, 4);
  rec.Record(FlightEventKind::kTermination, 0, 1);

  const auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kRunStart);
  EXPECT_EQ(events[0].a0, 3);
  EXPECT_EQ(events[0].a1, 7);
  EXPECT_EQ(events[3].kind, FlightEventKind::kTermination);
  // Sequence numbers are assigned in record order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }

  const std::string dump = rec.DumpText();
  EXPECT_NE(dump.find("run-start"), std::string::npos) << dump;
  EXPECT_NE(dump.find("termination"), std::string::npos);
  EXPECT_NE(dump.find("a0=3"), std::string::npos);
}

TEST(FlightRecorder, RingKeepsOnlyTheNewestEvents) {
  FlightRecorder rec(/*capacity=*/8);
  for (int i = 0; i < 100; ++i) {
    rec.Record(FlightEventKind::kRound, i, 0);
  }
  const auto events = rec.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The retained window is the last 8 records, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a0, static_cast<int64_t>(92 + i));
  }
  EXPECT_EQ(rec.recorded(), 100u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(/*capacity=*/100);
  EXPECT_EQ(rec.capacity(), 128u);
  FlightRecorder rec1(/*capacity=*/0);
  EXPECT_GE(rec1.capacity(), 1u);
}

TEST(FlightRecorder, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(FlightEventKind::kDurabilityError);
       ++k) {
    const std::string_view name =
        FlightEventKindName(static_cast<FlightEventKind>(k));
    EXPECT_FALSE(name.empty()) << "kind " << k;
    EXPECT_NE(name, "?") << "kind " << k;
  }
}

TEST(Trace, SpansNestAndRecordContainment) {
  Tracer tracer(/*sample_every=*/1);
  {
    TraceSpan outer(&tracer, "outer", "test");
    outer.AddArg("n", 42);
    {
      TraceSpan inner(&tracer, "inner", "test");
    }
    tracer.Instant("tick", "test", {{"k", 1}});
  }
  ASSERT_EQ(tracer.events().size(), 3u);
  // Inner closes first, then the instant, then the outer span.
  const TraceEvent& inner = tracer.events()[0];
  const TraceEvent& tick = tracer.events()[1];
  const TraceEvent& outer = tracer.events()[2];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(tick.phase, 'i');
  EXPECT_EQ(outer.phase, 'X');
  // Containment: outer starts no later and ends no earlier than inner.
  EXPECT_LE(outer.ts_ns, inner.ts_ns);
  EXPECT_GE(outer.ts_ns + outer.dur_ns, inner.ts_ns + inner.dur_ns);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].first, "n");
  EXPECT_EQ(outer.args[0].second, 42);
}

TEST(Trace, NullTracerSpansAreNoops) {
  TraceSpan span(nullptr, "ghost", "test");
  span.AddArg("k", 1);  // must not crash
}

TEST(Trace, SamplingKeepsOneInEveryPeriod) {
  Tracer tracer(/*sample_every=*/4);
  int kept = 0;
  for (int i = 0; i < 40; ++i) {
    if (tracer.Sample()) ++kept;
  }
  EXPECT_EQ(kept, 10);
}

TEST(Trace, ChromeTraceFileIsValidJson) {
  Tracer tracer;
  {
    TraceSpan span(&tracer, "phase", "engine");
  }
  tracer.Instant("mark", "engine");

  const std::string path = ::testing::TempDir() + "/gdlog_obs_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  auto doc = ParseJson(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_EQ(events->items.size(), 2u);
  const JsonValue& span = events->items[0];
  EXPECT_EQ(span.Find("name")->string, "phase");
  EXPECT_EQ(span.Find("ph")->string, "X");
  EXPECT_TRUE(span.Find("ts") != nullptr);
  EXPECT_TRUE(span.Find("dur") != nullptr);
  EXPECT_EQ(doc->Find("displayTimeUnit")->string, "ms");
}

}  // namespace
}  // namespace gdlog

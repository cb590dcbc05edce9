// Concurrency tests for the lock-free observability primitives: eight
// threads hammer the same counters, histograms, and flight-recorder ring
// while a reader snapshots, then the exact final counts are asserted (no
// lost updates) and the text exports must still parse. Run under
// ThreadSanitizer in CI (GDLOG_SANITIZE=thread) to prove the relaxed
// atomics are race-free, not just lucky.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace gdlog {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 10000;

TEST(ObsConcurrency, CountersLoseNoUpdates) {
  MetricsRegistry reg;
  Counter* shared = reg.GetCounter("shared");
  Gauge* high = reg.GetGauge("high_water");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix shared-handle adds with registration races on the same key.
      Counter* mine = reg.GetCounter("shared");
      for (int i = 0; i < kOpsPerThread; ++i) {
        (i % 2 ? shared : mine)->Add(1);
        high->SetMax(t * kOpsPerThread + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(high->value(), (kThreads - 1) * kOpsPerThread +
                               (kOpsPerThread - 1));
}

TEST(ObsConcurrency, HistogramCountSumMinMaxAreExact) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("lat");
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Every thread records the same multiset {1..kOps}, shifted into
        // different octaves so many distinct buckets are hit.
        h->Record(static_cast<uint64_t>(i + 1) << (t % 4));
      }
    });
  }
  // Concurrent readers: quantiles and snapshots while writers run.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)h->Quantile(0.99);
      (void)reg.SnapshotJson();
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const uint64_t n = static_cast<uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(h->count(), n);
  EXPECT_EQ(h->min(), 1u);
  EXPECT_EQ(h->max(), static_cast<uint64_t>(kOpsPerThread) << 3);
  // Sum: two threads per shift s in {0,1,2,3}, each contributing
  // (1+...+kOps) << s.
  const uint64_t base =
      static_cast<uint64_t>(kOpsPerThread) * (kOpsPerThread + 1) / 2;
  const uint64_t want = 2 * (base + (base << 1) + (base << 2) + (base << 3));
  EXPECT_EQ(h->sum(), want);
  // Bucket counts must total the observation count exactly.
  uint64_t bucket_total = 0;
  for (const auto& b : h->NonZeroBuckets()) bucket_total += b.count;
  EXPECT_EQ(bucket_total, n);
}

TEST(ObsConcurrency, SnapshotsStayParseableUnderFire) {
  MetricsRegistry reg;
  // Registered up front so the exports are non-empty even if the first
  // snapshot beats every writer thread to the registry.
  reg.GetCounter("warmup")->Add(1);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Counter* c =
          reg.GetCounter("per_thread", {{"t", std::to_string(t)}});
      Histogram* h = reg.GetHistogram("lat");
      for (int i = 0; i < kOpsPerThread; ++i) {
        c->Add(1);
        h->Record(i);
      }
    });
  }
  // Snapshot while the writers are (very likely) still running; the
  // exports must parse regardless of how the race interleaves.
  for (int i = 0; i < 20; ++i) {
    auto doc = ParseJson(reg.SnapshotJson());
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_FALSE(reg.PrometheusText().empty());
  }
  for (auto& th : writers) th.join();
  // Final state: every per-thread counter holds exactly its own writes.
  for (int t = 0; t < kThreads; ++t) {
    const Counter* c =
        reg.FindCounter("per_thread", {{"t", std::to_string(t)}});
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), static_cast<uint64_t>(kOpsPerThread));
  }
}

TEST(ObsConcurrency, FlightRecorderSurvivesWriterStorm) {
  FlightRecorder rec(/*capacity=*/64);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        rec.Record(FlightEventKind::kRound, t, i);
      }
    });
  }
  // Dump concurrently: lapped slots are skipped, never torn into
  // nonsense kinds, and the call must not crash.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto events = rec.Snapshot();
      for (const auto& ev : events) {
        ASSERT_EQ(ev.kind, FlightEventKind::kRound);
        ASSERT_GE(ev.a0, 0);
        ASSERT_LT(ev.a0, kThreads);
      }
      (void)rec.DumpText();
    }
  });
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(rec.recorded(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  const auto events = rec.Snapshot();
  EXPECT_EQ(events.size(), rec.capacity());
  // Retained events are in strictly increasing sequence order.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

}  // namespace
}  // namespace gdlog

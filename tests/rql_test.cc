// Unit tests for the (R, Q, L) candidate queue of Section 6.
#include "eval/rql.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/guardrails.h"
#include "common/rng.h"

// Counts global operator new calls, so a test can bound the allocations
// of a stretch of queue operations.
namespace {
size_t g_allocations = 0;
}  // namespace

// GCC treats the replaced operator new as the builtin and flags the
// free() in the matching replaced delete as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace gdlog {
namespace {

class RqlTest : public ::testing::Test {
 protected:
  ValueStore store_;

  Value Key(int64_t k) {
    std::vector<Value> v{Value::Int(k)};
    return store_.MakeTuple(v);
  }
  std::vector<Value> Snap(int64_t a, int64_t b) {
    return {Value::Int(a), Value::Int(b)};
  }
};

TEST_F(RqlTest, MinOrderPopsAscending) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, /*merge=*/false);
  q.Push(Value::Int(30), Key(1), Snap(1, 30));
  q.Push(Value::Int(10), Key(2), Snap(2, 10));
  q.Push(Value::Int(20), Key(3), Snap(3, 20));
  EXPECT_EQ(q.Pop()->cost.AsInt(), 10);
  EXPECT_EQ(q.Pop()->cost.AsInt(), 20);
  EXPECT_EQ(q.Pop()->cost.AsInt(), 30);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST_F(RqlTest, MaxOrderPopsDescending) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMax, false);
  q.Push(Value::Int(30), Key(1), Snap(1, 30));
  q.Push(Value::Int(10), Key(2), Snap(2, 10));
  EXPECT_EQ(q.Pop()->cost.AsInt(), 30);
  EXPECT_EQ(q.Pop()->cost.AsInt(), 10);
}

TEST_F(RqlTest, FifoPreservesInsertionOrder) {
  CandidateQueue q(&store_, CandidateQueue::Order::kFifo, false);
  for (int i = 0; i < 5; ++i) q.Push(Value::Int(0), Key(i), Snap(i, 0));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.Pop()->snapshot[0].AsInt(), i);
  }
}

TEST_F(RqlTest, TieSeedPerturbsOrder) {
  CandidateQueue a(&store_, CandidateQueue::Order::kFifo, false, 0);
  CandidateQueue b(&store_, CandidateQueue::Order::kFifo, false, 12345);
  for (int i = 0; i < 16; ++i) {
    a.Push(Value::Int(0), Key(i), Snap(i, 0));
    b.Push(Value::Int(0), Key(i), Snap(i, 0));
  }
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (a.Pop()->snapshot[0] != b.Pop()->snapshot[0]) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST_F(RqlTest, DuplicateKeysDroppedInFullMode) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, false);
  q.Push(Value::Int(10), Key(1), Snap(1, 10));
  q.Push(Value::Int(10), Key(1), Snap(1, 10));  // exact duplicate
  EXPECT_TRUE(q.Pop().has_value());
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().merged, 1u);
}

TEST_F(RqlTest, MergeKeepsCheaperCandidate) {
  // The paper's insertion rule: a congruent, costlier fact goes to R;
  // a cheaper one supersedes the queued entry.
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, /*merge=*/true);
  q.Push(Value::Int(50), Key(7), Snap(7, 50));
  q.Push(Value::Int(80), Key(7), Snap(7, 80));  // worse: to R
  q.Push(Value::Int(30), Key(7), Snap(7, 30));  // better: supersedes
  auto c = q.Pop();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->cost.AsInt(), 30);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().merged, 2u);
}

TEST_F(RqlTest, MergeMaxQueueCountsClasses) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, true);
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 4; ++k) {
      q.Push(Value::Int(100 - round * 10 + k), Key(k), Snap(k, round));
    }
  }
  // Only 4 congruence classes are ever live.
  EXPECT_EQ(q.stats().max_queue, 4u);
}

TEST_F(RqlTest, FiredClassBlocksReinsertion) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, true);
  q.Push(Value::Int(10), Key(1), Snap(1, 10));
  auto c = q.Pop();
  q.MarkFired(*c);
  q.Push(Value::Int(5), Key(1), Snap(1, 5));  // L-hit at insertion
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(q.stats().fired, 1u);
}

TEST_F(RqlTest, RedundantClassBlockedInMergeMode) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, true);
  q.Push(Value::Int(10), Key(1), Snap(1, 10));
  auto c = q.Pop();
  q.MarkRedundant(*c);  // FD-rejected: the whole class is dead
  q.Push(Value::Int(5), Key(1), Snap(1, 5));
  EXPECT_FALSE(q.Pop().has_value());
}

TEST_F(RqlTest, LinearScanModeSameResults) {
  CandidateQueue heap(&store_, CandidateQueue::Order::kMin, false, 0, false);
  CandidateQueue lin(&store_, CandidateQueue::Order::kMin, false, 0, true);
  Rng rng(3);
  std::vector<int64_t> costs;
  for (int i = 0; i < 100; ++i) costs.push_back(rng.NextInt(0, 1000) * 100 + i);
  for (int64_t c : costs) {
    heap.Push(Value::Int(c), Key(c), Snap(c, 0));
    lin.Push(Value::Int(c), Key(c), Snap(c, 0));
  }
  for (int i = 0; i < 100; ++i) {
    auto a = heap.Pop();
    auto b = lin.Pop();
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->cost, b->cost) << "at pop " << i;
  }
}

TEST_F(RqlTest, LargeVolumeHeapProperty) {
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, false);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const int64_t c = rng.NextInt(0, 1'000'000) * 10'000 + i;
    q.Push(Value::Int(c), Key(c), Snap(c, 0));
  }
  int64_t prev = -1;
  size_t popped = 0;
  while (auto c = q.Pop()) {
    EXPECT_GE(c->cost.AsInt(), prev);
    prev = c->cost.AsInt();
    ++popped;
  }
  EXPECT_EQ(popped, 5000u);
}

TEST_F(RqlTest, PoppedSnapshotSurvivesUntilNextPush) {
  // Slots are recycled: after the first round every push reuses the slot
  // a pop released. A popped view must stay intact across later pops
  // and only be invalidated by the next Push.
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, /*merge=*/false);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 3; ++i) {
      const int64_t k = round * 10 + i;
      q.Push(Value::Int(k), Key(k), Snap(k, 100 + k));
    }
    auto a = q.Pop();
    auto b = q.Pop();
    auto c = q.Pop();
    ASSERT_TRUE(a && b && c);
    EXPECT_FALSE(q.Pop().has_value());
    const int64_t k = round * 10;
    EXPECT_EQ(a->snapshot[0].AsInt(), k);
    EXPECT_EQ(a->snapshot[1].AsInt(), 100 + k);
    EXPECT_EQ(b->snapshot[0].AsInt(), k + 1);
    EXPECT_EQ(b->snapshot[1].AsInt(), 101 + k);
    EXPECT_EQ(c->snapshot[0].AsInt(), k + 2);
    EXPECT_EQ(c->snapshot[1].AsInt(), 102 + k);
  }
}

TEST_F(RqlTest, MemoryChargeTracksGrowthAndIsReleased) {
  MemoryBudget budget;
  {
    CandidateQueue q(&store_, CandidateQueue::Order::kMin, /*merge=*/true);
    q.set_memory_budget(&budget);
    const size_t empty = budget.used();
    size_t last = empty;
    for (int64_t i = 0; i < 5000; ++i) {
      const Value key[2] = {Value::Int(i % 97), Value::Int(i)};
      const Value snap[3] = {key[0], key[1], Value::Int(i * 7)};
      q.Push(Value::Int(i * 7 % 1000), key, snap);
      EXPECT_GE(budget.used(), last);  // charges only grow while pushing
      last = budget.used();
    }
    EXPECT_GT(budget.used(), empty + 5000 * 3 * sizeof(Value));
    EXPECT_EQ(budget.used(), q.ApproxBytes());
    while (q.Pop()) {
    }
    EXPECT_EQ(budget.used(), q.ApproxBytes());
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(budget.peak(), 0u);
}

TEST_F(RqlTest, PushPopAllocateOnlyOnGrowth) {
  // 100k candidates through push, pop and a redundant/fired mark each:
  // the only allocations are the amortized growth of the heap, slab,
  // free list and class table — a few dozen, not one per candidate.
  constexpr int64_t kN = 100000;
  CandidateQueue q(&store_, CandidateQueue::Order::kMin, /*merge=*/true,
                   /*tie_seed=*/12345);
  const size_t before = g_allocations;
  for (int64_t i = 0; i < kN; ++i) {
    const Value key[2] = {Value::Int(i % 1000), Value::Int(i / 1000)};
    const Value snap[3] = {key[0], key[1], Value::Int(i)};
    q.Push(Value::Int((i * 7919) % 5000), key, snap);
    if (i % 3 == 2) {
      auto c = q.Pop();
      ASSERT_TRUE(c.has_value());
      if (c->seq % 2 == 0) {
        q.MarkFired(*c);
      } else {
        q.MarkRedundant(*c);
      }
    }
  }
  while (auto c = q.Pop()) q.MarkRedundant(*c);
  EXPECT_LT(g_allocations - before, 200u);
  EXPECT_EQ(q.stats().inserted, static_cast<uint64_t>(kN));

  // Burst-then-drain cycles: each burst is sorted into a run, which
  // takes over the heap's storage while the heap takes the drained
  // run's. Once both have grown to the burst, only the class table
  // grows (every burst brings fresh classes).
  constexpr int64_t kBurst = 20000;
  size_t cycles_before = 0;
  for (int64_t cycle = 0; cycle < 6; ++cycle) {
    if (cycle == 2) cycles_before = g_allocations;
    for (int64_t i = 0; i < kBurst; ++i) {
      const int64_t k = kN + cycle * kBurst + i;
      const Value key[2] = {Value::Int(k % 1000), Value::Int(k / 1000)};
      const Value snap[3] = {key[0], key[1], Value::Int(k)};
      q.Push(Value::Int((k * 7919) % 5000), key, snap);
    }
    int64_t popped = 0;
    while (auto c = q.Pop()) {
      ++popped;
      if (c->seq % 2 == 0) {
        q.MarkFired(*c);
      } else {
        q.MarkRedundant(*c);
      }
    }
    EXPECT_EQ(popped, kBurst);
  }
  EXPECT_LT(g_allocations - cycles_before, 12u);
}

// ---------------------------------------------------------------------------
// Randomized differential test against a naive list model of the paper's
// insertion rule (Section 6):
//   * a candidate whose class is in L goes to R without consuming a seq;
//   * otherwise it consumes a seq (the tie-break input), then
//     - full mode: an exact duplicate of a seen key goes to R;
//     - merge mode: a congruent candidate that is no better than its
//       class's authoritative entry goes to R, a better one supersedes it
//       (the old entry goes stale, to be skipped at pop);
//   * pop returns the best live entry by (cost, tie); dead entries that
//     order before it are skimmed into R on the way (all of them at
//     drain); the linear-scan ablation skims only at drain.
// ---------------------------------------------------------------------------

class ModelQueue {
 public:
  using Order = CandidateQueue::Order;
  struct Entry {
    Value cost;
    uint64_t tie;
    uint64_t seq;
    std::vector<Value> key;
    std::vector<Value> snapshot;
    bool dead = false;
  };

  ModelQueue(const ValueStore* store, Order order, bool merge,
             uint64_t tie_seed, bool linear)
      : store_(store),
        order_(order),
        merge_(merge),
        tie_seed_(tie_seed),
        linear_(linear) {}

  void Push(Value cost, const std::vector<Value>& key,
            const std::vector<Value>& snapshot) {
    ++stats_.inserted;
    if (l_.count(key)) {
      ++stats_.merged;
      return;
    }
    const uint64_t seq = next_seq_++;
    auto cls = class_cost_.find(key);
    if (cls != class_cost_.end()) {
      ++stats_.merged;
      if (!merge_) return;
      const int c = store_->Compare(cost, cls->second);
      if (!(order_ == Order::kMin ? c < 0 : c > 0)) return;
      for (Entry& e : entries_) {
        if (!e.dead && e.key == key) e.dead = true;
      }
    }
    class_cost_[key] = cost;
    entries_.push_back(
        {cost, tie_seed_ ? Mix64(seq ^ tie_seed_) : seq, seq, key, snapshot});
    stats_.max_queue = std::max(stats_.max_queue, LiveSize());
  }

  std::optional<Entry> Pop() {
    int best = -1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].dead) continue;
      if (best < 0 || Before(entries_[i], entries_[best])) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      stats_.redundant += entries_.size();
      entries_.clear();
      return std::nullopt;
    }
    Entry out = entries_[best];
    entries_.erase(entries_.begin() + best);
    if (!linear_) {
      // Heap mode: dead entries ordered before the popped one surfaced
      // at the top first.
      const size_t n = entries_.size();
      std::erase_if(entries_, [&](const Entry& e) {
        return e.dead && Before(e, out);
      });
      stats_.redundant += n - entries_.size();
    }
    return out;
  }

  void MarkFired(const Entry& e) {
    ++stats_.fired;
    l_.insert(e.key);
  }
  void MarkRedundant(const Entry& e) {
    ++stats_.redundant;
    if (merge_) l_.insert(e.key);
  }

  size_t LiveSize() const {
    return std::count_if(entries_.begin(), entries_.end(),
                         [](const Entry& e) { return !e.dead; });
  }
  size_t CountLiveEqualCost(Value cost) const {
    return std::count_if(entries_.begin(), entries_.end(), [&](const Entry& e) {
      return !e.dead && store_->Compare(e.cost, cost) == 0;
    });
  }
  const CandidateQueueStats& stats() const { return stats_; }

 private:
  bool Before(const Entry& a, const Entry& b) const {
    if (order_ != Order::kFifo) {
      const int c = store_->Compare(a.cost, b.cost);
      if (c != 0) return order_ == Order::kMin ? c < 0 : c > 0;
    }
    return a.tie < b.tie;
  }

  const ValueStore* store_;
  Order order_;
  bool merge_;
  uint64_t tie_seed_;
  bool linear_;
  uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;  // Q plus stale entries not yet skimmed
  std::set<std::vector<Value>> l_;
  std::map<std::vector<Value>, Value> class_cost_;  // authoritative cost
  CandidateQueueStats stats_;
};

void ExpectSameStats(const CandidateQueueStats& a, const CandidateQueueStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.inserted, b.inserted) << where;
  EXPECT_EQ(a.merged, b.merged) << where;
  EXPECT_EQ(a.redundant, b.redundant) << where;
  EXPECT_EQ(a.fired, b.fired) << where;
  EXPECT_EQ(a.max_queue, b.max_queue) << where;
}

TEST_F(RqlTest, RandomStreamsMatchNaiveModel) {
  using Order = CandidateQueue::Order;
  constexpr int64_t kRunMin = CandidateQueue::kRunMin;
  // A few symbol costs exercise the ValueStore::Compare fallback.
  const Value syms[2] = {store_.MakeSymbol("p"), store_.MakeSymbol("q")};
  int config = 0;
  for (const bool merge : {true, false}) {
    for (const Order order : {Order::kMin, Order::kMax, Order::kFifo}) {
      for (const uint64_t tie_seed : {uint64_t{0}, uint64_t{12345}}) {
        for (const bool linear : {false, true}) {
          const std::string where = "merge=" + std::to_string(merge) +
                                    " order=" +
                                    std::to_string(static_cast<int>(order)) +
                                    " seed=" + std::to_string(tie_seed) +
                                    " linear=" + std::to_string(linear);
          Rng rng(1000 + config++);
          CandidateQueue q(&store_, order, merge, tie_seed, linear);
          ModelQueue m(&store_, order, merge, tie_seed, linear);
          int64_t pushes = 0;
          int steps = 0;
          std::string at;
          // Pushes a candidate whose key is drawn from [base, base + span)
          // and returns its cost. Full mode keys a candidate by its whole
          // snapshot (so exact duplicates recur); merge mode by a
          // two-column class key, with a unique snapshot per push.
          const auto push = [&](int64_t base, int64_t span) {
            const int64_t k = base + rng.NextInt(0, span - 1);
            const int64_t c = rng.NextInt(0, 5);
            const Value cost =
                rng.NextBounded(10) == 0 ? syms[c % 2] : Value::Int(c);
            std::vector<Value> snap, key;
            if (merge) {
              key = {Value::Int(k % 4), Value::Int(k / 4)};
              snap = {key[0], key[1], cost, Value::Int(pushes)};
            } else {
              snap = {Value::Int(k), cost};
              key = snap;
            }
            ++pushes;
            q.Push(cost, key, snap);
            m.Push(cost, key, snap);
            return cost;
          };
          // Pops both queues and marks the popped candidate fired or
          // redundant; returns its cost, or nullopt once Q is drained.
          const auto pop = [&]() -> std::optional<Value> {
            auto got = q.Pop();
            auto want = m.Pop();
            EXPECT_EQ(got.has_value(), want.has_value()) << at;
            if (!got || !want) return std::nullopt;
            EXPECT_EQ(got->cost, want->cost) << at;
            EXPECT_EQ(got->seq, want->seq) << at;
            EXPECT_TRUE(std::equal(got->snapshot.begin(), got->snapshot.end(),
                                   want->snapshot.begin(),
                                   want->snapshot.end()))
                << at;
            if (rng.NextBounded(2) == 0) {
              q.MarkFired(*got);
              m.MarkFired(*want);
            } else {
              q.MarkRedundant(*got);
              m.MarkRedundant(*want);
            }
            return got->cost;
          };
          // One push or pop, then the same stats, live size and tie count
          // as the model. Returns false when a pop found Q drained.
          const auto step = [&](bool is_push, int64_t base, int64_t span) {
            at = where + " step=" + std::to_string(steps++);
            Value cost = Value::Int(0);
            bool popped = false;
            if (is_push) {
              cost = push(base, span);
            } else if (const auto c = pop()) {
              cost = *c;
              popped = true;
            }
            EXPECT_EQ(q.LiveSize(), m.LiveSize()) << at;
            EXPECT_EQ(q.CountLiveEqualCost(cost), m.CountLiveEqualCost(cost))
                << at;
            ExpectSameStats(q.stats(), m.stats(), at);
            return is_push || popped;
          };
          const auto drain = [&] {
            while (step(false, 0, 0)) {
            }
          };
          // A burst of n pushes with no pop between them, over a fresh
          // key range twice as wide: most are placed, a few supersede.
          int64_t base = 100;  // above the mixed phases' keys
          const auto burst = [&](int64_t n) {
            for (int64_t i = 0; i < n; ++i) step(true, base, 2 * n);
            base += 2 * n;
          };
          // Mixed: a few pushes between pops, over 12 keys, so entries go
          // stale and classes recur.
          const auto mixed = [&] {
            for (int i = 0; i < 600; ++i) step(rng.NextBounded(5) < 3, 0, 12);
          };
          mixed();
          drain();
          // A burst onto an empty queue becomes a run; half of it is
          // consumed while pushes of its keys (superseding entries in the
          // run) arrive in the heap.
          const int64_t n = 2 * kRunMin + rng.NextInt(0, kRunMin / 2);
          burst(n);
          for (int64_t i = 0; i < n; ++i) {
            step(rng.NextBounded(4) == 0, base - 2 * n, 2 * n);
          }
          // A second burst while the run is half consumed goes to the
          // heap. A third, after everything drained, is a new run, left a
          // third consumed when the mixed phase resumes.
          burst(n);
          drain();
          burst(n);
          for (int64_t i = 0; i < n / 3; ++i) step(false, 0, 0);
          mixed();
          // Drain: every stale entry is accounted for.
          drain();
          EXPECT_EQ(q.LiveSize(), 0u) << where;
          ExpectSameStats(q.stats(), m.stats(), where + " drained");
        }
      }
    }
  }
}

}  // namespace
}  // namespace gdlog

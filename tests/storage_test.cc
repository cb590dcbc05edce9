// Unit tests for relations, indices, delta windows, and the catalog.
#include <algorithm>

#include <gtest/gtest.h>

#include "common/guardrails.h"
#include "storage/catalog.h"
#include "storage/index.h"
#include "storage/relation.h"

namespace gdlog {
namespace {

std::vector<Value> Row2(int64_t a, int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

TEST(Relation, InsertDeduplicates) {
  Relation rel("r", 2);
  EXPECT_TRUE(rel.Insert(TupleView(Row2(1, 2))).inserted);
  EXPECT_FALSE(rel.Insert(TupleView(Row2(1, 2))).inserted);
  EXPECT_TRUE(rel.Insert(TupleView(Row2(2, 1))).inserted);
  EXPECT_EQ(rel.size(), 2u);
}

TEST(Relation, ContainsAndFind) {
  Relation rel("r", 2);
  rel.Insert(TupleView(Row2(5, 6)));
  EXPECT_TRUE(rel.Contains(TupleView(Row2(5, 6))));
  EXPECT_FALSE(rel.Contains(TupleView(Row2(6, 5))));
  EXPECT_NE(rel.Find(TupleView(Row2(5, 6))), kNoRow);
}

TEST(Relation, ManyRowsSurviveRehash) {
  Relation rel("r", 2);
  for (int i = 0; i < 5000; ++i) rel.Insert(TupleView(Row2(i, i * 2)));
  EXPECT_EQ(rel.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(rel.Contains(TupleView(Row2(i, i * 2)))) << i;
  }
}

TEST(Relation, EpochWindows) {
  Relation rel("r", 1);
  auto row1 = std::vector<Value>{Value::Int(1)};
  auto row2 = std::vector<Value>{Value::Int(2)};
  auto row3 = std::vector<Value>{Value::Int(3)};
  rel.Insert(TupleView(row1));
  rel.Insert(TupleView(row2));
  EXPECT_EQ(rel.AdvanceEpoch(), 2u);  // both become the delta
  EXPECT_EQ(rel.delta_begin(), 0u);
  EXPECT_EQ(rel.delta_end(), 2u);
  rel.Insert(TupleView(row3));
  EXPECT_EQ(rel.new_size(), 1u);
  EXPECT_EQ(rel.AdvanceEpoch(), 1u);  // row3 becomes the delta
  EXPECT_EQ(rel.delta_begin(), 2u);
  EXPECT_EQ(rel.delta_end(), 3u);
  rel.SealEpoch();
  EXPECT_EQ(rel.delta_size(), 0u);
}

TEST(Relation, RowViewMatchesInsertion) {
  Relation rel("r", 3);
  std::vector<Value> row{Value::Int(7), Value::Nil(), Value::Int(9)};
  const auto res = rel.Insert(TupleView(row));
  const TupleView view = rel.Row(res.row);
  EXPECT_TRUE(TupleEquals(view, TupleView(row)));
}

TEST(Relation, BudgetChargedOnGrowthOnly) {
  // An insert re-counts the budget only when it grows a capacity. Across
  // 10k inserts (several rehashes of the dedup set and of each index),
  // with 0, 1 and 2 indices, the charge must still equal ApproxBytes()
  // after every insert, and the alloc probe must fire once per growing
  // insert, exactly as when every insert re-counted.
  for (size_t num_indices = 0; num_indices <= 2; ++num_indices) {
    SCOPED_TRACE(num_indices);
    auto injector = FaultInjector::Parse("alloc@1000000000");
    ASSERT_TRUE(injector.ok());
    MemoryBudget budget;
    budget.set_fault_injector(&*injector);
    Relation rel("r", 2);
    // Rows and indices grow in step from empty. Retracting some rows
    // first leaves the row storage larger than the indices built next,
    // so some inserts grow an index and nothing else.
    for (int64_t i = 0; i < 100; ++i) rel.Insert(TupleView(Row2(-1, i)));
    for (int64_t i = 0; i < 100; i += 3) rel.Retract(TupleView(Row2(-1, i)));
    if (num_indices >= 1) rel.EnsureIndex({0});
    if (num_indices >= 2) rel.EnsureIndex({1, 0});
    rel.set_memory_budget(&budget);
    const uint64_t hits_before = injector->hits(FaultInjector::kAlloc);
    uint64_t growing_inserts = 0;
    for (int64_t i = 0; i < 10000; ++i) {
      const size_t bytes_before = rel.ApproxBytes();
      // Every fourth insert repeats a row: dedup hits grow nothing.
      const int64_t k = i % 4 == 3 ? i - 1 : i;
      rel.Insert(TupleView(Row2(k / 7, k)));
      if (rel.ApproxBytes() != bytes_before) ++growing_inserts;
      ASSERT_EQ(budget.used(), rel.ApproxBytes()) << "after insert " << i;
    }
    EXPECT_GT(growing_inserts, 10u);
    EXPECT_EQ(injector->hits(FaultInjector::kAlloc) - hits_before,
              growing_inserts);
  }
}

TEST(Relation, InsertBatchMatchesInsertRowByRow) {
  // A batch with duplicates inside it and against earlier rows, long
  // enough to span several hash chunks and rehashes: same rows in the
  // same order, same index contents and the same budget charges as one
  // Insert per row.
  std::vector<Value> batch;
  for (int64_t i = 0; i < 3000; ++i) {
    const std::vector<Value> row = Row2(i % 1200, (i * 7) % 5);
    batch.insert(batch.end(), row.begin(), row.end());
  }
  auto injector_a = FaultInjector::Parse("alloc@1000000000");
  auto injector_b = FaultInjector::Parse("alloc@1000000000");
  ASSERT_TRUE(injector_a.ok() && injector_b.ok());
  MemoryBudget budget_a, budget_b;
  budget_a.set_fault_injector(&*injector_a);
  budget_b.set_fault_injector(&*injector_b);
  Relation a("a", 2), b("b", 2);
  for (Relation* rel : {&a, &b}) {
    rel->EnsureIndex({1});
    for (int64_t i = 0; i < 100; ++i) rel->Insert(TupleView(Row2(i, i % 5)));
  }
  a.set_memory_budget(&budget_a);
  b.set_memory_budget(&budget_b);
  size_t inserted_a = 0;
  for (size_t i = 0; i < batch.size() / 2; ++i) {
    inserted_a += a.Insert(TupleView(batch.data() + 2 * i, 2)).inserted;
  }
  uint64_t inserted_b = 0;
  b.InsertBatch(batch.data(), batch.size() / 2, &inserted_b);
  EXPECT_EQ(inserted_b, inserted_a);
  ASSERT_EQ(b.size(), a.size());
  for (RowId row = 0; row < a.size(); ++row) {
    ASSERT_TRUE(TupleEquals(a.Row(row), b.Row(row))) << "row " << row;
  }
  for (int64_t v = 0; v < 5; ++v) {
    std::vector<Value> key{Value::Int(v)};
    auto ia = a.index(0).Probe(Index::HashKey(TupleView(key)));
    auto ib = b.index(0).Probe(Index::HashKey(TupleView(key)));
    for (RowId ra = ia.Next(), rb = ib.Next(); ra != kNoRow || rb != kNoRow;
         ra = ia.Next(), rb = ib.Next()) {
      ASSERT_EQ(ra, rb) << "key " << v;
    }
  }
  EXPECT_EQ(budget_b.used(), b.ApproxBytes());
  EXPECT_EQ(budget_b.used(), budget_a.used());
  EXPECT_EQ(injector_b->hits(FaultInjector::kAlloc),
            injector_a->hits(FaultInjector::kAlloc));
}

TEST(Index, ProbeFindsAllMatches) {
  Relation rel("r", 2);
  const size_t idx = rel.EnsureIndex({0});
  for (int k = 0; k < 50; ++k) {
    for (int v = 0; v < 4; ++v) rel.Insert(TupleView(Row2(k, v)));
  }
  const Index& index = rel.index(idx);
  std::vector<Value> key{Value::Int(7)};
  auto it = index.Probe(Index::HashKey(TupleView(key)));
  int found = 0;
  for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
    if (rel.Row(row)[0] == Value::Int(7)) ++found;
  }
  EXPECT_EQ(found, 4);
}

TEST(Index, BackfillOnLateCreation) {
  Relation rel("r", 2);
  for (int k = 0; k < 20; ++k) rel.Insert(TupleView(Row2(k, k)));
  const size_t idx = rel.EnsureIndex({1});
  std::vector<Value> key{Value::Int(13)};
  auto it = rel.index(idx).Probe(Index::HashKey(TupleView(key)));
  int found = 0;
  for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
    if (rel.Row(row)[1] == Value::Int(13)) ++found;
  }
  EXPECT_EQ(found, 1);
}

TEST(Index, RetractRebuildsTheIndexes) {
  // A compile that fails after indexing a relation leaves the index in
  // place; a retract then renumbers every later row, so the index is
  // rebuilt over the rows that remain.
  Relation rel("r", 2);
  for (int k = 0; k < 20; ++k) rel.Insert(TupleView(Row2(k % 5, k)));
  const size_t idx = rel.EnsureIndex({0});
  ASSERT_TRUE(rel.Retract(TupleView(Row2(1, 1))));
  ASSERT_TRUE(rel.Retract(TupleView(Row2(2, 7))));
  for (int64_t key = 0; key < 5; ++key) {
    std::vector<Value> probe{Value::Int(key)};
    auto it = rel.index(idx).Probe(Index::HashKey(TupleView(probe)));
    std::vector<int64_t> seen;
    for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
      if (rel.Row(row)[0] == Value::Int(key)) {
        seen.push_back(rel.Row(row)[1].AsInt());
      }
    }
    std::vector<int64_t> want;
    for (int64_t k = key; k < 20; k += 5) {
      if (k != 1 && k != 7) want.push_back(k);
    }
    EXPECT_EQ(seen, want) << "key " << key;
  }
}

TEST(Index, ProbeEnumeratesInRowOrderAcrossBackfillAndRehash) {
  // Regression: chains used to be prepended on Insert (newest-first) but
  // rebuilt oldest-first by Rehash, so a probe's enumeration order
  // flipped once the index crossed its load factor — and rows backfilled
  // by a late EnsureIndex could come back in a different order than the
  // same rows registered incrementally. Probe order must be ascending
  // row order, always.
  Relation incremental("a", 2);
  const size_t ii = incremental.EnsureIndex({0});
  Relation late("b", 2);
  // 120 entries forces at least one rehash (64 buckets, 0.7 load) both
  // during incremental growth and inside the backfill loop.
  for (int k = 0; k < 30; ++k) {
    for (int v = 0; v < 4; ++v) {
      incremental.Insert(TupleView(Row2(k, v)));
      late.Insert(TupleView(Row2(k, v)));
    }
  }
  const size_t li = late.EnsureIndex({0});
  const auto probe_rows = [](const Relation& rel, size_t idx, int k) {
    std::vector<Value> key{Value::Int(k)};
    auto it = rel.index(idx).Probe(Index::HashKey(TupleView(key)));
    std::vector<RowId> rows;
    for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
      if (rel.Row(row)[0] == Value::Int(k)) rows.push_back(row);
    }
    return rows;
  };
  for (int k = 0; k < 30; ++k) {
    const std::vector<RowId> a = probe_rows(incremental, ii, k);
    const std::vector<RowId> b = probe_rows(late, li, k);
    ASSERT_EQ(a.size(), 4u) << "key " << k;
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()))
        << "key " << k << " incremental probe order not ascending";
    // Same database, same probe order — however the index came to be.
    EXPECT_EQ(a, b) << "key " << k;
  }
}

TEST(Index, BucketCollisionsNeverLeakOtherKeys) {
  // 200 distinct keys over 64 initial buckets guarantee same-bucket
  // collisions, including between entries inserted before and after a
  // second index existed (the backfill path). Every probe must yield
  // exactly its own key's rows — the full-hash filter in MatchIterator
  // has to skip foreign chain entries at the head, in the middle, and at
  // the tail of a shared chain.
  Relation rel("r", 2);
  for (int k = 0; k < 100; ++k) rel.Insert(TupleView(Row2(k, 0)));
  const size_t idx = rel.EnsureIndex({0});
  for (int k = 100; k < 200; ++k) rel.Insert(TupleView(Row2(k, 0)));
  for (int k = 0; k < 200; ++k) {
    std::vector<Value> key{Value::Int(k)};
    auto it = rel.index(idx).Probe(Index::HashKey(TupleView(key)));
    std::vector<RowId> rows;
    for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
      rows.push_back(row);
    }
    // No 64-bit hash collisions among 200 small ints: the chain filter
    // alone must isolate the key.
    ASSERT_EQ(rows.size(), 1u) << "key " << k;
    EXPECT_EQ(rel.Row(rows[0])[0], Value::Int(k));
  }
}

TEST(Index, EnsureIndexDeduplicates) {
  Relation rel("r", 3);
  EXPECT_EQ(rel.EnsureIndex({0, 2}), rel.EnsureIndex({0, 2}));
  EXPECT_NE(rel.EnsureIndex({0}), rel.EnsureIndex({0, 2}));
  EXPECT_EQ(rel.num_indices(), 2u);
}

TEST(Index, MultiColumnKey) {
  Relation rel("r", 3);
  const size_t idx = rel.EnsureIndex({0, 1});
  for (int a = 0; a < 10; ++a) {
    for (int b = 0; b < 10; ++b) {
      std::vector<Value> row{Value::Int(a), Value::Int(b), Value::Int(a + b)};
      rel.Insert(TupleView(row));
    }
  }
  std::vector<Value> key{Value::Int(3), Value::Int(4)};
  auto it = rel.index(idx).Probe(Index::HashKey(TupleView(key)));
  int found = 0;
  for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
    const TupleView t = rel.Row(row);
    if (t[0] == Value::Int(3) && t[1] == Value::Int(4)) ++found;
  }
  EXPECT_EQ(found, 1);
}

TEST(Catalog, EnsureAndLookup) {
  Catalog cat;
  const PredicateId p2 = cat.Ensure("p", 2);
  const PredicateId p3 = cat.Ensure("p", 3);
  EXPECT_NE(p2, p3);  // arity distinguishes predicates
  EXPECT_EQ(cat.Ensure("p", 2), p2);
  EXPECT_EQ(cat.Lookup("p", 2), p2);
  EXPECT_EQ(cat.Lookup("q", 1), kNoPredicate);
  EXPECT_EQ(cat.DisplayName(p3), "p/3");
}

}  // namespace
}  // namespace gdlog

// Append-only relation with set semantics, delta tracking for seminaive
// evaluation, and attached hash indices.
//
// Fixpoint evaluation only ever adds facts, so rows are stored in arrival
// order in one flat Value array. Three watermarks partition the rows for
// the seminaive discipline:
//
//   [0, delta_begin)        "old"   — facts known before the last round
//   [delta_begin, delta_end) "delta" — facts derived in the last round
//   [delta_end, size)        "new"   — facts derived in the current round
//
// AdvanceEpoch() rolls new into delta and delta into old. ExtendDelta()
// widens the delta over the new rows within a round (delta_end = size),
// for a relation whose readers in that round all run after its writers.
//
// Rows arrive one at a time (Insert: a γ firing) or in batches
// (InsertBatch: the buffered heads of one rule application, and every
// EDB load — AddFact, AddFacts, the inline facts, WAL replay), which
// hash a chunk of rows before inserting any so that each row's dedup
// bucket can be prefetched a few rows ahead. An EDB batch of n > 1 rows
// first calls Reserve(n), so the batch itself grows nothing. Every path
// charges the MemoryBudget only when a capacity grows.
#ifndef GDLOG_STORAGE_RELATION_H_
#define GDLOG_STORAGE_RELATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/guardrails.h"
#include "storage/index.h"
#include "storage/tuple.h"

namespace gdlog {

/// One premise of a derivation: a row of some predicate. `pred` holds a
/// PredicateId (declared in catalog.h; a plain uint32_t here keeps
/// relation.h free of the catalog include).
struct ProvPremise {
  uint32_t pred = UINT32_MAX;
  RowId row = kNoRow;
};

class Relation {
 public:
  Relation(std::string name, uint32_t arity);

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;

  const std::string& name() const { return name_; }
  uint32_t arity() const { return arity_; }

  /// Inserts a tuple if not already present. Returns the row id and
  /// whether the tuple was new.
  struct InsertResult {
    RowId row;
    bool inserted;
  };
  InsertResult Insert(TupleView tuple);

  /// Inserts `num_rows` rows of arity() values each, stored back to back
  /// in `rows` (which must not point into this relation), in order: row
  /// ids, duplicate elimination and budget charges are exactly those of
  /// one Insert per row. Hashing rows ahead of their inserts lets the
  /// dedup probes overlap. Bumps `*inserted` once per new row as its
  /// insert returns, so after a budget fault in mid-batch it counts the
  /// rows added before the faulting insert.
  void InsertBatch(const Value* rows, size_t num_rows, uint64_t* inserted);

  /// Makes room for `n` more rows — row storage, the dedup set, every
  /// index and the provenance column — so that inserting up to `n` new
  /// rows grows nothing. Past the current capacity it at least doubles,
  /// so repeated reserves stay amortized. Charges the budget once.
  void Reserve(size_t n);

  /// True when `p` points into this relation's row storage (a row view
  /// from Row()). Such rows must be copied before a Reserve or an
  /// InsertBatch, which may move the storage.
  bool Holds(const Value* p) const {
    return std::less_equal<>()(data_.data(), p) &&
           std::less<>()(p, data_.data() + data_.size());
  }

  /// Removes a tuple, preserving the insertion order of the others, and
  /// rebuilds the dedup set and any index (a Run that failed at compile
  /// leaves its indexes). Only valid before evaluation starts (delta
  /// watermarks still at zero) — Retract exists for EDB edits between
  /// loads, not for the fixpoint, which is append-only. Returns whether
  /// the tuple was present.
  bool Retract(TupleView tuple);

  /// True iff the tuple is present.
  bool Contains(TupleView tuple) const;
  /// Row id of the tuple, or kNoRow.
  RowId Find(TupleView tuple) const;

  TupleView Row(RowId row) const {
    return TupleView(data_.data() + static_cast<size_t>(row) * arity_, arity_);
  }

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  // -- Seminaive watermarks ----------------------------------------------
  RowId delta_begin() const { return delta_begin_; }
  RowId delta_end() const { return delta_end_; }
  size_t delta_size() const { return delta_end_ - delta_begin_; }
  size_t new_size() const { return num_rows_ - delta_end_; }
  /// Rolls [delta_end, size) into the delta window and the previous delta
  /// into old. Returns the new delta's size.
  size_t AdvanceEpoch();
  /// Moves delta_end to size: the rows appended since the last
  /// AdvanceEpoch join the current delta instead of the next one.
  /// Returns how many joined.
  size_t ExtendDelta();
  /// Makes every current row "old" and empties the delta (used when a
  /// stratum is saturated before the next stratum starts).
  void SealEpoch();

  // -- Indices -------------------------------------------------------------
  /// Ensures a hash index exists on `columns` (probe-key order); returns
  /// its position among this relation's indices. Existing rows are
  /// back-filled. Column lists are deduplicated structurally.
  size_t EnsureIndex(const std::vector<uint32_t>& columns);
  const Index& index(size_t i) const { return *indices_[i]; }
  size_t num_indices() const { return indices_.size(); }

  // -- Provenance ----------------------------------------------------------
  // Optional side-column recording, per row, the rule that first derived
  // it and the premise rows it was derived from. Rows are annotated by
  // the evaluator right after a winning Insert; dedup re-derivations
  // never overwrite (first derivation wins, matching the evaluator's
  // serial order). The column's bytes are part of ApproxBytes, so the
  // MemoryBudget guardrail sees them automatically.

  /// Rule-id sentinel for asserted (EDB) facts.
  static constexpr uint32_t kEdbRule = UINT32_MAX;
  /// Rule-id sentinel for rows inserted but never annotated.
  static constexpr uint32_t kUnknownRule = UINT32_MAX - 1;

  void EnableProvenance();
  bool provenance_enabled() const { return prov_ != nullptr; }

  /// Records the derivation of `row` (no-op when provenance is off or
  /// the row is already annotated).
  void Annotate(RowId row, uint32_t rule_index, const ProvPremise* premises,
                size_t num_premises);

  struct ProvView {
    uint32_t rule_index = kUnknownRule;
    const ProvPremise* premises = nullptr;
    size_t num_premises = 0;
  };
  /// The stored derivation of `row`; rule_index is kUnknownRule when the
  /// column is off or the row was never annotated.
  ProvView ProvenanceOf(RowId row) const;

  /// Rows annotated / premise references stored (0 when off).
  size_t provenance_rows() const;
  size_t provenance_premises() const;

  // -- Memory accounting ---------------------------------------------------
  /// Charges row storage, the dedup set, and indices to `budget` (which
  /// must outlive the relation). An insert re-counts only when it grows
  /// some capacity; ApproxBytes counts capacities, so the charge always
  /// equals ApproxBytes().
  void set_memory_budget(MemoryBudget* budget);
  /// Approximate heap footprint of this relation.
  size_t ApproxBytes() const;

 private:
  /// Insert with the content hash `h` already computed. kMayAlias:
  /// `tuple` may point into data_ and is staged before the append.
  template <bool kMayAlias>
  InsertResult InsertHashed(TupleView tuple, uint64_t h);
  void RehashSet(size_t new_bucket_count);
  /// An index over `columns` holding every row.
  std::unique_ptr<Index> BuildIndex(std::vector<uint32_t> columns) const;
  void RecountMemory();

  std::string name_;
  uint32_t arity_;

  std::vector<Value> data_;       // flat rows
  size_t num_rows_ = 0;

  // Open-addressing set of row ids for duplicate elimination.
  std::vector<uint32_t> set_buckets_;
  std::vector<uint64_t> row_hashes_;  // row -> content hash
  size_t set_mask_ = 0;

  RowId delta_begin_ = 0;
  RowId delta_end_ = 0;

  MemoryBudget* budget_ = nullptr;
  size_t charged_bytes_ = 0;

  // Provenance side-column (see EnableProvenance): per-row deriving rule
  // plus a span into a shared premise pool.
  struct ProvColumn {
    std::vector<uint32_t> rule;        // per row; kUnknownRule = not yet
    std::vector<uint32_t> span_begin;  // per row, offset into pool
    std::vector<uint32_t> span_len;    // per row
    std::vector<ProvPremise> pool;
    size_t annotated = 0;
  };
  std::unique_ptr<ProvColumn> prov_;

  std::vector<std::unique_ptr<Index>> indices_;
};

}  // namespace gdlog

#endif  // GDLOG_STORAGE_RELATION_H_

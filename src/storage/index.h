// Hash index over a subset of a relation's columns.
//
// The complexity results of Section 6 assume "availability of indices":
// each join goal probes the indexed columns bound by earlier goals in
// O(1) expected per matching row. Indices are append-only, mirroring the
// append-only fact store of a fixpoint evaluation: buckets hold chain
// heads into a parallel next[] array, so insertion never moves entries.
//
// Chains are kept in row-insertion order (appended at the tail), and
// Rehash rebuilds them in the same order — so a probe enumerates its
// matches oldest-first, exactly like a full scan, no matter whether the
// entries arrived incrementally, through an EnsureIndex backfill over
// pre-existing rows, or across a rehash. Goal reordering (the join
// planner) relies on this: the same database enumerates identically
// however the index came to be.
#ifndef GDLOG_STORAGE_INDEX_H_
#define GDLOG_STORAGE_INDEX_H_

#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace gdlog {

using RowId = uint32_t;
inline constexpr RowId kNoRow = UINT32_MAX;

class Index {
 public:
  /// `columns` are the indexed column positions, in probe-key order.
  explicit Index(std::vector<uint32_t> columns);

  const std::vector<uint32_t>& columns() const { return columns_; }

  /// Registers `row` (whose full tuple is `tuple`) under its key columns.
  void Insert(RowId row, TupleView tuple);

  /// Iterates the chain of candidate rows whose key hash matches `key`.
  /// Callers must re-verify column equality on the full tuple (hash
  /// collisions are possible); MatchIterator exposes the raw chain.
  /// Inline: one iterator is constructed per probe, squarely on the
  /// join hot path.
  class MatchIterator {
   public:
    MatchIterator(const Index* index, uint64_t hash)
        : index_(index), hash_(hash) {
      const size_t slot = hash & index->bucket_mask_;
      current_ = index->buckets_[slot];
      // Skip non-matching hashes at the head.
      while (current_ != kNoRow && index_->hashes_[current_] != hash_) {
        current_ = index_->next_[current_];
      }
    }

    /// Next candidate row id, or kNoRow when exhausted.
    RowId Next() {
      if (current_ == kNoRow) return kNoRow;
      const RowId row = index_->rows_[current_];
      current_ = index_->next_[current_];
      while (current_ != kNoRow && index_->hashes_[current_] != hash_) {
        current_ = index_->next_[current_];
      }
      return row;
    }

   private:
    const Index* index_;
    uint64_t hash_;
    RowId current_;
  };

  /// Hash of a probe key (one Value per indexed column, in order).
  /// Inline: this sits on the probe hot path.
  static uint64_t HashKey(TupleView key) {
    uint64_t h = 0xabcdef0123456789ull ^ key.size();
    for (Value v : key) h = HashCombine(h, v.Hash());
    return h;
  }

  /// Extracts this index's key hash from a full tuple.
  uint64_t HashRowKey(TupleView tuple) const;

  MatchIterator Probe(uint64_t key_hash) const {
    return MatchIterator(this, key_hash);
  }

  size_t size() const { return rows_.size(); }

  /// Approximate heap footprint, for MemoryBudget accounting.
  size_t ApproxBytes() const {
    return rows_.capacity() * sizeof(RowId) +
           hashes_.capacity() * sizeof(uint64_t) +
           next_.capacity() * sizeof(uint32_t) +
           buckets_.capacity() * sizeof(uint32_t) +
           tails_.capacity() * sizeof(uint32_t);
  }

 private:
  friend class MatchIterator;

  void Rehash(size_t new_bucket_count);
  /// Appends `entry` at the tail of `slot`'s chain.
  void Link(uint32_t entry, size_t slot);

  std::vector<uint32_t> columns_;
  std::vector<RowId> rows_;       // entry -> row id
  std::vector<uint64_t> hashes_;  // entry -> key hash
  std::vector<uint32_t> next_;    // entry -> next entry in chain (or kNoRow)
  std::vector<uint32_t> buckets_; // bucket -> chain head entry (or kNoRow)
  std::vector<uint32_t> tails_;   // bucket -> chain tail entry (or kNoRow)
  size_t bucket_mask_ = 0;
};

}  // namespace gdlog

#endif  // GDLOG_STORAGE_INDEX_H_

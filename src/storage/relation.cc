#include "storage/relation.h"

#include <algorithm>

#include "common/logging.h"

namespace gdlog {

Relation::Relation(std::string name, uint32_t arity)
    : name_(std::move(name)), arity_(arity) {
  set_buckets_.assign(64, kNoRow);
  set_mask_ = set_buckets_.size() - 1;
}

void Relation::RehashSet(size_t new_bucket_count) {
  set_buckets_.assign(new_bucket_count, kNoRow);
  set_mask_ = new_bucket_count - 1;
  for (RowId r = 0; r < num_rows_; ++r) {
    size_t slot = row_hashes_[r] & set_mask_;
    while (set_buckets_[slot] != kNoRow) slot = (slot + 1) & set_mask_;
    set_buckets_[slot] = r;
  }
}

template <bool kMayAlias>
[[gnu::always_inline]] inline Relation::InsertResult Relation::InsertHashed(
    TupleView tuple, uint64_t h) {
  size_t slot = h & set_mask_;
  while (set_buckets_[slot] != kNoRow) {
    const RowId r = set_buckets_[slot];
    if (row_hashes_[r] == h && TupleEquals(Row(r), tuple)) {
      return {r, false};
    }
    slot = (slot + 1) & set_mask_;
  }
  const auto row = static_cast<RowId>(num_rows_);
  // The budget is charged only when some capacity grows: ApproxBytes
  // counts capacities, so no other insert can change it.
  bool grew = data_.capacity() - data_.size() < arity_ ||
              row_hashes_.size() == row_hashes_.capacity();
  if constexpr (kMayAlias) {
    // `tuple` may alias data_ (copying a row of this relation); stage it
    // locally so the potentially-reallocating insert is safe.
    Value local[16];
    std::vector<Value> heap_local;
    TupleView staged = tuple;
    if (tuple.size() <= 16) {
      for (size_t i = 0; i < tuple.size(); ++i) local[i] = tuple[i];
      staged = TupleView(local, tuple.size());
    } else {
      heap_local.assign(tuple.begin(), tuple.end());
      staged = TupleView(heap_local.data(), heap_local.size());
    }
    data_.insert(data_.end(), staged.begin(), staged.end());
  } else {
    data_.insert(data_.end(), tuple.begin(), tuple.end());
  }
  row_hashes_.push_back(h);
  ++num_rows_;
  set_buckets_[slot] = row;
  if (num_rows_ * 10 > set_buckets_.size() * 7) {
    RehashSet(set_buckets_.size() * 2);
    grew = true;
  }
  for (auto& idx : indices_) grew |= idx->Insert(row, Row(row));
  if (grew) RecountMemory();
  return {row, true};
}

Relation::InsertResult Relation::Insert(TupleView tuple) {
  GDLOG_CHECK_EQ(tuple.size(), arity_);
  return InsertHashed</*kMayAlias=*/true>(tuple, HashTuple(tuple));
}

void Relation::InsertBatch(const Value* rows, size_t num_rows,
                           uint64_t* inserted) {
  // Rows are hashed a chunk at a time, then inserted in order while the
  // dedup bucket of the row kAhead positions later is prefetched.
  constexpr size_t kChunk = 64;
  constexpr size_t kAhead = 8;
  uint64_t hashes[kChunk];
  for (size_t base = 0; base < num_rows; base += kChunk) {
    const size_t n = std::min(kChunk, num_rows - base);
    const Value* chunk = rows + base * arity_;
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = HashTuple(TupleView(chunk + i * arity_, arity_));
    }
    for (size_t i = 0; i < std::min(kAhead, n); ++i) {
      __builtin_prefetch(&set_buckets_[hashes[i] & set_mask_]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) {
        __builtin_prefetch(&set_buckets_[hashes[i + kAhead] & set_mask_]);
      }
      *inserted += InsertHashed</*kMayAlias=*/false>(
                       TupleView(chunk + i * arity_, arity_), hashes[i])
                       .inserted;
    }
  }
}

void Relation::Reserve(size_t n) {
  const size_t rows = num_rows_ + n;
  bool grew = false;
  auto fit = [&grew](auto& v, size_t want) {
    if (v.capacity() >= want) return;
    v.reserve(std::max(want, 2 * v.capacity()));
    grew = true;
  };
  fit(data_, rows * arity_);
  fit(row_hashes_, rows);
  size_t buckets = set_buckets_.size();
  while (rows * 10 > buckets * 7) buckets *= 2;
  if (buckets != set_buckets_.size()) {
    RehashSet(buckets);
    grew = true;
  }
  if (prov_ != nullptr) {
    fit(prov_->rule, rows);
    fit(prov_->span_begin, rows);
    fit(prov_->span_len, rows);
  }
  for (auto& idx : indices_) grew |= idx->Reserve(rows);
  if (grew) RecountMemory();
}

bool Relation::Retract(TupleView tuple) {
  GDLOG_CHECK(delta_end_ == 0) << "Retract is only valid before evaluation";
  const RowId row = Find(tuple);
  if (row == kNoRow) return false;
  // Shift-erase keeps the remaining rows in insertion order; the dedup
  // set is rebuilt because every row id after `row` changes.
  data_.erase(data_.begin() + static_cast<size_t>(row) * arity_,
              data_.begin() + (static_cast<size_t>(row) + 1) * arity_);
  row_hashes_.erase(row_hashes_.begin() + row);
  --num_rows_;
  if (prov_ != nullptr && row < prov_->rule.size()) {
    if (prov_->rule[row] != kUnknownRule) --prov_->annotated;
    prov_->rule.erase(prov_->rule.begin() + row);
    prov_->span_begin.erase(prov_->span_begin.begin() + row);
    prov_->span_len.erase(prov_->span_len.begin() + row);
  }
  RehashSet(set_buckets_.size());
  for (std::unique_ptr<Index>& idx : indices_) {
    idx = BuildIndex(idx->columns());
  }
  RecountMemory();
  return true;
}

void Relation::set_memory_budget(MemoryBudget* budget) {
  budget_ = budget;
  RecountMemory();
}

size_t Relation::ApproxBytes() const {
  size_t bytes = data_.capacity() * sizeof(Value) +
                 row_hashes_.capacity() * sizeof(uint64_t) +
                 set_buckets_.capacity() * sizeof(uint32_t);
  if (prov_ != nullptr) {
    bytes += prov_->rule.capacity() * sizeof(uint32_t) +
             prov_->span_begin.capacity() * sizeof(uint32_t) +
             prov_->span_len.capacity() * sizeof(uint32_t) +
             prov_->pool.capacity() * sizeof(ProvPremise);
  }
  for (const auto& idx : indices_) bytes += idx->ApproxBytes();
  return bytes;
}

void Relation::EnableProvenance() {
  if (prov_ == nullptr) prov_ = std::make_unique<ProvColumn>();
}

void Relation::Annotate(RowId row, uint32_t rule_index,
                        const ProvPremise* premises, size_t num_premises) {
  if (prov_ == nullptr || row >= num_rows_) return;
  if (prov_->rule.size() <= row) {
    prov_->rule.resize(num_rows_, kUnknownRule);
    prov_->span_begin.resize(num_rows_, 0);
    prov_->span_len.resize(num_rows_, 0);
  }
  if (prov_->rule[row] != kUnknownRule) return;  // first derivation wins
  prov_->rule[row] = rule_index;
  prov_->span_begin[row] = static_cast<uint32_t>(prov_->pool.size());
  prov_->span_len[row] = static_cast<uint32_t>(num_premises);
  prov_->pool.insert(prov_->pool.end(), premises, premises + num_premises);
  ++prov_->annotated;
  RecountMemory();
}

Relation::ProvView Relation::ProvenanceOf(RowId row) const {
  ProvView v;
  if (prov_ == nullptr || row >= prov_->rule.size()) return v;
  v.rule_index = prov_->rule[row];
  if (v.rule_index == kUnknownRule) return v;
  v.premises = prov_->pool.data() + prov_->span_begin[row];
  v.num_premises = prov_->span_len[row];
  return v;
}

size_t Relation::provenance_rows() const {
  return prov_ == nullptr ? 0 : prov_->annotated;
}

size_t Relation::provenance_premises() const {
  return prov_ == nullptr ? 0 : prov_->pool.size();
}

void Relation::RecountMemory() {
  if (budget_ == nullptr) return;
  budget_->Update(&charged_bytes_, ApproxBytes());
}

RowId Relation::Find(TupleView tuple) const {
  if (tuple.size() != arity_) return kNoRow;
  const uint64_t h = HashTuple(tuple);
  size_t slot = h & set_mask_;
  while (set_buckets_[slot] != kNoRow) {
    const RowId r = set_buckets_[slot];
    if (row_hashes_[r] == h && TupleEquals(Row(r), tuple)) return r;
    slot = (slot + 1) & set_mask_;
  }
  return kNoRow;
}

bool Relation::Contains(TupleView tuple) const { return Find(tuple) != kNoRow; }

size_t Relation::AdvanceEpoch() {
  delta_begin_ = delta_end_;
  delta_end_ = static_cast<RowId>(num_rows_);
  return delta_end_ - delta_begin_;
}

size_t Relation::ExtendDelta() {
  const size_t added = num_rows_ - delta_end_;
  delta_end_ = static_cast<RowId>(num_rows_);
  return added;
}

void Relation::SealEpoch() {
  delta_begin_ = static_cast<RowId>(num_rows_);
  delta_end_ = delta_begin_;
}

size_t Relation::EnsureIndex(const std::vector<uint32_t>& columns) {
  for (size_t i = 0; i < indices_.size(); ++i) {
    if (indices_[i]->columns() == columns) return i;
  }
  indices_.push_back(BuildIndex(columns));
  RecountMemory();
  return indices_.size() - 1;
}

std::unique_ptr<Index> Relation::BuildIndex(
    std::vector<uint32_t> columns) const {
  auto idx = std::make_unique<Index>(std::move(columns));
  // Sized for the backfill up front, so it never rehashes midway.
  idx->Reserve(num_rows_);
  for (RowId r = 0; r < num_rows_; ++r) idx->Insert(r, Row(r));
  return idx;
}

}  // namespace gdlog

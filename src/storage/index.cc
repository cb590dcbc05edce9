#include "storage/index.h"

#include <algorithm>

#include "common/logging.h"

namespace gdlog {

Index::Index(std::vector<uint32_t> columns) : columns_(std::move(columns)) {
  buckets_.assign(64, kNoRow);
  tails_.assign(64, kNoRow);
  bucket_mask_ = buckets_.size() - 1;
}

uint64_t Index::HashRowKey(TupleView tuple) const {
  uint64_t h = KeyHashSeed(columns_.size());
  for (uint32_t c : columns_) {
    GDLOG_CHECK_LT(c, tuple.size());
    h = KeyHashStep(h, tuple[c]);
  }
  return h;
}

void Index::Rehash(size_t new_bucket_count) {
  buckets_.assign(new_bucket_count, kNoRow);
  tails_.assign(new_bucket_count, kNoRow);
  bucket_mask_ = new_bucket_count - 1;
  // Rebuild chains forward, appending at the tail — the same
  // insertion-order discipline as Insert, so a rehash never changes the
  // order a probe enumerates its matches in.
  for (size_t e = 0; e < rows_.size(); ++e) {
    Link(static_cast<uint32_t>(e), hashes_[e] & bucket_mask_);
  }
}

void Index::Link(uint32_t entry, size_t slot) {
  next_[entry] = kNoRow;
  if (buckets_[slot] == kNoRow) {
    buckets_[slot] = entry;
  } else {
    next_[tails_[slot]] = entry;
  }
  tails_[slot] = entry;
}

bool Index::Reserve(size_t entries) {
  bool grew = false;
  if (rows_.capacity() < entries) {
    // Past the current capacity at least double it, as push_back would,
    // so that repeated reserves stay amortized.
    const size_t cap = std::max(entries, 2 * rows_.capacity());
    rows_.reserve(cap);
    hashes_.reserve(cap);
    next_.reserve(cap);
    grew = true;
  }
  size_t buckets = buckets_.size();
  while (entries * 10 > buckets * 7) buckets *= 2;
  if (buckets != buckets_.size()) {
    Rehash(buckets);
    grew = true;
  }
  return grew;
}

bool Index::Insert(RowId row, TupleView tuple) {
  const uint64_t h = HashRowKey(tuple);
  const auto entry = static_cast<uint32_t>(rows_.size());
  // rows_, hashes_ and next_ grow in lockstep from empty, so their
  // capacities are always equal.
  bool grew = rows_.size() == rows_.capacity();
  rows_.push_back(row);
  hashes_.push_back(h);
  next_.push_back(kNoRow);
  Link(entry, h & bucket_mask_);
  if (rows_.size() * 10 > buckets_.size() * 7) {
    Rehash(buckets_.size() * 2);
    grew = true;
  }
  return grew;
}

}  // namespace gdlog

// FlatTable: an open-addressing hash map over fixed-width Value rows —
// the one table behind the (R,Q,L) congruence-class index, the chosen
// FD memo, and the γ extremum filter.
//
// Each distinct key gets a dense id in insertion order; nothing is ever
// erased. A row stores the key's `key_width` components followed by
// `value_width` payload values the owner reads and writes through
// Values(id). Buckets hold {id, 32-bit hash tag}, so a probe reads row
// data only on a tag match. Keys are hashed and compared component by
// component: a compound key (a choice goal's tuple, say) needs no
// interned term. Probes never allocate; inserts allocate only when the
// row vector or the bucket array grows (amortized O(1)).
#ifndef GDLOG_EVAL_FLAT_TABLE_H_
#define GDLOG_EVAL_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "value/value.h"

namespace gdlog {

class FlatTable {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  explicit FlatTable(uint32_t key_width = 0, uint32_t value_width = 0)
      : key_width_(key_width), stride_(key_width + value_width) {}

  uint32_t key_width() const { return key_width_; }

  /// The id of `key` (key_width() components), or kNotFound.
  uint32_t Find(std::span<const Value> key) const {
    if (buckets_.empty()) return kNotFound;
    const uint64_t hash = Hash(key);
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Bucket b = buckets_[i];
      if (b.id == kNotFound) return kNotFound;
      if (b.tag == tag && KeyEquals(b.id, key)) return b.id;
    }
  }

  /// The id of `key`, adding it (payload zeroed) when absent; `*inserted`
  /// tells which.
  uint32_t Insert(std::span<const Value> key, bool* inserted) {
    const uint64_t hash = Hash(key);
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    size_t i = 0;
    if (!buckets_.empty()) {
      for (i = hash & mask_; buckets_[i].id != kNotFound;
           i = (i + 1) & mask_) {
        if (buckets_[i].tag == tag && KeyEquals(buckets_[i].id, key)) {
          *inserted = false;
          return buckets_[i].id;
        }
      }
    }
    if ((size_ + 1) * 10 > buckets_.size() * 7) {
      Grow();
      for (i = hash & mask_; buckets_[i].id != kNotFound;) {
        i = (i + 1) & mask_;
      }
    }
    const auto id = static_cast<uint32_t>(size_++);
    rows_.resize(size_ * stride_);
    std::copy(key.begin(), key.end(),
              rows_.begin() + static_cast<ptrdiff_t>(id) * stride_);
    buckets_[i] = Bucket{id, tag};
    *inserted = true;
    return id;
  }

  std::span<const Value> Key(uint32_t id) const {
    return {rows_.data() + static_cast<size_t>(id) * stride_, key_width_};
  }
  std::span<Value> Values(uint32_t id) {
    return {rows_.data() + static_cast<size_t>(id) * stride_ + key_width_,
            stride_ - key_width_};
  }
  std::span<const Value> Values(uint32_t id) const {
    return {rows_.data() + static_cast<size_t>(id) * stride_ + key_width_,
            stride_ - key_width_};
  }

  /// Bytes held (capacity, not size) — what an owner charges to its
  /// MemoryBudget.
  size_t ApproxBytes() const {
    return rows_.capacity() * sizeof(Value) +
           buckets_.capacity() * sizeof(Bucket);
  }

 private:
  struct Bucket {
    uint32_t id = kNotFound;
    uint32_t tag = 0;
  };

  /// Width-0 keys all hash alike (one class).
  static uint64_t Hash(std::span<const Value> key) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (Value v : key) h = Mix64(h ^ v.bits());
    return h;
  }

  bool KeyEquals(uint32_t id, std::span<const Value> key) const {
    const Value* row = rows_.data() + static_cast<size_t>(id) * stride_;
    for (uint32_t c = 0; c < key_width_; ++c) {
      if (row[c] != key[c]) return false;
    }
    return true;
  }

  /// Doubles the bucket array (16 at first use) and re-places every row.
  void Grow() {
    const size_t n = buckets_.empty() ? 16 : buckets_.size() * 2;
    buckets_.assign(n, Bucket{});
    mask_ = n - 1;
    for (uint32_t id = 0; id < size_; ++id) {
      const uint64_t h = Hash(Key(id));
      size_t i = h & mask_;
      while (buckets_[i].id != kNotFound) i = (i + 1) & mask_;
      buckets_[i] = Bucket{id, static_cast<uint32_t>(h >> 32)};
    }
  }

  uint32_t key_width_;
  uint32_t stride_;  // key_width_ + value width
  size_t size_ = 0;
  size_t mask_ = 0;
  std::vector<Value> rows_;  // size_ rows of stride_ values
  std::vector<Bucket> buckets_;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_FLAT_TABLE_H_

#include "eval/join_planner.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace gdlog {

double JoinPlanner::CountDistinct(const Relation& rel, uint32_t col,
                                  size_t rows) {
  // An open-addressing set of Value bits sized for `rows`, freed on
  // return. No Value has tag 7, so all-ones marks an empty slot.
  constexpr uint64_t kEmpty = ~uint64_t{0};
  size_t cap = 16;
  while (cap < 2 * rows) cap <<= 1;
  std::vector<uint64_t> slots(cap, kEmpty);
  size_t distinct = 0;
  for (RowId r = 0; r < rows; ++r) {
    const uint64_t bits = rel.Row(r)[col].bits();
    size_t i = Mix64(bits) & (cap - 1);
    while (slots[i] != kEmpty && slots[i] != bits) i = (i + 1) & (cap - 1);
    if (slots[i] == kEmpty) {
      slots[i] = bits;
      ++distinct;
    }
  }
  return static_cast<double>(std::max<size_t>(1, distinct));
}

RelationEstimate JoinPlanner::RowsOf(const Relation& rel) {
  RelationEstimate est;
  if (rel.empty()) {
    est.rows = kDefaultRows;
    est.distinct.assign(rel.arity(), kDefaultDistinct);
    return est;
  }
  est.rows = static_cast<double>(rel.size());
  // Relations over kMaxScanRows get sqrt(rows) per column, to bound
  // compile time; the others are counted on demand.
  est.distinct.assign(rel.arity(), rel.size() > kMaxScanRows
                                       ? std::max(1.0, std::sqrt(est.rows))
                                       : 0.0);
  return est;
}

double JoinPlanner::ScanRows(const RelationEstimate& est,
                             const std::vector<uint32_t>& bound_cols) {
  double rows = est.rows;
  for (uint32_t c : bound_cols) {
    const double d =
        c < est.distinct.size() ? est.distinct[c] : kDefaultDistinct;
    rows /= d;
  }
  return std::max(1.0, rows);
}

RelationEstimate& JoinPlanner::Entry(PredicateId pred) {
  auto it = cache_.find(pred);
  if (it == cache_.end()) {
    it = cache_.emplace(pred, RowsOf(catalog_->relation(pred))).first;
  }
  return it->second;
}

const RelationEstimate& JoinPlanner::Estimate(PredicateId pred) {
  return Entry(pred);
}

double JoinPlanner::EstimateScanRows(PredicateId pred,
                                     const std::vector<uint32_t>& bound_cols) {
  RelationEstimate& est = Entry(pred);
  for (uint32_t c : bound_cols) {
    if (c < est.distinct.size() && est.distinct[c] == 0) {
      // Over the rows the estimate recorded, so that rows inserted
      // later cannot change the statistics of one compile.
      est.distinct[c] = CountDistinct(catalog_->relation(pred), c,
                                      static_cast<size_t>(est.rows));
    }
  }
  return ScanRows(est, bound_cols);
}

}  // namespace gdlog

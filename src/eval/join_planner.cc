#include "eval/join_planner.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace gdlog {

RelationEstimate JoinPlanner::ScanRelation(const Relation& rel,
                                           size_t max_scan_rows) {
  RelationEstimate est;
  est.rows = static_cast<double>(rel.size());
  est.distinct.assign(rel.arity(), 1.0);
  if (rel.empty()) {
    est.rows = kDefaultRows;
    est.distinct.assign(rel.arity(), kDefaultDistinct);
    return est;
  }
  est.from_data = true;
  if (rel.size() > max_scan_rows) {
    const double d = std::max(1.0, std::sqrt(est.rows));
    est.distinct.assign(rel.arity(), d);
    return est;
  }
  // Exact distinct counts per column, in one open-addressing set of
  // Value bits sized for the relation and cleared per column. No Value
  // has tag 7, so all-ones marks an empty slot.
  constexpr uint64_t kEmpty = ~uint64_t{0};
  size_t cap = 16;
  while (cap < 2 * rel.size()) cap <<= 1;
  std::vector<uint64_t> slots;
  for (uint32_t c = 0; c < rel.arity(); ++c) {
    slots.assign(cap, kEmpty);
    size_t distinct = 0;
    for (RowId r = 0; r < rel.size(); ++r) {
      const uint64_t bits = rel.Row(r)[c].bits();
      size_t i = Mix64(bits) & (cap - 1);
      while (slots[i] != kEmpty && slots[i] != bits) i = (i + 1) & (cap - 1);
      if (slots[i] == kEmpty) {
        slots[i] = bits;
        ++distinct;
      }
    }
    est.distinct[c] = static_cast<double>(std::max<size_t>(1, distinct));
  }
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

void JoinPlanner::SetPrior(PredicateId pred, uint64_t row_bound) {
  const Relation& rel = catalog_->relation(pred);
  if (!rel.empty()) return;  // exact stats beat the analysis bound
  if (cache_.find(pred) != cache_.end()) return;
  RelationEstimate est;
  est.rows = std::max(1.0, static_cast<double>(row_bound));
  // No column-level information in the bound: assume sqrt(rows) distinct
  // values per column, the same shape ScanRelation falls back to for
  // over-large relations.
  est.distinct.assign(rel.arity(), std::max(1.0, std::sqrt(est.rows)));
  est.from_prior = true;
  cache_.emplace(pred, std::move(est));
}

const RelationEstimate& JoinPlanner::Estimate(PredicateId pred) {
  auto it = cache_.find(pred);
  if (it == cache_.end()) {
    it = cache_.emplace(pred, ScanRelation(catalog_->relation(pred))).first;
  }
  return it->second;
}

double JoinPlanner::EstimateScanRows(PredicateId pred,
                                     const std::vector<uint32_t>& bound_cols) {
  return ScanRows(Estimate(pred), bound_cols);
}

}  // namespace gdlog

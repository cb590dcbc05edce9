// Cost-based join planning: cardinality estimates for goal reordering.
//
// The rule compiler orders body goals greedily; with a JoinPlanner
// attached, the "next goal" pick among ready positive atoms is the one
// with the smallest estimated result size instead of parser order. The
// estimate is the classic System-R independence model over exact
// statistics: for a scan of relation R with bound columns B,
//
//   est(R, B) = max(1, |R| / prod_{c in B} distinct(R, c))
//
// |R| and the per-column distinct counts are computed from the actual
// relation contents at compile time (the engine loads EDB facts before
// compiling, so base relations carry real cardinalities; IDB relations
// are still empty and get a neutral default that ranks them after
// comparably-bound EDB scans). |R| is taken on a predicate's first
// estimate; a column's distinct values are counted only when a plan
// first binds that column, over the first |R| rows. Both are cached, so
// planning is deterministic for a given database.
#ifndef GDLOG_EVAL_JOIN_PLANNER_H_
#define GDLOG_EVAL_JOIN_PLANNER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/catalog.h"

namespace gdlog {

/// Cardinality statistics for one relation.
struct RelationEstimate {
  double rows = 0;
  // Per column, each >= 1; 0 in the planner's cache for a column no
  // EstimateScanRows has bound yet (not counted).
  std::vector<double> distinct;
};

/// One planner pick, recorded per rule for the run report.
struct PlanDecision {
  std::string goal;            // predicate display name or filter kind
  bool filter = false;         // comparison / negation (always first)
  bool negated = false;
  uint32_t bound_cols = 0;     // bound columns at pick time
  uint32_t arity = 0;
  double est_rows = -1;        // estimated matching rows; -1 for filters
  // Per-rule goal id of the positive scan this decision placed (matches
  // CompiledScan::goal_id), linking the estimate to the executor's
  // actual cardinality counters for EXPLAIN ANALYZE; -1 for filters.
  int goal_id = -1;
};

class JoinPlanner {
 public:
  explicit JoinPlanner(const Catalog* catalog) : catalog_(catalog) {}

  /// Statistics for `pred`, taken on first use and cached: the row
  /// count at once, each column's distinct count when EstimateScanRows
  /// first binds it (0 until then).
  const RelationEstimate& Estimate(PredicateId pred);

  /// Estimated matching rows for a scan of `pred` with `bound_cols`
  /// bound to values. Counts the distinct values of each bound column
  /// not counted before, and reads no other column.
  double EstimateScanRows(PredicateId pred,
                          const std::vector<uint32_t>& bound_cols);

  /// The independence-model estimate over precomputed statistics.
  static double ScanRows(const RelationEstimate& est,
                         const std::vector<uint32_t>& bound_cols);

  // Empty (IDB) relations: assumed row count and per-bound-column
  // selectivity divisor. Chosen so an unbound IDB scan ranks after a
  // bound EDB probe but before a huge unbound EDB scan.
  static constexpr double kDefaultRows = 256.0;
  static constexpr double kDefaultDistinct = 16.0;

 private:
  // Relations larger than this get sqrt(rows) distinct values per
  // column instead of a count, to bound compile time.
  static constexpr size_t kMaxScanRows = size_t{1} << 20;

  /// The cached estimate of `pred`, made by RowsOf on first use.
  RelationEstimate& Entry(PredicateId pred);
  /// The row count, or the defaults for an empty relation, with the
  /// distinct count of each column to be counted left at 0.
  static RelationEstimate RowsOf(const Relation& rel);
  /// Distinct values (at least 1) of column `col` over the first `rows`
  /// rows.
  static double CountDistinct(const Relation& rel, uint32_t col, size_t rows);

  const Catalog* catalog_;
  std::unordered_map<PredicateId, RelationEstimate> cache_;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_JOIN_PLANNER_H_

// Stable-model verification via the Gelfond-Lifschitz reduct.
//
// Theorem 1 asserts that every fact set produced by the Choice Fixpoint
// on a stage-stratified program is a stable model of the program's
// first-order rewriting. This checker verifies that claim directly for a
// concrete run:
//
//   1. the program is rewritten to its normal form (next expanded,
//      choice -> chosen$/diffChoice$, extrema -> negation, NotExists ->
//      aux$ predicates);
//   2. the candidate model M+ is assembled from the engine's relations,
//      the recorded chosen$ tuples, and the aux$ extension computed
//      against M; diffChoice$ is evaluated on the fly from chosen$
//      (never materialized — its defining rules are unsafe by design);
//   3. the reduct P^{M+} is evaluated to its least fixpoint (negation
//      tested against the *fixed* M+), and the result is compared with
//      M+ — equality is stability. The reduct is positive, so the first
//      derived fact outside M+ refutes stability and stops the
//      evaluation, also when the reduct's least model is infinite.
//
// Intended for tests at small scale: the fixpoint here is naive.
#ifndef GDLOG_EVAL_STABLE_MODEL_H_
#define GDLOG_EVAL_STABLE_MODEL_H_

#include <string>
#include <vector>

#include "ast/ast.h"
#include "common/status.h"
#include "storage/catalog.h"

namespace gdlog {

struct StableCheckResult {
  bool stable = false;
  // When not stable: which predicate disagreed and an example tuple.
  std::string diagnostic;
  size_t model_facts = 0;
  // Facts of the reduct's evaluation up to where it stopped: its whole
  // least model, or less when a derived fact outside M+ stopped it.
  size_t reduct_facts = 0;
};

/// Verifies that the contents of `model_catalog` (plus `chosen_by_rule`,
/// indexed like RewriteChoice's chosen$i) form a stable model of
/// `original`. `store` must be the ValueStore the model was built with.
/// The first `edb_rows[pred]` rows of each relation (none past the
/// vector's end) are its EDB rows (user facts + program facts): those
/// rows seed the reduct's least fixpoint as extensional input.
Result<StableCheckResult> CheckStableModel(
    const Program& original, const Catalog& model_catalog, ValueStore* store,
    const std::vector<std::vector<std::vector<Value>>>& chosen_by_rule,
    const std::vector<size_t>& edb_rows);

}  // namespace gdlog

#endif  // GDLOG_EVAL_STABLE_MODEL_H_

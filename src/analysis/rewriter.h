// The paper's meta-level rewritings (Sections 2 and 3).
//
// The engine does NOT evaluate the rewritten program — choice runs on the
// memoized chosen-tuple runtime and least/most on the (R,Q,L) structure.
// The rewritings exist because they *define the semantics*: they feed the
// stage-stratification checker (analysis/stage.h) and the stable-model
// checker (eval/stable_model.h), and they let users display the
// first-order program their choice program abbreviates.
//
// Rewriting pipeline, in the order mandated by the paper:
//   1. ExpandNext      next(I) in a rule for p(W, I) becomes
//                      p(_,...,I1), I = I1 + 1, choice(I, W), choice(W, I)
//   2. RewriteChoice   each rule with choice goals gets chosen$i /
//                      diffChoice$i companion rules; choice goals are
//                      replaced by a positive chosen$i atom
//   3. RewriteExtrema  least(C, G) becomes a NotExists copy of the body
//                      sharing the group variables G with C' < C inside
//                      (most: C' > C)
//   4. NormalizeNotExists
//                      each NotExists conjunction becomes a fresh
//                      auxiliary predicate + a plain negated atom, giving
//                      a normal logic program for the GL-reduct checker
//
// The rewritings are defined for rules of the shape AnalyzeStages (the
// load gate, analysis/stage.h) accepts, and check it with GDLOG_CHECK:
// callers pass a program the gate accepted.
//
// Generated predicate names contain '$' (chosen$0, diffChoice$0, aux$1),
// which user programs cannot lex — no capture is possible.
#ifndef GDLOG_ANALYSIS_REWRITER_H_
#define GDLOG_ANALYSIS_REWRITER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "ast/ast.h"

namespace gdlog {

struct RewriteOptions {
  // Prefix used for fresh variables introduced by renamings.
  std::string fresh_var_prefix = "R$";
};

/// Step 1. Each rule has at most one next(I), with I exactly once among
/// its head arguments.
Program ExpandNext(const Program& program);

/// Describes one choice goal of a rewritten rule in terms of positions
/// into the chosen$i predicate's argument list: the FD
/// left_positions -> right_positions must hold among chosen$i facts.
struct ChoiceGoalSig {
  std::vector<uint32_t> left_positions;
  std::vector<uint32_t> right_positions;
};

/// Metadata tying generated chosen$i / diffChoice$i predicates back to
/// the FDs they enforce. The stable-model checker uses this to evaluate
/// diffChoice$i on the fly instead of materializing its (unsafe) rules.
struct ChoiceRewriteInfo {
  struct Entry {
    std::string chosen_name;
    std::string diff_name;
    uint32_t arity = 0;
    std::vector<ChoiceGoalSig> goals;
  };
  std::vector<Entry> entries;
};

/// Step 2. Purely syntactic. If `info` is non-null it receives the
/// chosen/diffChoice metadata.
Program RewriteChoice(const Program& program, ChoiceRewriteInfo* info);

/// Step 2 variant used by stage analysis: simply erase choice goals (the
/// paper's "eliminating the choice goals").
Program EraseChoice(const Program& program);

/// Step 3. Each rule has at most one extrema goal (the paper never
/// combines two, and their interaction is unspecified), whose cost is a
/// variable outside its grouping.
Program RewriteExtrema(const Program& program);

/// Step 4. Purely syntactic.
Program NormalizeNotExists(const Program& program);

/// The full pipeline 1-4: the normal logic program whose stable models
/// define the meaning of `program`, as the stable-model checker checks
/// it and --rewrite prints it. Before step 4 a negated atom with a
/// variable local to it (`not e(_, X)`) becomes the negated conjunction
/// `not (e(_, X))`, so that every plain negated atom of the result is
/// ground when it runs. `info`, when non-null, receives step 2's
/// metadata.
Program FullSemanticExpansion(const Program& program,
                              ChoiceRewriteInfo* info = nullptr);

/// Renames every variable in `lit` via `map`; variables not in the map
/// are added with `fresh(name)`.
class VariableRenamer {
 public:
  /// `suffix` distinguishes one renaming from another within a rule.
  explicit VariableRenamer(std::string prefix) : prefix_(std::move(prefix)) {}

  /// Pre-seeds `name` to map to itself (a shared variable).
  void Share(const std::string& name) { map_[name] = name; }

  TermNode Rename(const TermNode& t);
  Literal Rename(const Literal& l);

 private:
  std::string prefix_;
  std::unordered_map<std::string, std::string> map_;
};

}  // namespace gdlog

#endif  // GDLOG_ANALYSIS_REWRITER_H_

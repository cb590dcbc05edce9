#include "analysis/absint/absint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rewriter.h"
#include "analysis/stage.h"
#include "obs/json.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace gdlog {
namespace absint {

namespace {

std::string PredKey(const std::string& name, size_t arity) {
  return name + "/" + std::to_string(arity);
}

std::string KeyOf(const Literal& atom) {
  return PredKey(atom.predicate, atom.args.size());
}

AbstractValue AVOfValue(Value v) {
  if (v.is_int()) return AbstractValue::OfInt(v.AsInt());
  return AbstractValue::OfKind(v.kind());
}

// Rank in the semantic total order nil < ints < symbols < terms
// (ValueStore::Compare); lets the analyzer prove cross-kind comparisons
// dead without evaluating them.
int MinRank(TypeSet t) {
  if (t.Has(ValueKind::kNil)) return 0;
  if (t.has_int()) return 1;
  if (t.Has(ValueKind::kSymbol)) return 2;
  if (t.Has(ValueKind::kTerm)) return 3;
  return 4;  // empty: vacuous
}

int MaxRank(TypeSet t) {
  if (t.Has(ValueKind::kTerm)) return 3;
  if (t.Has(ValueKind::kSymbol)) return 2;
  if (t.has_int()) return 1;
  if (t.Has(ValueKind::kNil)) return 0;
  return -1;  // empty: vacuous
}

struct PredState {
  std::string name;
  uint32_t arity = 0;
  std::vector<AbstractValue> cols;
  uint64_t base_rows = 0;  // exact EDB rows
  uint64_t hi = 0;         // current row upper bound
  bool populated = false;
  bool edb_seeded = false;
  bool has_rules = false;
  // Final-pass bookkeeping for predicate-level GD012.
  int rules_total = 0;
  int rules_provably_unsat = 0;
};

// Collects diagnostics during the final classification pass only
// (null during fixpoint rounds). Deduplicates by code+rule+message so
// the multi-pass body propagation cannot double-report.
class Sink {
 public:
  explicit Sink(std::vector<Diagnostic>* out) : out_(out) {}

  void SetRule(int rule_index, const Rule* rule, std::string head_display) {
    rule_index_ = rule_index;
    rule_ = rule;
    head_display_ = std::move(head_display);
    fired_root_cause_ = false;
  }

  /// True when GD300/GD301/GD013 already explained why this rule is
  /// unsatisfiable; the generic GD012 is suppressed to avoid noise.
  bool fired_root_cause() const { return fired_root_cause_; }

  void Emit(std::string_view code, std::string message, SourceLoc loc) {
    std::string dedup;
    dedup.append(code);
    dedup.append("|");
    dedup.append(std::to_string(rule_index_));
    dedup.append("|");
    dedup.append(message);
    if (!seen_.insert(dedup).second) return;
    Diagnostic d = MakeDiagnostic(code, std::move(message));
    d.predicate = head_display_;
    d.rule_index = rule_index_;
    d.loc = loc.valid() ? loc : (rule_ != nullptr ? rule_->loc : SourceLoc{});
    out_->push_back(std::move(d));
    if (code != diag::kProvablyEmpty) fired_root_cause_ = true;
  }

 private:
  std::vector<Diagnostic>* out_;
  std::set<std::string> seen_;
  int rule_index_ = -1;
  const Rule* rule_ = nullptr;
  std::string head_display_;
  bool fired_root_cause_ = false;
};

// One rule-body abstract evaluation: an environment of per-variable
// abstract values refined by up to kBodyPasses propagation sweeps.
struct BodyCtx {
  std::map<std::string, AbstractValue> env;
  bool analyzable = true;  // every positive body atom's predicate populated
  bool unsat = false;
  std::string cause;  // human text for GD012 when unsat
  SourceLoc cause_loc;
  Sink* sink = nullptr;  // null during fixpoint rounds
};

constexpr int kBodyPasses = 4;
// Relations larger than this are summarized as top types / full
// intervals (the row count stays exact) instead of being scanned.
constexpr size_t kMaxScanRows = size_t{1} << 20;
// Fixpoint rounds before interval bounds and cardinalities widen to
// infinity; keeps recursive programs converging in O(rounds).
constexpr int kWidenAfter = 3;
// Hard cap on fixpoint rounds (a backstop; widening converges first).
constexpr int kMaxRounds = 64;

class Analyzer {
 public:
  Analyzer(const Program& surface, const Program& expanded,
           const Catalog& catalog, const std::vector<size_t>* edb_rows)
      : surface_(surface),
        expanded_(expanded),
        catalog_(catalog),
        edb_rows_(edb_rows) {}

  AnalysisResult Run() {
    CollectPredicates();
    SeedFromCatalog();
    Fixpoint();
    AnalysisResult result;
    result.rounds = rounds_;
    ClassifyRules(&result.diagnostics);
    EmitEmptyPredicates(&result.diagnostics);
    AnalyzeChoiceRules(&result.diagnostics);
    SortDiagnostics(&result.diagnostics);
    BuildSignatures(&result.signatures);
    return result;
  }

 private:
  // -- Setup ---------------------------------------------------------------

  void CollectPredicates() {
    const auto add = [this](const Program& p) {
      for (const Program::PredicateRef& ref : p.AllPredicates()) {
        const std::string key = PredKey(ref.name, ref.arity);
        auto [it, inserted] = states_.try_emplace(key);
        if (inserted) {
          it->second.name = ref.name;
          it->second.arity = ref.arity;
          it->second.cols.assign(ref.arity, AbstractValue::Bottom());
        }
      }
    };
    add(expanded_);
    add(surface_);
    for (const Rule& r : expanded_.rules) {
      if (r.is_fact()) continue;
      auto it = states_.find(KeyOf(r.head));
      if (it != states_.end()) it->second.has_rules = true;
    }
  }

  void SeedFromCatalog() {
    for (auto& [key, ps] : states_) {
      const PredicateId id = catalog_.Lookup(ps.name, ps.arity);
      if (id == kNoPredicate) continue;
      const Relation& rel = catalog_.relation(id);
      size_t rows = rel.size();
      if (edb_rows_ != nullptr) {
        rows = id < edb_rows_->size() ? std::min(rows, (*edb_rows_)[id]) : 0;
      }
      if (rows == 0) continue;
      ps.base_rows = rows;
      ps.hi = rows;
      ps.edb_seeded = true;
      ps.populated = true;
      if (rows > kMaxScanRows) {
        ps.cols.assign(ps.arity, AbstractValue::Top());
        continue;
      }
      for (size_t row = 0; row < rows; ++row) {
        const TupleView t = rel.Row(static_cast<RowId>(row));
        for (uint32_t j = 0; j < ps.arity; ++j) {
          ps.cols[j] = ps.cols[j].Join(AVOfValue(t[j]));
        }
      }
    }
  }

  // -- Term evaluation -----------------------------------------------------

  AbstractValue GetVar(BodyCtx* ctx, const std::string& name) {
    auto it = ctx->env.find(name);
    if (it == ctx->env.end()) return AbstractValue::Top();
    return it->second;
  }

  void MarkUnsat(BodyCtx* ctx, std::string cause, SourceLoc loc) {
    if (ctx->unsat) return;
    ctx->unsat = true;
    ctx->cause = std::move(cause);
    ctx->cause_loc = loc;
  }

  /// Meets a variable's environment entry with one occurrence's
  /// over-approximation. A disjoint-type conflict between two non-bottom
  /// sets is a provable type error (GD300); any other empty meet is a
  /// value-level conflict that only proves the body unsatisfiable.
  void MeetVar(BodyCtx* ctx, const std::string& name, const AbstractValue& occ,
               SourceLoc loc) {
    AbstractValue& cur =
        ctx->env.try_emplace(name, AbstractValue::Top()).first->second;
    const AbstractValue met = cur.Meet(occ);
    if (met.empty() && !cur.empty() && !occ.empty()) {
      if (cur.types.Intersect(occ.types).empty()) {
        if (ctx->sink != nullptr) {
          ctx->sink->Emit(diag::kTypeConflict,
                          "variable " + name + " is used both as " +
                              TypeSetName(cur.types) + " and as " +
                              TypeSetName(occ.types),
                          loc);
        }
        MarkUnsat(ctx, "conflicting types for variable " + name, loc);
      } else {
        MarkUnsat(ctx,
                  "conflicting value constraints on variable " + name +
                      " (" + AbstractValueName(cur) + " vs " +
                      AbstractValueName(occ) + ")",
                  loc);
      }
    }
    cur = met;
  }

  AbstractValue EvalTerm(BodyCtx* ctx, const TermNode& t, SourceLoc loc) {
    switch (t.kind) {
      case TermKind::kConstant:
        return AVOfValue(t.constant);
      case TermKind::kVariable:
        return GetVar(ctx, t.name);
      case TermKind::kCompound:
        break;
    }
    if (!IsArithmeticFunctor(t.name)) {
      // Constructor (or tuple): the value is an interned term. Nested
      // arguments are still evaluated so a guaranteed-overflow operand
      // inside t(...) is reported.
      for (const TermNode& a : t.args) EvalTerm(ctx, a, loc);
      return AbstractValue::OfKind(ValueKind::kTerm);
    }
    // Arithmetic functors are binary after parsing (unary minus becomes
    // 0 - x).
    const AbstractValue a = EvalTerm(ctx, t.args[0], loc);
    const AbstractValue b = EvalTerm(ctx, t.args[1], loc);
    if (ctx->unsat) return AbstractValue::Bottom();
    for (const AbstractValue* side : {&a, &b}) {
      if (!side->empty() && !side->types.has_int()) {
        if (ctx->sink != nullptr) {
          ctx->sink->Emit(diag::kNonIntArithmetic,
                          "operand of '" + t.name + "' can only be " +
                              TypeSetName(side->types) +
                              ", never an int; the rule body never matches",
                          loc);
        }
      }
    }
    if (!a.types.has_int() || !b.types.has_int()) {
      MarkUnsat(ctx, "arithmetic over a non-int operand", loc);
      return AbstractValue::Bottom();
    }
    Interval r;
    if (t.name == "+") {
      r = IntervalAdd(a.iv, b.iv);
    } else if (t.name == "-") {
      r = IntervalSub(a.iv, b.iv);
    } else if (t.name == "*") {
      r = IntervalMul(a.iv, b.iv);
    } else if (t.name == "/") {
      r = IntervalDiv(a.iv, b.iv);
    } else if (t.name == "mod") {
      r = IntervalMod(a.iv, b.iv);
    } else if (t.name == "min") {
      r = IntervalMin(a.iv, b.iv);
    } else {  // "max"
      r = IntervalMax(a.iv, b.iv);
    }
    const Interval clamped = r.Meet(Interval::ValueRange());
    if (clamped.empty()) {
      if (ctx->sink != nullptr) {
        ctx->sink->Emit(
            diag::kGuaranteedOverflow,
            "'" + t.name + "' here can never produce an in-range value "
            "(every evaluation overflows the 61-bit int payload or divides "
            "by zero), so the rule body never matches",
            loc);
      }
      MarkUnsat(ctx, "guaranteed arithmetic failure", loc);
      return AbstractValue::Bottom();
    }
    return AbstractValue::IntRange(clamped);
  }

  // -- Literal transfer functions ------------------------------------------

  void ApplyAtom(BodyCtx* ctx, const Literal& lit) {
    auto it = states_.find(KeyOf(lit));
    if (it == states_.end() || !it->second.populated) {
      ctx->analyzable = false;
      return;
    }
    const PredState& ps = it->second;
    for (size_t j = 0; j < lit.args.size(); ++j) {
      const TermNode& a = lit.args[j];
      const AbstractValue& col = ps.cols[j];
      if (a.is_var()) {
        MeetVar(ctx, a.name, col, lit.loc);
      } else if (a.is_const()) {
        if (col.Meet(AVOfValue(a.constant)).empty()) {
          MarkUnsat(ctx,
                    "argument " + std::to_string(j + 1) + " of " +
                        ps.name + "/" + std::to_string(ps.arity) +
                        " is always " + AbstractValueName(col) +
                        ", which excludes this constant",
                    lit.loc);
        }
      } else if (IsArithmeticFunctor(a.name)) {
        const AbstractValue v = EvalTerm(ctx, a, lit.loc);
        if (!ctx->unsat && col.Meet(v).empty()) {
          MarkUnsat(ctx,
                    "argument " + std::to_string(j + 1) + " of " +
                        ps.name + "/" + std::to_string(ps.arity) +
                        " can never equal this arithmetic result",
                    lit.loc);
        }
      } else {
        // Constructor pattern: the column must admit terms. Variables
        // under the pattern stay unconstrained (sound; no per-functor
        // destructuring in the column lattice).
        if (!col.empty() && !col.types.Has(ValueKind::kTerm)) {
          MarkUnsat(ctx,
                    "argument " + std::to_string(j + 1) + " of " +
                        ps.name + "/" + std::to_string(ps.arity) +
                        " is always " + AbstractValueName(col) +
                        ", never a compound term",
                    lit.loc);
        }
      }
      if (ctx->unsat) return;
    }
  }

  void ApplyComparison(BodyCtx* ctx, const Literal& lit) {
    const TermNode& lhs = lit.args[0];
    const TermNode& rhs = lit.args[1];
    const AbstractValue va = EvalTerm(ctx, lhs, lit.loc);
    const AbstractValue vb = EvalTerm(ctx, rhs, lit.loc);
    if (ctx->unsat) return;
    switch (lit.op) {
      case ComparisonOp::kEq: {
        const AbstractValue met = va.Meet(vb);
        if (met.empty() && !va.empty() && !vb.empty() && !lhs.is_var() &&
            !rhs.is_var()) {
          MarkUnsat(ctx, "equality between disjoint values can never hold",
                    lit.loc);
          return;
        }
        if (lhs.is_var()) MeetVar(ctx, lhs.name, vb, lit.loc);
        if (ctx->unsat) return;
        if (rhs.is_var()) MeetVar(ctx, rhs.name, GetVar(ctx, lhs.name), lit.loc);
        return;
      }
      case ComparisonOp::kNe: {
        const bool int_points = va.types == TypeSet::Int() &&
                                vb.types == TypeSet::Int() &&
                                va.iv.lo == va.iv.hi && vb.iv.lo == vb.iv.hi;
        if (int_points && va.iv.lo == vb.iv.lo) {
          MarkUnsat(ctx, "both sides are always " + std::to_string(va.iv.lo) +
                             ", so the disequality never holds",
                    lit.loc);
        }
        return;
      }
      case ComparisonOp::kLt:
      case ComparisonOp::kLe:
      case ComparisonOp::kGt:
      case ComparisonOp::kGe:
        break;
    }
    // Normalize to lo OP hi with OP in {<, <=}.
    const bool flipped =
        lit.op == ComparisonOp::kGt || lit.op == ComparisonOp::kGe;
    const bool strict =
        lit.op == ComparisonOp::kLt || lit.op == ComparisonOp::kGt;
    const TermNode& small_t = flipped ? rhs : lhs;
    const TermNode& big_t = flipped ? lhs : rhs;
    const AbstractValue& small = flipped ? vb : va;
    const AbstractValue& big = flipped ? va : vb;
    // Cross-kind orderings resolve statically in the semantic total
    // order nil < ints < symbols < terms.
    if (MinRank(small.types) > MaxRank(big.types) && !small.empty() &&
        !big.empty()) {
      MarkUnsat(ctx,
                "comparison can never hold: the left side always orders "
                "after the right in the nil < int < symbol < term order",
                lit.loc);
      return;
    }
    const bool both_int_only = small.types == TypeSet::Int() &&
                               big.types == TypeSet::Int();
    if (!both_int_only) return;
    const bool dead = strict ? small.iv.lo >= big.iv.hi
                             : small.iv.lo > big.iv.hi;
    if (dead) {
      MarkUnsat(ctx,
                "comparison can never hold: " + IntervalName(small.iv) +
                    (strict ? " < " : " <= ") + IntervalName(big.iv) +
                    " is always false",
                lit.loc);
      return;
    }
    // Narrow both sides; only sound when each side is provably an int.
    const int64_t off = strict ? 1 : 0;
    if (small_t.is_var()) {
      int64_t hi = big.iv.hi;
      if (hi != Interval::kPosInf) hi -= off;
      MeetVar(ctx, small_t.name,
              AbstractValue::IntRange(Interval{Interval::kNegInf, hi}),
              lit.loc);
    }
    if (ctx->unsat) return;
    if (big_t.is_var()) {
      int64_t lo = small.iv.lo;
      if (lo != Interval::kNegInf) lo += off;
      MeetVar(ctx, big_t.name,
              AbstractValue::IntRange(Interval{lo, Interval::kPosInf}),
              lit.loc);
    }
  }

  /// Runs the propagation sweeps over one rule body. Negated atoms and
  /// not-exists conjunctions contribute no constraints (sound for an
  /// over-approximation); meta goals only constrain next()'s stage
  /// variable, and only when analyzing an unexpanded surface program.
  void AnalyzeBody(const Rule& rule, BodyCtx* ctx) {
    for (int pass = 0; pass < kBodyPasses && !ctx->unsat && ctx->analyzable;
         ++pass) {
      for (const Literal& lit : rule.body) {
        switch (lit.kind) {
          case LiteralKind::kAtom:
            if (!lit.negated) ApplyAtom(ctx, lit);
            break;
          case LiteralKind::kComparison:
            ApplyComparison(ctx, lit);
            break;
          case LiteralKind::kNext:
            if (lit.args[0].is_var()) {
              MeetVar(ctx, lit.args[0].name,
                      AbstractValue::IntRange(
                          Interval{0, Interval::kPosInf}),
                      lit.loc);
            }
            break;
          case LiteralKind::kNotExists:
          case LiteralKind::kChoice:
          case LiteralKind::kLeast:
          case LiteralKind::kMost:
            break;
        }
        if (ctx->unsat || !ctx->analyzable) break;
      }
    }
  }

  AbstractValue HeadTermAV(BodyCtx* ctx, const TermNode& t, SourceLoc loc) {
    if (t.is_var()) return GetVar(ctx, t.name);
    if (t.is_const()) return AVOfValue(t.constant);
    if (IsArithmeticFunctor(t.name)) return EvalTerm(ctx, t, loc);
    for (const TermNode& a : t.args) EvalTerm(ctx, a, loc);
    return AbstractValue::OfKind(ValueKind::kTerm);
  }

  // -- Fixpoint ------------------------------------------------------------

  void Fixpoint() {
    const size_t n = expanded_.rules.size();
    std::vector<char> rule_ok(n, 0);
    bool changed = true;
    while (changed && rounds_ < kMaxRounds) {
      changed = false;
      ++rounds_;
      const bool widen = rounds_ > kWidenAfter;
      for (size_t ri = 0; ri < n; ++ri) {
        const Rule& rule = expanded_.rules[ri];
        if (rule.is_fact()) continue;
        BodyCtx ctx;
        AnalyzeBody(rule, &ctx);
        rule_ok[ri] = static_cast<char>(ctx.analyzable && !ctx.unsat);
        if (rule_ok[ri] == 0) continue;
        auto it = states_.find(KeyOf(rule.head));
        if (it == states_.end()) continue;
        PredState& hs = it->second;
        bool head_unsat = false;
        std::vector<AbstractValue> contrib(rule.head.args.size());
        for (size_t j = 0; j < rule.head.args.size(); ++j) {
          contrib[j] = HeadTermAV(&ctx, rule.head.args[j], rule.head.loc);
          if (ctx.unsat || contrib[j].empty()) {
            head_unsat = true;
            break;
          }
        }
        if (head_unsat) {
          rule_ok[ri] = 0;
          continue;
        }
        for (size_t j = 0; j < contrib.size(); ++j) {
          AbstractValue next = hs.cols[j].Join(contrib[j]);
          if (widen) next = hs.cols[j].Widen(next);
          if (next != hs.cols[j]) {
            hs.cols[j] = next;
            changed = true;
          }
        }
        if (!hs.populated) {
          hs.populated = true;
          changed = true;
        }
      }
      // Cardinality: per round, a predicate's bound is its base rows
      // plus the saturating product of each contributing rule's body
      // bounds. Monotone; widened to +inf once growth persists.
      std::map<std::string, uint64_t> next_hi;
      for (const auto& [key, ps] : states_) next_hi[key] = ps.base_rows;
      for (size_t ri = 0; ri < n; ++ri) {
        if (rule_ok[ri] == 0) continue;
        const Rule& rule = expanded_.rules[ri];
        if (rule.is_fact()) continue;
        uint64_t ub = 1;
        for (const Literal& lit : rule.body) {
          if (!lit.is_positive_atom()) continue;
          auto it = states_.find(KeyOf(lit));
          ub = CardMul(ub, it != states_.end() ? it->second.hi : 0);
        }
        auto& slot = next_hi[KeyOf(rule.head)];
        slot = CardAdd(slot, ub);
      }
      for (auto& [key, ps] : states_) {
        const uint64_t nh = next_hi[key];
        if (nh != ps.hi) {
          ps.hi = widen && nh > ps.hi ? CardBound::kInf : nh;
          changed = true;
        }
      }
    }
    if (changed) {
      // Round backstop tripped before convergence (pathological inputs
      // only): give up precision, keep soundness.
      for (auto& [key, ps] : states_) {
        if (!ps.populated) continue;
        ps.cols.assign(ps.arity, AbstractValue::Top());
        ps.hi = CardBound::kInf;
      }
    }
  }

  // -- Diagnostics ---------------------------------------------------------

  void ClassifyRules(std::vector<Diagnostic>* out) {
    Sink sink(out);
    for (size_t ri = 0; ri < expanded_.rules.size(); ++ri) {
      const Rule& rule = expanded_.rules[ri];
      if (rule.is_fact()) continue;
      const std::string head = KeyOf(rule.head);
      auto it = states_.find(head);
      if (it != states_.end()) it->second.rules_total += 1;
      sink.SetRule(static_cast<int>(surface_.ClauseOf(ri)), &rule, head);
      BodyCtx ctx;
      ctx.sink = &sink;
      AnalyzeBody(rule, &ctx);
      if (!ctx.analyzable) continue;
      if (!ctx.unsat) {
        // Body satisfiable: still evaluate the head so GD301/GD013 at
        // head arithmetic sites are reported.
        for (const TermNode& t : rule.head.args) {
          HeadTermAV(&ctx, t, rule.head.loc);
          if (ctx.unsat) break;
        }
      }
      if (!ctx.unsat) continue;
      if (it != states_.end()) it->second.rules_provably_unsat += 1;
      if (!sink.fired_root_cause()) {
        sink.Emit(diag::kProvablyEmpty,
                  "rule can never derive a tuple: " + ctx.cause,
                  ctx.cause_loc);
      }
    }
  }

  void EmitEmptyPredicates(std::vector<Diagnostic>* out) {
    for (const auto& [key, ps] : states_) {
      if (!ps.has_rules || ps.base_rows != 0 || ps.edb_seeded) continue;
      if (ps.rules_total == 0 || ps.rules_provably_unsat != ps.rules_total) {
        continue;
      }
      Diagnostic d = MakeDiagnostic(
          diag::kProvablyEmpty,
          "predicate " + key + " is provably empty: it has no facts and "
          "every rule body is unsatisfiable");
      d.predicate = key;
      out->push_back(std::move(d));
    }
  }

  // Choice determinism runs over the *surface* rules so the choice
  // literals synthesized by next() expansion are not misreported.
  void AnalyzeChoiceRules(std::vector<Diagnostic>* out) {
    for (size_t ri = 0; ri < surface_.rules.size(); ++ri) {
      const Rule& rule = surface_.rules[ri];
      if (!rule.has_choice()) continue;
      for (const Literal& lit : rule.body) {
        if (lit.kind != LiteralKind::kChoice) continue;
        std::vector<std::string> left_vars;
        std::vector<std::string> right_vars;
        CollectVariables(lit.args[0], &left_vars);
        CollectVariables(lit.args[1], &right_vars);
        if (right_vars.empty()) continue;  // degenerate; GD007 territory
        std::set<std::string> det(left_vars.begin(), left_vars.end());
        if (!DeterminedClosure(rule, &det)) continue;
        const bool singleton = std::all_of(
            right_vars.begin(), right_vars.end(),
            [&det](const std::string& v) { return det.count(v) > 0; });
        if (singleton) {
          Diagnostic d = MakeDiagnostic(
              diag::kDeadChoice,
              "choice goal is dead: the right side is functionally "
              "determined by the left through body equalities, so the "
              "witness set is always a singleton and the choice never "
              "actually chooses");
          d.predicate = KeyOf(rule.head);
          d.rule_index = static_cast<int>(surface_.ClauseOf(ri));
          d.loc = lit.loc.valid() ? lit.loc : rule.loc;
          out->push_back(std::move(d));
        }
      }
      if (!rule.has_extrema() && !rule.has_next()) {
        Diagnostic d = MakeDiagnostic(
            diag::kChoiceNeverRejects,
            "rule admissibility reduces to the choice FD memo: with no "
            "extremum and no stage post-condition, a candidate that "
            "respects the recorded choices is never rejected");
        d.predicate = KeyOf(rule.head);
        d.rule_index = static_cast<int>(surface_.ClauseOf(ri));
        d.loc = rule.loc;
        out->push_back(std::move(d));
      }
    }
  }

  /// Grows `det` with every variable functionally determined by the
  /// current set through body equalities. Constructor compounds are
  /// injective (interned), so a determined constructor equality
  /// determines its argument variables; arithmetic is not inverted.
  /// Returns false only on malformed input (defensive).
  bool DeterminedClosure(const Rule& rule, std::set<std::string>* det) {
    bool grew = true;
    while (grew) {
      grew = false;
      for (const Literal& lit : rule.body) {
        if (lit.kind != LiteralKind::kComparison ||
            lit.op != ComparisonOp::kEq) {
          continue;
        }
        for (int side = 0; side < 2; ++side) {
          const TermNode& from = lit.args[side];
          const TermNode& to = lit.args[1 - side];
          std::vector<std::string> from_vars;
          CollectVariables(from, &from_vars);
          const bool from_det = std::all_of(
              from_vars.begin(), from_vars.end(),
              [det](const std::string& v) { return det->count(v) > 0; });
          if (!from_det) continue;
          if (to.is_var()) {
            grew |= det->insert(to.name).second;
          } else if (to.is_compound() && !IsArithmeticFunctor(to.name)) {
            std::vector<std::string> to_vars;
            CollectVariables(to, &to_vars);
            for (const std::string& v : to_vars) {
              grew |= det->insert(v).second;
            }
          }
        }
      }
    }
    return true;
  }

  // -- Results -------------------------------------------------------------

  void BuildSignatures(std::vector<PredicateSignature>* out) {
    out->reserve(states_.size());
    for (const auto& [key, ps] : states_) {
      PredicateSignature sig;
      sig.name = ps.name;
      sig.arity = ps.arity;
      sig.args = ps.cols;
      sig.populated = ps.populated;
      sig.edb_seeded = ps.edb_seeded;
      if (ps.populated) {
        sig.card = CardBound{ps.base_rows, ps.hi};
      } else {
        sig.card = CardBound::Unbounded();
      }
      out->push_back(std::move(sig));
    }
    std::sort(out->begin(), out->end(),
              [](const PredicateSignature& a, const PredicateSignature& b) {
                if (a.name != b.name) return a.name < b.name;
                return a.arity < b.arity;
              });
  }

  const Program& surface_;
  const Program& expanded_;
  const Catalog& catalog_;
  const std::vector<size_t>* edb_rows_;  // null: every row is EDB
  std::map<std::string, PredState> states_;
  int rounds_ = 0;
};

}  // namespace

std::string PredicateSignature::DisplayName() const {
  return PredKey(name, arity);
}

const PredicateSignature* AnalysisResult::Find(std::string_view name,
                                               uint32_t arity) const {
  for (const PredicateSignature& s : signatures) {
    if (s.arity == arity && s.name == name) return &s;
  }
  return nullptr;
}

AnalysisResult AnalyzeProgram(const Program& surface, const Program& expanded,
                              const Catalog& catalog,
                              const std::vector<size_t>* edb_rows) {
  Analyzer a(surface, expanded, catalog, edb_rows);
  return a.Run();
}

AnalysisResult Analyze(const Program& surface) {
  Catalog facts;
  for (const FactBatch& b : surface.facts) {
    Relation& rel = facts.relation(facts.Ensure(b.predicate, b.arity));
    for (size_t i = 0; i < b.count; ++i) {
      rel.Insert(TupleView(b.rows.data() + i * b.arity, b.arity));
    }
  }
  // A malformed rule is reported by its GD1xx diagnostic elsewhere and
  // cannot be expanded; the surface program still analyzes soundly
  // (next() binds its stage variable to a nonnegative int).
  for (const Rule& r : surface.rules) {
    if (!RuleStructureDiagnostics(r).empty()) {
      return AnalyzeProgram(surface, surface, facts);
    }
  }
  return AnalyzeProgram(surface, ExpandNext(surface), facts);
}

void AnalysisToJson(const AnalysisResult& r, JsonWriter* w) {
  w->BeginObject();
  w->Key("rounds").Int(r.rounds);
  w->Key("predicates").BeginArray();
  for (const PredicateSignature& sig : r.signatures) {
    w->BeginObject();
    w->Key("predicate").String(sig.DisplayName());
    w->Key("populated").Bool(sig.populated);
    w->Key("cardinality").BeginObject();
    w->Key("lo").UInt(sig.card.lo);
    w->Key("hi");
    if (sig.card.hi_finite()) {
      w->UInt(sig.card.hi);
    } else {
      w->Null();
    }
    w->EndObject();
    w->Key("args").BeginArray();
    for (const AbstractValue& v : sig.args) {
      w->BeginObject();
      w->Key("types").BeginArray();
      if (v.types.has_int()) w->String("int");
      if (v.types.Has(ValueKind::kSymbol)) w->String("symbol");
      if (v.types.Has(ValueKind::kTerm)) w->String("term");
      if (v.types.Has(ValueKind::kNil)) w->String("nil");
      w->EndArray();
      if (v.types.has_int() && !v.iv.is_full()) {
        if (v.iv.lo != Interval::kNegInf) w->Key("min").Int(v.iv.lo);
        if (v.iv.hi != Interval::kPosInf) w->Key("max").Int(v.iv.hi);
      }
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

std::string SignaturesText(const AnalysisResult& r) {
  std::string out;
  for (const PredicateSignature& sig : r.signatures) {
    out += sig.DisplayName();
    if (!sig.populated) {
      out += ": unanalyzed (no facts or analyzable rules)\n";
      continue;
    }
    out += ": (";
    for (size_t j = 0; j < sig.args.size(); ++j) {
      if (j > 0) out += ", ";
      out += AbstractValueName(sig.args[j]);
    }
    out += ") rows ";
    out += CardBoundName(sig.card);
    if (sig.edb_seeded) out += " [edb]";
    out += "\n";
  }
  return out;
}

}  // namespace absint
}  // namespace gdlog

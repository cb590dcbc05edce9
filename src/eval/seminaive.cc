#include "eval/seminaive.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace gdlog {

namespace {

/// The row window a scan reads under a given delta variant.
struct Window {
  RowId begin = 0;
  RowId end = 0;
};

Window WindowFor(const CompiledScan& scan, const Relation& rel,
                 uint32_t delta_occurrence) {
  const auto size = static_cast<RowId>(rel.size());
  if (delta_occurrence == CompiledScan::kNoOccurrence ||
      scan.clique_occurrence == CompiledScan::kNoOccurrence) {
    return {0, size};
  }
  if (scan.clique_occurrence == delta_occurrence) {
    return {rel.delta_begin(), rel.delta_end()};
  }
  if (scan.clique_occurrence < delta_occurrence) {
    return {0, rel.delta_begin()};
  }
  return {0, rel.delta_end()};
}

/// ValueStore::Compare's order, with two ints ordered inline.
int CompareValues(ValueStore* store, Value a, Value b) {
  if (a.is_int() && b.is_int()) {
    const int64_t x = a.AsInt();
    const int64_t y = b.AsInt();
    return (x > y) - (x < y);
  }
  return store->Compare(a, b);
}

/// Stops an enumeration at its first solution: a NotExists subplan needs
/// one witness.
struct FirstSolution {
  bool found = false;
  bool operator()(BindingFrame&) {
    found = true;
    return false;
  }
};

}  // namespace

bool PlanExecutor::RunCompare(const CompiledRule& rule,
                              const CompiledCompare& cmp,
                              BindingFrame* frame) {
  if (cmp.is_assignment) {
    Value v;
    if (!ReadOp(rule.pool, cmp.value_op, *frame, store_, &v)) {
      return false;  // arithmetic failure (e.g. non-int operand)
    }
    if (frame->IsBound(cmp.assign_slot)) {
      return frame->Get(cmp.assign_slot) == v;
    }
    frame->Bind(cmp.assign_slot, v);
    return true;
  }
  Value a, b;
  if (!ReadOp(rule.pool, cmp.lhs_op, *frame, store_, &a)) return false;
  if (!ReadOp(rule.pool, cmp.rhs_op, *frame, store_, &b)) return false;
  switch (cmp.op) {
    case ComparisonOp::kEq:
      return a == b;
    case ComparisonOp::kNe:
      return a != b;
    case ComparisonOp::kLt:
      return CompareValues(store_, a, b) < 0;
    case ComparisonOp::kLe:
      return CompareValues(store_, a, b) <= 0;
    case ComparisonOp::kGt:
      return CompareValues(store_, a, b) > 0;
    case ComparisonOp::kGe:
      return CompareValues(store_, a, b) >= 0;
  }
  return false;
}

inline bool PlanExecutor::MatchRow(const CompiledRule& rule,
                                   const CompiledScan& scan, const Value* row,
                                   BindingFrame* frame) {
  Value* slots = frame->slot_data();
  for (const TermOp& op : scan.col_ops) {
    const Value v = row[op.col];
    switch (op.kind) {
      case TermOp::Kind::kBind:
        slots[op.index] = v;
        break;
      case TermOp::Kind::kSlot:
        if (slots[op.index] != v) return false;
        break;
      case TermOp::Kind::kConst:
        if (op.constant != v) return false;
        break;
      case TermOp::Kind::kTerm:
        if (!MatchTerm(rule.pool, op.index, v, frame, store_)) return false;
        break;
    }
  }
  return true;
}

template <typename Next>
bool PlanExecutor::RunScan(const CompiledRule& rule, const CompiledScan& scan,
                           uint32_t delta_occurrence, BindingFrame* frame,
                           Next& next) {
  const Relation& rel = catalog_->relation(scan.pred);

  // Negated scan with an installed oracle: ground membership test.
  if (scan.negated && oracle_) {
    std::vector<Value> tuple(scan.arg_terms.size());
    for (size_t i = 0; i < scan.arg_terms.size(); ++i) {
      const bool ok =
          EvalTerm(rule.pool, scan.arg_terms[i], *frame, store_, &tuple[i]);
      GDLOG_CHECK(ok) << "non-ground negated goal under oracle";
    }
    if (oracle_(scan.pred, TupleView(tuple))) return true;  // in model: fail
    return next();  // absent: negation holds, continue (no bindings)
  }

  const Window window = WindowFor(scan, rel, delta_occurrence);

  GoalStats* gs = nullptr;
  if (goal_stats_ != nullptr && !scan.negated &&
      scan.goal_id != CompiledScan::kNoGoal &&
      rule.rule_index < goal_stats_->size() &&
      scan.goal_id < (*goal_stats_)[rule.rule_index].size()) {
    gs = &(*goal_stats_)[rule.rule_index][scan.goal_id];
    ++gs->probes;
  }

  // Hash the probe key as its ops evaluate, before this scan flags the
  // slots it binds (no key op reads them).
  uint64_t key_hash = 0;
  if (scan.index_id >= 0) {
    key_hash = Index::KeyHashSeed(scan.key_ops.size());
    for (const TermOp& op : scan.key_ops) {
      Value v;
      if (!ReadOp(rule.pool, op, *frame, store_, &v)) {
        if (gs != nullptr) gs->fanout.Record(0);  // a probe matching nothing
        return !scan.negated ? true : next();
      }
      key_hash = Index::KeyHashStep(key_hash, v);
    }
  }

  for (uint32_t s : scan.bind_slots) frame->MarkBound(s);
  uint64_t probe_matches = 0;
  bool aborted = false;  // a witness (negated) or a stop from `next`
  // Returns false to end the row loop.
  auto visit = [&](RowId row) -> bool {
    ++stats_.scan_rows;
    if (gs != nullptr) ++gs->rows;
    const size_t mark = scan.has_term_op ? frame->Mark() : 0;
    if (!MatchRow(rule, scan, rel.Row(row).data(), frame)) {
      if (scan.has_term_op) frame->UndoTo(mark);
      return true;
    }
    if (scan.negated) {
      if (scan.has_term_op) frame->UndoTo(mark);
      aborted = true;  // a witness refutes the negation
      return false;
    }
    if (gs != nullptr) {
      ++gs->matches;
      ++probe_matches;
    }
    // Provenance: this row justifies everything derived under it.
    if (trail_ != nullptr) trail_->push_back({scan.pred, row});
    const bool keep_going = next();
    if (trail_ != nullptr) trail_->pop_back();
    if (scan.has_term_op) frame->UndoTo(mark);
    aborted = !keep_going;
    return keep_going;
  };

  if (scan.index_id >= 0) {
    const Index& index = rel.index(static_cast<size_t>(scan.index_id));
    auto it = index.Probe(key_hash);
    for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
      if (row < window.begin || row >= window.end) continue;
      if (!visit(row)) break;
    }
  } else {
    for (RowId row = window.begin; row < window.end; ++row) {
      if (!visit(row)) break;
    }
  }
  for (uint32_t s : scan.bind_slots) frame->ClearBound(s);

  if (scan.negated) {
    // A witness means the negation fails (the enumeration itself goes
    // on with the caller's siblings); none means it holds.
    if (aborted) return true;
    return next();
  }
  if (gs != nullptr) gs->fanout.Record(probe_matches);
  return !aborted;
}

template <typename Sink>
bool PlanExecutor::Walk(const CompiledRule& rule, const CompiledLiteral* lit,
                        const CompiledLiteral* end, uint32_t delta_occurrence,
                        BindingFrame* frame, Sink& sink) {
  if (lit == end) {
    ++stats_.solutions;
    return sink(*frame);
  }
  switch (lit->kind) {
    case CompiledLiteral::Kind::kCompare: {
      if (!lit->cmp.is_assignment) {
        if (!RunCompare(rule, lit->cmp, frame)) return true;
        return Walk(rule, lit + 1, end, delta_occurrence, frame, sink);
      }
      const size_t mark = frame->Mark();
      if (!RunCompare(rule, lit->cmp, frame)) {
        frame->UndoTo(mark);
        return true;
      }
      const bool r = Walk(rule, lit + 1, end, delta_occurrence, frame, sink);
      frame->UndoTo(mark);
      return r;
    }
    case CompiledLiteral::Kind::kNotExists: {
      FirstSolution witness;
      const size_t mark = frame->Mark();
      // The subplan's rows refute, they don't justify: detach the
      // provenance trail for the sub-enumeration.
      std::vector<ProvPremise>* trail = trail_;
      trail_ = nullptr;
      Walk(rule, lit->sub.data(), lit->sub.data() + lit->sub.size(),
           CompiledScan::kNoOccurrence, frame, witness);
      trail_ = trail;
      frame->UndoTo(mark);
      if (witness.found) return true;  // negation fails; siblings continue
      return Walk(rule, lit + 1, end, delta_occurrence, frame, sink);
    }
    case CompiledLiteral::Kind::kScan: {
      auto next = [&] {
        return Walk(rule, lit + 1, end, delta_occurrence, frame, sink);
      };
      return RunScan(rule, lit->scan, delta_occurrence, frame, next);
    }
  }
  return true;
}

bool PlanExecutor::Enumerate(const CompiledRule& rule,
                             const std::vector<CompiledLiteral>& plan,
                             uint32_t delta_occurrence, BindingFrame* frame,
                             SolutionFn on_solution) {
  return Walk(rule, plan.data(), plan.data() + plan.size(), delta_occurrence,
              frame, on_solution);
}

bool PlanExecutor::BuildHead(const CompiledRule& rule,
                             const BindingFrame& frame, Value* out) {
  for (uint32_t i = 0; i < rule.head_arity; ++i) {
    if (!ReadOp(rule.pool, rule.head_ops[i], frame, store_, &out[i])) {
      return false;
    }
  }
  return true;
}

size_t PlanExecutor::ApplyRule(const CompiledRule& rule,
                               uint32_t delta_occurrence, size_t* attempted) {
  // Head tuples are buffered and inserted only after the enumeration
  // finishes: inserting into a relation invalidates any live index
  // iterator on it (a rehash rewrites the chains), and recursive rules
  // scan their own head relation.
  BindingFrame frame = std::move(apply_frame_);
  std::vector<Value> rows = std::move(pending_rows_);
  std::vector<ProvPremise> prems = std::move(pending_prov_);
  frame.Reset(rule.num_slots);
  rows.clear();
  prems.clear();
  const uint32_t arity = rule.head_arity;
  size_t num_rows = 0;
  auto sink = [&](BindingFrame& f) {
    const size_t base = rows.size();
    rows.resize(base + arity);
    if (!BuildHead(rule, f, rows.data() + base)) {
      rows.resize(base);  // an untyped binding derives nothing
      return true;
    }
    ++num_rows;
    // Per-row premises, one per positive goal (provenance only).
    if (trail_ != nullptr) {
      prems.insert(prems.end(), trail_->begin(), trail_->end());
    }
    return true;
  };
  const std::vector<CompiledLiteral>& plan = PlanFor(rule, delta_occurrence);
  Walk(rule, plan.data(), plan.data() + plan.size(), delta_occurrence, &frame,
       sink);
  if (attempted != nullptr) *attempted = num_rows;

  // Each new row is counted as its insert returns, as at every other
  // insert site, so a budget fault in mid-batch leaves stats_.inserts
  // counting the rows added before the faulting insert.
  Relation& head_rel = catalog_->relation(rule.head_pred);
  const uint64_t inserts_before = stats_.inserts;
  if (trail_ == nullptr) {
    head_rel.InsertBatch(rows.data(), num_rows, &stats_.inserts);
  } else {
    // Annotate each new row right after its insert, so the premise pool
    // grows (and is charged) between the same inserts as row by row.
    const size_t per_row = num_rows == 0 ? 0 : prems.size() / num_rows;
    for (size_t i = 0; i < num_rows; ++i) {
      const auto res =
          head_rel.Insert(TupleView(rows.data() + i * arity, arity));
      if (!res.inserted) continue;
      ++stats_.inserts;
      head_rel.Annotate(res.row, rule.rule_index, prems.data() + i * per_row,
                        per_row);
    }
  }
  const auto inserted = static_cast<size_t>(stats_.inserts - inserts_before);
  apply_frame_ = std::move(frame);
  pending_rows_ = std::move(rows);
  pending_prov_ = std::move(prems);
  return inserted;
}

}  // namespace gdlog

#include "eval/seminaive.h"

#include "common/logging.h"
#include "eval/vm/vm.h"
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

}  // namespace

bool PlanExecutor::RunCompare(const CompiledRule& rule,
                              const CompiledCompare& cmp,
                              BindingFrame* frame) {
  if (cmp.is_assignment) {
    Value v;
    if (!EvalTerm(rule.pool, cmp.value_term, *frame, store_, &v)) {
      return false;  // arithmetic failure (e.g. non-int operand)
    }
    if (frame->IsBound(cmp.assign_slot)) {
      return frame->Get(cmp.assign_slot) == v;
    }
    frame->Bind(cmp.assign_slot, v);
    return true;
  }
  Value a, b;
  if (!EvalTerm(rule.pool, cmp.lhs, *frame, store_, &a)) return false;
  if (!EvalTerm(rule.pool, cmp.rhs, *frame, store_, &b)) return false;
  switch (cmp.op) {
    case ComparisonOp::kEq:
      return a == b;
    case ComparisonOp::kNe:
      return a != b;
    case ComparisonOp::kLt:
      return store_->Compare(a, b) < 0;
    case ComparisonOp::kLe:
      return store_->Compare(a, b) <= 0;
    case ComparisonOp::kGt:
      return store_->Compare(a, b) > 0;
    case ComparisonOp::kGe:
      return store_->Compare(a, b) >= 0;
  }
  return false;
}

bool PlanExecutor::RunScan(const CompiledRule& rule, const CompiledScan& scan,
                           uint32_t delta_occurrence, BindingFrame* frame,
                           const std::function<bool()>& on_match) {
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
    return on_match();  // absent: negation holds, continue (no bindings)
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
  uint64_t probe_matches = 0;

  auto try_row = [&](RowId row) -> int {
    // Returns -1 mismatch, 0 matched-and-continue, 1 aborted.
    ++stats_.scan_rows;
    if (gs != nullptr) ++gs->rows;
    const size_t mark = frame->Mark();
    TupleView tuple = rel.Row(row);
    bool ok = true;
    for (size_t i = 0; i < scan.arg_terms.size(); ++i) {
      if (!MatchTerm(rule.pool, scan.arg_terms[i], tuple[i], frame, store_)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      frame->UndoTo(mark);
      return -1;
    }
    if (scan.negated) {
      frame->UndoTo(mark);
      return 1;  // a witness refutes the negation — abort with failure
    }
    if (gs != nullptr) {
      ++gs->matches;
      ++probe_matches;
    }
    // Provenance: this row justifies everything derived under it.
    if (trail_ != nullptr) trail_->push_back({scan.pred, row});
    const bool keep_going = on_match();
    if (trail_ != nullptr) trail_->pop_back();
    frame->UndoTo(mark);
    return keep_going ? 0 : 1;
  };

  bool aborted = false;
  if (scan.index_id >= 0) {
    // Evaluate the probe key.
    std::vector<Value> key;
    key.reserve(scan.bound_cols.size());
    bool key_ok = true;
    for (uint32_t col : scan.bound_cols) {
      Value v;
      if (!EvalTerm(rule.pool, scan.arg_terms[col], *frame, store_, &v)) {
        key_ok = false;
        break;
      }
      key.push_back(v);
    }
    if (!key_ok) return !scan.negated ? true : on_match();
    const Index& index = rel.index(static_cast<size_t>(scan.index_id));
    auto it = index.Probe(Index::HashKey(TupleView(key)));
    for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
      if (row < window.begin || row >= window.end) continue;
      const int r = try_row(row);
      if (r == 1) {
        aborted = true;
        break;
      }
    }
  } else {
    for (RowId row = window.begin; row < window.end; ++row) {
      const int r = try_row(row);
      if (r == 1) {
        aborted = true;
        break;
      }
    }
  }

  if (scan.negated) {
    // Aborted means a witness was found: the negation fails (but the
    // enumeration itself continues, so return true upward only when the
    // negation holds).
    if (aborted) return true;  // literal failed; caller continues siblings
    return on_match();
  }
  if (gs != nullptr && gs->fanout != nullptr) gs->fanout->Record(probe_matches);
  return !aborted;
}

bool PlanExecutor::RunFrom(
    const CompiledRule& rule, const std::vector<CompiledLiteral>& plan,
    size_t idx, uint32_t delta_occurrence, BindingFrame* frame,
    const std::function<bool(BindingFrame&)>& on_solution) {
  if (idx == plan.size()) {
    ++stats_.solutions;
    return on_solution(*frame);
  }
  const CompiledLiteral& lit = plan[idx];
  switch (lit.kind) {
    case CompiledLiteral::Kind::kCompare: {
      const size_t mark = frame->Mark();
      if (!RunCompare(rule, lit.cmp, frame)) {
        frame->UndoTo(mark);
        return true;
      }
      const bool r =
          RunFrom(rule, plan, idx + 1, delta_occurrence, frame, on_solution);
      frame->UndoTo(mark);
      return r;
    }
    case CompiledLiteral::Kind::kNotExists: {
      bool witness = false;
      const size_t mark = frame->Mark();
      // The subplan's rows refute, they don't justify: detach the
      // provenance trail for the sub-enumeration.
      std::vector<ProvPremise>* trail = trail_;
      trail_ = nullptr;
      Enumerate(rule, lit.sub, CompiledScan::kNoOccurrence, frame,
                [&witness](BindingFrame&) {
                  witness = true;
                  return false;  // first witness suffices
                });
      trail_ = trail;
      frame->UndoTo(mark);
      if (witness) return true;  // negation fails; siblings continue
      return RunFrom(rule, plan, idx + 1, delta_occurrence, frame,
                     on_solution);
    }
    case CompiledLiteral::Kind::kScan: {
      return RunScan(rule, lit.scan, delta_occurrence, frame, [&]() {
        return RunFrom(rule, plan, idx + 1, delta_occurrence, frame,
                       on_solution);
      });
    }
  }
  return true;
}

vm::ExecCtx PlanExecutor::VmCtx() {
  vm::ExecCtx ctx;
  ctx.catalog = catalog_;
  ctx.store = store_;
  ctx.stats = &stats_;
  ctx.goal_stats = goal_stats_;
  ctx.trail = trail_;
  return ctx;
}

bool PlanExecutor::Enumerate(
    const CompiledRule& rule, const std::vector<CompiledLiteral>& plan,
    uint32_t delta_occurrence, BindingFrame* frame,
    const std::function<bool(BindingFrame&)>& on_solution) {
  // Bytecode dispatch: lowered plans run on the VM. Never under a
  // negation oracle — the stable-model checker's ground membership
  // semantics stay with the interpreter.
  if (vm_ != nullptr && oracle_ == nullptr) {
    if (const vm::PlanCode* code = vm_->Find(&plan)) {
      return vm::ExecutePlan(*code, delta_occurrence, frame, VmCtx(),
                             on_solution);
    }
  }
  return RunFrom(rule, plan, 0, delta_occurrence, frame, on_solution);
}

bool PlanExecutor::BuildHead(const CompiledRule& rule,
                             const BindingFrame& frame,
                             std::vector<Value>* out) {
  out->clear();
  out->reserve(rule.head_terms.size());
  for (uint32_t t : rule.head_terms) {
    Value v;
    if (!EvalTerm(rule.pool, t, frame, store_, &v)) return false;
    out->push_back(v);
  }
  return true;
}

size_t PlanExecutor::ApplyRuleVm(const CompiledRule& rule,
                                 const vm::PlanCode& code,
                                 const vm::RuleCode& rcode,
                                 uint32_t delta_occurrence,
                                 size_t* attempted) {
  // The VM emit path: head tuples land in one flat buffer (no
  // per-solution allocation), buffered like the interpreter so index
  // iterators stay valid and recursive rules see a stable head window.
  std::vector<Value> pending;
  std::vector<std::vector<ProvPremise>> pending_prov;
  BindingFrame frame(rule.num_slots);
  size_t emitted = 0;
  vm::ExecuteEmit(code, rcode, delta_occurrence, &frame, VmCtx(), &pending,
                  trail_ != nullptr ? &pending_prov : nullptr, &emitted);
  if (attempted != nullptr) *attempted = emitted;
  size_t inserted = 0;
  Relation& head_rel = catalog_->relation(rule.head_pred);
  const size_t arity = rule.head_terms.size();
  for (size_t i = 0; i < emitted; ++i) {
    const auto res =
        head_rel.Insert(TupleView(pending.data() + i * arity, arity));
    if (res.inserted) {
      ++inserted;
      ++stats_.inserts;
      if (trail_ != nullptr) {
        head_rel.Annotate(res.row, rule.rule_index, pending_prov[i].data(),
                          pending_prov[i].size());
      }
    }
  }
  return inserted;
}

size_t PlanExecutor::ApplyRule(const CompiledRule& rule,
                               uint32_t delta_occurrence, size_t* attempted) {
  // Head tuples are buffered and inserted only after the enumeration
  // finishes: inserting into a relation invalidates any live index
  // iterator on it (a rehash rewrites the chains), and recursive rules
  // scan their own head relation.
  std::vector<std::vector<Value>> pending;
  // Per-pending-head premises, parallel to `pending` (provenance only).
  std::vector<std::vector<ProvPremise>> pending_prov;
  BindingFrame frame(rule.num_slots);
  // Delta variants run their delta-first plan (the Δ atom leads).
  const std::vector<CompiledLiteral>& plan =
      (delta_occurrence == CompiledScan::kNoOccurrence ||
       delta_occurrence >= rule.delta_plans.size())
          ? rule.generator
          : rule.delta_plans[delta_occurrence];
  if (vm_ != nullptr && oracle_ == nullptr) {
    const vm::PlanCode* code = vm_->Find(&plan);
    const vm::RuleCode* rcode = vm_->FindRule(&rule);
    if (code != nullptr && rcode != nullptr) {
      return ApplyRuleVm(rule, *code, *rcode, delta_occurrence, attempted);
    }
  }
  Enumerate(rule, plan, delta_occurrence, &frame,
            [&](BindingFrame& f) {
              std::vector<Value> head;
              if (BuildHead(rule, f, &head)) {
                pending.push_back(std::move(head));
                if (trail_ != nullptr) pending_prov.push_back(*trail_);
              }
              return true;
            });
  if (attempted != nullptr) *attempted = pending.size();
  size_t inserted = 0;
  Relation& head_rel = catalog_->relation(rule.head_pred);
  for (size_t i = 0; i < pending.size(); ++i) {
    const auto res = head_rel.Insert(TupleView(pending[i]));
    if (res.inserted) {
      ++inserted;
      ++stats_.inserts;
      if (trail_ != nullptr) {
        head_rel.Annotate(res.row, rule.rule_index, pending_prov[i].data(),
                          pending_prov[i].size());
      }
    }
  }
  return inserted;
}

}  // namespace gdlog

#include "eval/vm/vm.h"

#include <algorithm>
#include <array>
#include <type_traits>

#include "obs/metrics.h"
#include "storage/index.h"

namespace gdlog {
namespace vm {

namespace {

struct Window {
  RowId begin = 0;
  RowId end = 0;
};

/// Exact WindowFor of eval/seminaive.cc.
Window WindowOf(const CompiledScan& scan, const Relation& rel,
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

/// Key-buffer storage for one plan execution: stack for the common
/// case, heap above it. Each level owns a fixed slice (key_offset), so
/// one buffer serves the whole nested enumeration.
class KeyBuffer {
 public:
  explicit KeyBuffer(uint32_t size) {
    if (size > kStack) {
      heap_.resize(size);
      data_ = heap_.data();
    }
  }
  Value* data() { return data_; }

 private:
  static constexpr uint32_t kStack = 16;
  Value stack_[kStack];
  std::vector<Value> heap_;
  Value* data_ = stack_;
};

struct WitnessSink {
  bool* witness;
  bool OnSolution(BindingFrame&) {
    *witness = true;
    return false;  // first witness suffices
  }
};

struct CallbackSink {
  const std::function<bool(BindingFrame&)>* fn;
  bool OnSolution(BindingFrame& f) { return (*fn)(f); }
};

/// The emit fast path: head ops into a flat pending buffer, no
/// per-solution allocation (provenance copies excepted).
struct EmitSink {
  const RuleCode* rcode;
  ValueStore* store;
  std::vector<Value>* out;
  std::vector<std::vector<ProvPremise>>* prov;  // null = provenance off
  std::vector<ProvPremise>* trail;
  size_t emitted = 0;

  bool OnSolution(BindingFrame& f) {
    const size_t base = out->size();
    for (const ir::HeadOp& h : rcode->head_ops) {
      switch (h.kind) {
        case ir::HeadOp::Kind::kSlot:
          out->push_back(f.Get(h.slot));
          break;
        case ir::HeadOp::Kind::kConst:
          out->push_back(h.constant);
          break;
        case ir::HeadOp::Kind::kEval: {
          Value v;
          if (!EvalTerm(rcode->rule->pool, h.term, f, store, &v)) {
            // Head term failed to evaluate: the row is dropped, exactly
            // like a false BuildHead.
            out->resize(base);
            return true;
          }
          out->push_back(v);
          break;
        }
      }
    }
    ++emitted;
    if (prov != nullptr) prov->push_back(*trail);
    return true;
  }
};

/// kPure instantiations are the ExecuteEmit fast mode, legal only for
/// plans compiled with pure_slots (and head_pure rules):
///  - scratch binds skip the frame's bound-flag writes and the per-row
///    clears (nothing calls EvalTerm/MatchTerm);
///  - per-level scan windows and goal-stats pointers hoist into the
///    constructor — ExecuteEmit buffers all inserts in `pending`, so
///    relation sizes and delta windows are frozen for the whole run.
/// ExecutePlan never instantiates kPure: driver callbacks may evaluate
/// terms and may insert into scanned relations mid-enumeration, so the
/// windows must be recomputed per scan like the interpreter does.
template <class Sink, bool kPure = false>
class Runner {
 public:
  Runner(const PlanCode& code, uint32_t delta, BindingFrame* frame,
         const ExecCtx& ctx, Value* keybuf,
         std::vector<ProvPremise>* trail, Sink* sink)
      : code_(code),
        ctx_(ctx),
        frame_(frame),
        keybuf_(keybuf),
        trail_(trail),
        sink_(sink),
        delta_(delta) {
    if constexpr (kPure) {
      for (size_t i = 0; i < code.levels.size(); ++i) {
        const PlanCode::Level& level = code.levels[i];
        if (level.kind != CompiledLiteral::Kind::kScan) continue;
        LevelRt& rt = rt_[i];
        const Window w = WindowOf(*level.scan, *level.rel, delta_);
        rt.begin = w.begin;
        rt.end = w.end;
        rt.gs = nullptr;
        if (level.track_goal && ctx.goal_stats != nullptr &&
            code.rule->rule_index < ctx.goal_stats->size() &&
            level.scan->goal_id <
                (*ctx.goal_stats)[code.rule->rule_index].size()) {
          rt.gs =
              &(*ctx.goal_stats)[code.rule->rule_index][level.scan->goal_id];
        }
      }
    }
  }

  bool Run() { return RunLevel(0); }

 private:
  bool RunLevel(size_t idx) {
    if (idx == code_.levels.size()) {
      ++ctx_.stats->solutions;
      return sink_->OnSolution(*frame_);
    }
    const PlanCode::Level& level = code_.levels[idx];
    switch (level.kind) {
      case CompiledLiteral::Kind::kCompare:
        return RunCompareLevel(level, idx);
      case CompiledLiteral::Kind::kNotExists:
        return RunNotExists(level, idx);
      case CompiledLiteral::Kind::kScan:
        return RunScan(level, idx);
    }
    return true;
  }

  /// Evaluates a compare/key operand micro-op. False only on kEval
  /// failure (the interpreter's EvalTerm-failed path).
  bool EvalOperand(const ir::KeyOp& op, Value* out) {
    switch (op.kind) {
      case ir::KeyOp::Kind::kSlot:
        *out = frame_->Get(op.slot);
        return true;
      case ir::KeyOp::Kind::kConst:
        *out = op.constant;
        return true;
      case ir::KeyOp::Kind::kEval:
        return EvalTerm(code_.rule->pool, op.term, *frame_, ctx_.store, out);
    }
    return false;
  }

  /// Semantic order with an inline fast path: two ints compare
  /// numerically (exactly ValueStore::Compare's kInt branch); everything
  /// else takes the store's full ordering.
  int Order(Value a, Value b) {
    if (a.is_int() && b.is_int()) {
      const int64_t x = a.AsInt();
      const int64_t y = b.AsInt();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return ctx_.store->Compare(a, b);
  }

  /// Exact PlanExecutor::RunCompare under the static binding state: the
  /// interpreter's runtime IsBound branch on an assignment is decided by
  /// the lowering (assign_bound), operands are pre-resolved micro-ops,
  /// and a failed comparison has nothing to unwind (general comparisons
  /// bind no slots), so the per-level mark/undo pair disappears.
  bool RunCompareLevel(const PlanCode::Level& level, size_t idx) {
    const CompiledCompare& cmp = *level.cmp;
    if (cmp.is_assignment) {
      Value v;
      if (!EvalOperand(level.cmp_value, &v)) {
        return true;  // comparison failed; siblings continue
      }
      if (level.assign_bound) {
        if (frame_->Get(cmp.assign_slot) != v) return true;
        return RunLevel(idx + 1);
      }
      BindRow(cmp.assign_slot, v);
      const bool r = RunLevel(idx + 1);
      if (!kPure) frame_->ClearScratch(cmp.assign_slot);
      return r;
    }
    Value a, b;
    if (!EvalOperand(level.cmp_lhs, &a) || !EvalOperand(level.cmp_rhs, &b)) {
      return true;
    }
    if (!CompareValues(cmp.op, a, b)) return true;
    return RunLevel(idx + 1);
  }

  bool CompareValues(ComparisonOp op, Value a, Value b) {
    switch (op) {
      case ComparisonOp::kEq:
        return a == b;
      case ComparisonOp::kNe:
        return a != b;
      case ComparisonOp::kLt:
        return Order(a, b) < 0;
      case ComparisonOp::kLe:
        return Order(a, b) <= 0;
      case ComparisonOp::kGt:
        return Order(a, b) > 0;
      case ComparisonOp::kGe:
        return Order(a, b) >= 0;
    }
    return false;
  }

  bool RunNotExists(const PlanCode::Level& level, size_t idx) {
    bool witness = false;
    const size_t mark = frame_->Mark();
    // The subplan refutes, it doesn't justify: run it with a detached
    // trail, full windows, and its own key buffer. A pure parent has a
    // pure subplan (purity is computed over subplans too).
    WitnessSink wsink{&witness};
    KeyBuffer keys(level.sub->key_buffer_size);
    Runner<WitnessSink, kPure> sub(*level.sub, CompiledScan::kNoOccurrence,
                                   frame_, ctx_, keys.data(), nullptr, &wsink);
    sub.Run();
    frame_->UndoTo(mark);
    if (witness) return true;  // negation fails; siblings continue
    return RunLevel(idx + 1);
  }

  bool RunScan(const PlanCode::Level& level, size_t idx) {
    const CompiledScan& scan = *level.scan;

    Window window;
    GoalStats* gs = nullptr;
    if constexpr (kPure) {
      // Hoisted in the constructor: relations are frozen for the whole
      // emit run, so the window and stats pointer are loop invariants.
      window.begin = rt_[idx].begin;
      window.end = rt_[idx].end;
      gs = rt_[idx].gs;
      if (gs != nullptr) ++gs->probes;
    } else {
      window = WindowOf(scan, *level.rel, delta_);
      if (level.track_goal && ctx_.goal_stats != nullptr &&
          code_.rule->rule_index < ctx_.goal_stats->size() &&
          scan.goal_id < (*ctx_.goal_stats)[code_.rule->rule_index].size()) {
        gs = &(*ctx_.goal_stats)[code_.rule->rule_index][scan.goal_id];
        ++gs->probes;
      }
    }
    uint64_t probe_matches = 0;
    // Rows and matches accumulate in locals and flush once per scan:
    // nothing reads the counters mid-scan (reports and EXPLAIN ANALYZE
    // read them between rule applications), so the flushed totals are
    // bit-identical to per-row increments.
    uint64_t rows_seen = 0;

    bool aborted = false;
    if (level.index != nullptr) {
      Value* key = keybuf_ + level.key_offset;
      bool key_ok = true;
      if (level.keys_all_slot) {
        size_t n = 0;
        for (const ir::KeyOp& k : level.keys) key[n++] = frame_->Get(k.slot);
      } else {
        size_t n = 0;
        for (const ir::KeyOp& k : level.keys) {
          switch (k.kind) {
            case ir::KeyOp::Kind::kSlot:
              key[n] = frame_->Get(k.slot);
              break;
            case ir::KeyOp::Kind::kConst:
              key[n] = k.constant;
              break;
            case ir::KeyOp::Kind::kEval:
              if (!EvalTerm(code_.rule->pool, k.term, *frame_, ctx_.store,
                            &key[n])) {
                key_ok = false;
              }
              break;
          }
          if (!key_ok) break;
          ++n;
        }
      }
      if (!key_ok) return !scan.negated ? true : RunLevel(idx + 1);
      // Index::HashKey, unrolled for the 1- and 2-column keys that
      // dominate join plans.
      const size_t nk = level.keys.size();
      uint64_t h = 0xabcdef0123456789ull ^ nk;
      if (nk == 1) {
        h = HashCombine(h, key[0].Hash());
      } else if (nk == 2) {
        h = HashCombine(HashCombine(h, key[0].Hash()), key[1].Hash());
      } else {
        h = Index::HashKey(TupleView(key, nk));
      }
      auto it = level.index->Probe(h);
      for (RowId row = it.Next(); row != kNoRow; row = it.Next()) {
        if (row < window.begin || row >= window.end) continue;
        ++rows_seen;
        if (TryRow(level, idx, row, gs, &probe_matches) == 1) {
          aborted = true;
          break;
        }
      }
    } else {
      for (RowId row = window.begin; row < window.end; ++row) {
        ++rows_seen;
        if (TryRow(level, idx, row, gs, &probe_matches) == 1) {
          aborted = true;
          break;
        }
      }
    }

    ctx_.stats->scan_rows += rows_seen;
    if (gs != nullptr) {
      gs->rows += rows_seen;
      gs->matches += probe_matches;
    }
    if (scan.negated) {
      if (aborted) return true;  // witness found: literal failed
      return RunLevel(idx + 1);
    }
    if (gs != nullptr && gs->fanout != nullptr) {
      gs->fanout->Record(probe_matches);
    }
    return !aborted;
  }

  /// Scratch-binds a row value; pure plans skip the bound flag (nothing
  /// reads it — see PlanCode::pure_slots).
  void BindRow(uint32_t slot, Value v) {
    if (kPure) {
      frame_->BindValueOnly(slot, v);
    } else {
      frame_->BindScratch(slot, v);
    }
  }

  /// Unbinds this level's kBind slots. Statically unbound at level
  /// entry, so clearing is correct on every exit path, even when a
  /// mismatch stopped the op loop before some of them ran. Pure plans
  /// never set the flags, so there is nothing to clear.
  void ClearBinds(const PlanCode::Level& level) {
    if (kPure) return;
    for (uint32_t s : level.bind_slots) frame_->ClearScratch(s);
  }

  /// Exact try_row of PlanExecutor::RunScan: -1 mismatch, 0 matched and
  /// continue, 1 aborted. kBind columns write scratch slots (cleared on
  /// exit via bind_slots); only kMatch columns bind through the trail,
  /// so the mark/undo pair exists only on levels that have one.
  int TryRow(const PlanCode::Level& level, size_t idx, RowId row,
             GoalStats* gs, uint64_t* probe_matches) {
    const size_t mark = level.has_match ? frame_->Mark() : 0;
    const TupleView tuple = level.rel->Row(row);
    if (!level.generic) {
      // Fused fast path: all compares, then all binds. Reordering is
      // unobservable here (no kMatch, no intra-row slot dependency), and
      // a mismatch exits before any bind, so it needs no cleanup at all.
      for (const PlanCode::Level::SlotCol& c : level.eq_slots) {
        if (frame_->Get(c.slot) != tuple[c.col]) return -1;
      }
      for (const PlanCode::Level::ConstCol& c : level.eq_consts) {
        if (c.constant != tuple[c.col]) return -1;
      }
      for (const PlanCode::Level::SlotCol& c : level.binds) {
        BindRow(c.slot, tuple[c.col]);
      }
    } else {
      bool ok = true;
      for (const ir::ColOp& c : level.cols) {
        switch (c.kind) {
          case ir::ColOp::Kind::kBind:
            // A level can be generic without kMatch (intra-row slot
            // dependency), so a pure plan can reach here: BindRow keeps
            // bind and clear symmetric either way.
            BindRow(c.slot, tuple[c.col]);
            break;
          case ir::ColOp::Kind::kCompareSlot:
            ok = frame_->Get(c.slot) == tuple[c.col];
            break;
          case ir::ColOp::Kind::kCompareConst:
            ok = c.constant == tuple[c.col];
            break;
          case ir::ColOp::Kind::kMatch:
            ok = MatchTerm(code_.rule->pool, c.term, tuple[c.col], frame_,
                           ctx_.store);
            break;
        }
        if (!ok) break;
      }
      if (!ok) {
        if (level.has_match) frame_->UndoTo(mark);
        ClearBinds(level);
        return -1;
      }
    }
    if (level.scan->negated) {
      if (level.has_match) frame_->UndoTo(mark);
      ClearBinds(level);
      return 1;  // a witness refutes the negation
    }
    if (gs != nullptr) ++*probe_matches;  // flushed to gs->matches per scan
    // Fused filters run after the match is counted (the standalone
    // compare level also ran after the scan had matched) and before the
    // premise push — a failing filter derives nothing, so the skipped
    // push/pop pair was unobservable.
    for (const PlanCode::Level::FusedCmp& f : level.filters) {
      Value a, b;
      const bool holds = EvalOperand(f.lhs, &a) && EvalOperand(f.rhs, &b) &&
                         CompareValues(f.op, a, b);
      if (!holds) {
        if (level.has_match) frame_->UndoTo(mark);
        ClearBinds(level);
        return -1;
      }
    }
    if (trail_ != nullptr) trail_->push_back({level.scan->pred, row});
    const bool keep_going = RunLevel(idx + 1);
    if (trail_ != nullptr) trail_->pop_back();
    if (level.has_match) frame_->UndoTo(mark);
    ClearBinds(level);
    return keep_going ? 0 : 1;
  }

  const PlanCode& code_;
  const ExecCtx& ctx_;
  BindingFrame* frame_;
  Value* keybuf_;
  std::vector<ProvPremise>* trail_;
  Sink* sink_;
  const uint32_t delta_;
  /// Per-level runtime state precomputed by the kPure constructor. Only
  /// kScan entries are written and read; the members are deliberately
  /// trivial so the array costs nothing to construct (not-exists
  /// subplans build a Runner per parent row).
  struct LevelRt {
    RowId begin;
    RowId end;
    GoalStats* gs;
  };
  struct NoLevelRt {};
  std::conditional_t<kPure, std::array<LevelRt, ir::kMaxPlanLiterals>, NoLevelRt>
      rt_;
};

std::unique_ptr<PlanCode> CompilePlanLevels(const ir::PlanIR& pir,
                                            const CompiledRule* rule,
                                            const Catalog& catalog) {
  auto code = std::make_unique<PlanCode>();
  code->rule = rule;
  uint32_t key_off = 0;
  code->levels.reserve(pir.levels.size());
  const auto op_pure = [](const ir::KeyOp& op) {
    return op.kind != ir::KeyOp::Kind::kEval;
  };
  bool pure = true;
  for (size_t li = 0; li < pir.levels.size(); ++li) {
    const ir::LevelIR& l = pir.levels[li];
    PlanCode::Level level;
    level.kind = l.kind;
    switch (l.kind) {
      case CompiledLiteral::Kind::kScan: {
        const CompiledScan& scan = *l.scan.scan;
        level.scan = &scan;
        const Relation& rel = catalog.relation(scan.pred);
        level.rel = &rel;
        if (scan.index_id >= 0) {
          level.index = &rel.index(static_cast<size_t>(scan.index_id));
          level.keys = l.scan.keys;
          level.key_offset = key_off;
          key_off += static_cast<uint32_t>(level.keys.size());
          level.keys_all_slot = std::all_of(
              level.keys.begin(), level.keys.end(), [](const ir::KeyOp& k) {
                return k.kind == ir::KeyOp::Kind::kSlot;
              });
        }
        level.track_goal =
            !scan.negated && scan.goal_id != CompiledScan::kNoGoal;
        level.cols = l.scan.cols;
        for (const ir::ColOp& c : level.cols) {
          switch (c.kind) {
            case ir::ColOp::Kind::kBind:
              level.bind_slots.push_back(c.slot);
              level.binds.push_back({c.col, c.slot});
              break;
            case ir::ColOp::Kind::kCompareSlot: {
              level.eq_slots.push_back({c.col, c.slot});
              // A compare against a slot this same row binds (repeated
              // variable, e.g. e(X, X)) is order-dependent: only the
              // ordered `cols` loop sees the fresh binding.
              const auto& bs = level.bind_slots;
              if (std::find(bs.begin(), bs.end(), c.slot) != bs.end()) {
                level.generic = true;
              }
              break;
            }
            case ir::ColOp::Kind::kCompareConst:
              level.eq_consts.push_back({c.col, c.constant});
              break;
            case ir::ColOp::Kind::kMatch:
              level.has_match = true;
              level.generic = true;
              pure = false;  // MatchTerm reads/writes bound flags
              break;
          }
        }
        if (!std::all_of(level.keys.begin(), level.keys.end(), op_pure)) {
          pure = false;  // kEval keys call EvalTerm
        }
        // Fuse trailing non-assignment compares into this scan's row
        // loop. A negated scan never recurses past its rows, so only
        // positive scans absorb filters.
        if (!scan.negated) {
          while (li + 1 < pir.levels.size()) {
            const ir::LevelIR& next = pir.levels[li + 1];
            if (next.kind != CompiledLiteral::Kind::kCompare ||
                next.cmp->is_assignment) {
              break;
            }
            level.filters.push_back({next.cmp->op, next.cmp_lhs, next.cmp_rhs});
            if (!op_pure(next.cmp_lhs) || !op_pure(next.cmp_rhs)) pure = false;
            ++li;
          }
        }
        break;
      }
      case CompiledLiteral::Kind::kCompare:
        level.cmp = l.cmp;
        level.assign_bound = l.assign_bound;
        level.cmp_lhs = l.cmp_lhs;
        level.cmp_rhs = l.cmp_rhs;
        level.cmp_value = l.cmp_value;
        if (l.cmp->is_assignment) {
          if (!op_pure(level.cmp_value)) pure = false;
        } else if (!op_pure(level.cmp_lhs) || !op_pure(level.cmp_rhs)) {
          pure = false;
        }
        break;
      case CompiledLiteral::Kind::kNotExists:
        level.sub = CompilePlanLevels(*l.sub, rule, catalog);
        if (!level.sub->pure_slots) pure = false;
        break;
    }
    code->levels.push_back(std::move(level));
  }
  code->key_buffer_size = key_off;
  code->pure_slots = pure;
  return code;
}

size_t PlanBytes(const PlanCode& code) {
  size_t n = sizeof(PlanCode) + code.levels.capacity() * sizeof(PlanCode::Level);
  for (const PlanCode::Level& l : code.levels) {
    n += l.keys.capacity() * sizeof(ir::KeyOp);
    n += l.cols.capacity() * sizeof(ir::ColOp);
    n += l.eq_slots.capacity() * sizeof(PlanCode::Level::SlotCol);
    n += l.eq_consts.capacity() * sizeof(PlanCode::Level::ConstCol);
    n += l.binds.capacity() * sizeof(PlanCode::Level::SlotCol);
    n += l.bind_slots.capacity() * sizeof(uint32_t);
    n += l.filters.capacity() * sizeof(PlanCode::Level::FusedCmp);
    if (l.sub) n += PlanBytes(*l.sub);
  }
  return n;
}

}  // namespace

ProgramCode Compile(const ir::ProgramIR& pir, const Catalog& catalog) {
  ProgramCode out;
  out.report = pir.report;
  for (const ir::RuleIR& r : pir.rules) {
    const bool head_pure =
        std::all_of(r.head_ops.begin(), r.head_ops.end(),
                    [](const ir::HeadOp& h) {
                      return h.kind != ir::HeadOp::Kind::kEval;
                    });
    out.rules.emplace(r.rule, RuleCode{r.rule, r.head_ops, head_pure});
    for (const ir::PlanIR& p : r.plans) {
      out.plans.emplace(p.source,
                        CompilePlanLevels(p, r.rule, catalog));
    }
  }
  return out;
}

size_t ProgramCode::MemoryBytes() const {
  size_t n = sizeof(ProgramCode);
  for (const auto& [key, plan] : plans) {
    n += sizeof(key) + sizeof(plan) + PlanBytes(*plan);
  }
  for (const auto& [key, rcode] : rules) {
    n += sizeof(key) + sizeof(rcode) +
         rcode.head_ops.capacity() * sizeof(ir::HeadOp);
  }
  return n;
}

bool ExecutePlan(const PlanCode& code, uint32_t delta_occurrence,
                 BindingFrame* frame, const ExecCtx& ctx,
                 const std::function<bool(BindingFrame&)>& on_solution) {
  CallbackSink sink{&on_solution};
  KeyBuffer keys(code.key_buffer_size);
  Runner<CallbackSink> r(code, delta_occurrence, frame, ctx, keys.data(),
                         ctx.trail, &sink);
  return r.Run();
}

void ExecuteEmit(const PlanCode& code, const RuleCode& rcode,
                 uint32_t delta_occurrence, BindingFrame* frame,
                 const ExecCtx& ctx, std::vector<Value>* pending,
                 std::vector<std::vector<ProvPremise>>* pending_prov,
                 size_t* emitted) {
  EmitSink sink{&rcode, ctx.store, pending, pending_prov, ctx.trail};
  KeyBuffer keys(code.key_buffer_size);
  if (code.pure_slots && rcode.head_pure) {
    Runner<EmitSink, /*kPure=*/true> r(code, delta_occurrence, frame, ctx,
                                       keys.data(), ctx.trail, &sink);
    r.Run();
  } else {
    Runner<EmitSink> r(code, delta_occurrence, frame, ctx, keys.data(),
                       ctx.trail, &sink);
    r.Run();
  }
  *emitted = sink.emitted;
}

}  // namespace vm
}  // namespace gdlog

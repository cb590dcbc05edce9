#include "eval/choice_runtime.h"

#include <algorithm>

#include "common/guardrails.h"
#include "common/logging.h"

namespace gdlog {

ChoiceRuntime::~ChoiceRuntime() {
  if (budget_ != nullptr) budget_->Update(&charged_, 0);
}

void ChoiceRuntime::set_memory_budget(MemoryBudget* budget) {
  if (budget_ != nullptr) budget_->Update(&charged_, 0);
  budget_ = budget;
  Recharge();
}

size_t ChoiceRuntime::ApproxBytes() const {
  size_t bytes = memos_.capacity() * sizeof(RuleMemo);
  for (const RuleMemo& m : memos_) {
    bytes += m.tables.capacity() * sizeof(GoalTable) +
             m.chosen.capacity() * sizeof(Value);
    for (const GoalTable& t : m.tables) bytes += t.fd.ApproxBytes();
  }
  return bytes;
}

void ChoiceRuntime::Recharge() {
  if (budget_ != nullptr) budget_->Update(&charged_, ApproxBytes());
}

namespace {

/// True when pool[t] holds arithmetic, the one term that can fail to
/// evaluate once its variables are bound.
bool HasArith(const std::vector<CTerm>& pool, uint32_t t) {
  const CTerm& ct = pool[t];
  return ct.kind == CTerm::Kind::kArith ||
         std::any_of(ct.args.begin(), ct.args.end(),
                     [&](uint32_t a) { return HasArith(pool, a); });
}

/// True when goal `spec` of `rule` can reject a firing whose queue keys
/// its classes by `class_key`. A component that can fail to evaluate
/// rejects; otherwise the goal cannot when its left side reads, as bare
/// components, the stage (fresh at every firing) or the whole class key
/// (a class fires at most once).
bool CanReject(const CompiledRule& rule, const ChoiceSpec& spec,
               std::span<const uint32_t> class_key) {
  for (const auto* ops : {&spec.left_ops, &spec.right_ops}) {
    for (const TermOp& op : *ops) {
      if (op.kind == TermOp::Kind::kTerm && HasArith(rule.pool, op.index)) {
        return true;
      }
    }
  }
  const auto reads = [&](uint32_t slot) {
    return std::any_of(spec.left_ops.begin(), spec.left_ops.end(),
                       [&](const TermOp& op) {
                         return op.kind == TermOp::Kind::kSlot &&
                                op.index == slot;
                       });
  };
  if (rule.is_next && reads(rule.stage_slot)) return false;
  return !std::all_of(class_key.begin(), class_key.end(), reads);
}

/// Reads one side's components into `out`.
bool ReadSide(const CompiledRule& rule, const std::vector<TermOp>& ops,
              const BindingFrame& frame, ValueStore* store, Value* out) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ReadOp(rule.pool, ops[i], frame, store, &out[i])) return false;
  }
  return true;
}

}  // namespace

int ChoiceRuntime::Register(const CompiledRule& rule,
                            std::span<const uint32_t> class_key) {
  GDLOG_CHECK_GE(rule.gamma_index, 0);
  if (memos_.size() <= static_cast<size_t>(rule.gamma_index)) {
    memos_.resize(rule.gamma_index + 1);
  }
  RuleMemo& memo = memos_[rule.gamma_index];
  memo.tables.clear();
  // Check order, a pure conjunction's cost only: the rule's own goals,
  // which do the rejecting, before next's.
  for (const bool from_next : {false, true}) {
    for (size_t g = 0; g < rule.choices.size(); ++g) {
      const ChoiceSpec& spec = rule.choices[g];
      if (spec.from_next != from_next || !CanReject(rule, spec, class_key)) {
        continue;
      }
      memo.tables.push_back(
          {static_cast<uint32_t>(g),
           FlatTable(static_cast<uint32_t>(spec.left_ops.size()),
                     static_cast<uint32_t>(spec.right_ops.size()))});
      left_.resize(std::max(left_.size(), spec.left_ops.size()));
      right_.resize(std::max(right_.size(), spec.right_ops.size()));
    }
  }
  memo.chosen_width = static_cast<uint32_t>(rule.chosen_slots.size());
  Recharge();
  return rule.gamma_index;
}

bool ChoiceRuntime::ReadPair(const CompiledRule& rule, const ChoiceSpec& spec,
                             const BindingFrame& frame) {
  return ReadSide(rule, spec.left_ops, frame, store_, left_.data()) &&
         ReadSide(rule, spec.right_ops, frame, store_, right_.data());
}

bool ChoiceRuntime::Satisfies(const CompiledRule& rule, const GoalTable& t,
                              const BindingFrame& frame) {
  const ChoiceSpec& spec = rule.choices[t.goal];
  if (!ReadPair(rule, spec, frame)) {
    // A choice pair that fails to evaluate (an arithmetic term that
    // overflowed, say) has no FD witness; treat the candidate as
    // inadmissible rather than aborting — the queue marks it redundant
    // and moves on.
    return false;
  }
  const uint32_t id = t.fd.Find({left_.data(), spec.left_ops.size()});
  if (id == FlatTable::kNotFound) return true;
  const std::span<const Value> chosen = t.fd.Values(id);
  return std::equal(chosen.begin(), chosen.end(), right_.begin());
}

bool ChoiceRuntime::Admissible(const CompiledRule& rule,
                               const BindingFrame& frame) {
  for (const GoalTable& t : memos_[rule.gamma_index].tables) {
    if (!Satisfies(rule, t, frame)) return false;
  }
  return true;
}

void ChoiceRuntime::Commit(const CompiledRule& rule,
                           const BindingFrame& frame) {
  RuleMemo& memo = memos_[rule.gamma_index];
  bool grew = false;
  for (GoalTable& t : memo.tables) {
    const ChoiceSpec& spec = rule.choices[t.goal];
    const bool ok = ReadPair(rule, spec, frame);
    GDLOG_CHECK(ok);
    const size_t before = t.fd.ApproxBytes();
    bool inserted = false;
    const uint32_t id =
        t.fd.Insert({left_.data(), spec.left_ops.size()}, &inserted);
    if (inserted) {
      std::copy_n(right_.begin(), spec.right_ops.size(),
                  t.fd.Values(id).begin());
    }
    grew |= t.fd.ApproxBytes() != before;
  }
  const size_t before = memo.chosen.capacity();
  for (uint32_t s : rule.chosen_slots) {
    GDLOG_CHECK(frame.IsBound(s));
    memo.chosen.push_back(frame.Get(s));
  }
  ++memo.num_chosen;
  grew |= memo.chosen.capacity() != before;
  if (grew) Recharge();
}

std::vector<std::vector<Value>> ChoiceRuntime::ChosenTuples(
    int gamma_index) const {
  GDLOG_CHECK_GE(gamma_index, 0);
  GDLOG_CHECK_LT(static_cast<size_t>(gamma_index), memos_.size());
  const RuleMemo& memo = memos_[gamma_index];
  std::vector<std::vector<Value>> out;
  out.reserve(memo.num_chosen);
  for (size_t i = 0; i < memo.num_chosen; ++i) {
    const auto row = memo.chosen.begin() +
                     static_cast<ptrdiff_t>(i * memo.chosen_width);
    out.emplace_back(row, row + memo.chosen_width);
  }
  return out;
}

}  // namespace gdlog

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
    bytes += m.goals.capacity() * sizeof(FlatTable) +
             m.chosen.capacity() * sizeof(Value);
    for (const FlatTable& t : m.goals) bytes += t.ApproxBytes();
  }
  return bytes;
}

void ChoiceRuntime::Recharge() {
  if (budget_ != nullptr) budget_->Update(&charged_, ApproxBytes());
}

int ChoiceRuntime::Register(const CompiledRule& rule) {
  GDLOG_CHECK_GE(rule.gamma_index, 0);
  if (memos_.size() <= static_cast<size_t>(rule.gamma_index)) {
    memos_.resize(rule.gamma_index + 1);
  }
  RuleMemo& memo = memos_[rule.gamma_index];
  memo.goals.clear();
  for (const ChoiceSpec& spec : rule.choices) {
    memo.goals.emplace_back(static_cast<uint32_t>(spec.left_ops.size()),
                            static_cast<uint32_t>(spec.right_ops.size()));
    left_.resize(std::max(left_.size(), spec.left_ops.size()));
    right_.resize(std::max(right_.size(), spec.right_ops.size()));
  }
  memo.chosen_width = static_cast<uint32_t>(rule.chosen_slots.size());
  Recharge();
  return rule.gamma_index;
}

namespace {

/// Reads one side's components into `out`.
bool ReadSide(const CompiledRule& rule, const std::vector<TermOp>& ops,
              const BindingFrame& frame, ValueStore* store, Value* out) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ReadOp(rule.pool, ops[i], frame, store, &out[i])) return false;
  }
  return true;
}

}  // namespace

bool ChoiceRuntime::ReadPair(const CompiledRule& rule, const ChoiceSpec& spec,
                             const BindingFrame& frame) {
  return ReadSide(rule, spec.left_ops, frame, store_, left_.data()) &&
         ReadSide(rule, spec.right_ops, frame, store_, right_.data());
}

bool ChoiceRuntime::Satisfies(const CompiledRule& rule, const FlatTable& fd,
                              size_t g, const BindingFrame& frame) {
  const ChoiceSpec& spec = rule.choices[g];
  if (!ReadPair(rule, spec, frame)) {
    // A choice pair that fails to evaluate (an arithmetic term that
    // overflowed, say) has no FD witness; treat the candidate as
    // inadmissible rather than aborting — the queue marks it redundant
    // and moves on.
    return false;
  }
  const uint32_t id = fd.Find({left_.data(), spec.left_ops.size()});
  if (id == FlatTable::kNotFound) return true;
  const std::span<const Value> chosen = fd.Values(id);
  return std::equal(chosen.begin(), chosen.end(), right_.begin());
}

bool ChoiceRuntime::Admissible(const CompiledRule& rule,
                               const BindingFrame& frame) {
  const RuleMemo& memo = memos_[rule.gamma_index];
  // A pure conjunction, so the order only sets its cost: the rule's own
  // goals, which do the rejecting, before the two next synthesizes.
  for (const bool from_next : {false, true}) {
    for (size_t g = 0; g < rule.choices.size(); ++g) {
      if (rule.choices[g].from_next == from_next &&
          !Satisfies(rule, memo.goals[g], g, frame)) {
        return false;
      }
    }
  }
  return true;
}

void ChoiceRuntime::Commit(const CompiledRule& rule,
                           const BindingFrame& frame) {
  RuleMemo& memo = memos_[rule.gamma_index];
  bool grew = false;
  for (size_t g = 0; g < rule.choices.size(); ++g) {
    const ChoiceSpec& spec = rule.choices[g];
    const bool ok = ReadPair(rule, spec, frame);
    GDLOG_CHECK(ok);
    FlatTable& fd = memo.goals[g];
    const size_t before = fd.ApproxBytes();
    bool inserted = false;
    const uint32_t id =
        fd.Insert({left_.data(), spec.left_ops.size()}, &inserted);
    if (inserted) {
      std::copy_n(right_.begin(), spec.right_ops.size(),
                  fd.Values(id).begin());
    }
    grew |= fd.ApproxBytes() != before;
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

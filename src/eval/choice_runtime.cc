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
    memo.goals.emplace_back(TermComponentCount(rule.pool, spec.left_term),
                            TermComponentCount(rule.pool, spec.right_term));
  }
  memo.chosen_width = static_cast<uint32_t>(rule.chosen_slots.size());
  Recharge();
  return rule.gamma_index;
}

bool ChoiceRuntime::EvalPair(const CompiledRule& rule, const ChoiceSpec& spec,
                             const BindingFrame& frame) {
  left_.clear();
  right_.clear();
  return EvalTermComponents(rule.pool, spec.left_term, frame, store_,
                            &left_) &&
         EvalTermComponents(rule.pool, spec.right_term, frame, store_,
                            &right_);
}

bool ChoiceRuntime::Admissible(const CompiledRule& rule,
                               const BindingFrame& frame) {
  RuleMemo& memo = memos_[rule.gamma_index];
  for (size_t g = 0; g < rule.choices.size(); ++g) {
    if (!EvalPair(rule, rule.choices[g], frame)) {
      // A choice pair that fails to evaluate (unbound variable, or an
      // arithmetic term that overflowed) has no FD witness; treat the
      // candidate as inadmissible rather than aborting — the queue marks
      // it redundant and moves on.
      return false;
    }
    const FlatTable& fd = memo.goals[g];
    const uint32_t id = fd.Find(left_);
    if (id == FlatTable::kNotFound) continue;
    const std::span<const Value> chosen = fd.Values(id);
    if (!std::equal(chosen.begin(), chosen.end(), right_.begin(),
                    right_.end())) {
      return false;
    }
  }
  return true;
}

void ChoiceRuntime::Commit(const CompiledRule& rule,
                           const BindingFrame& frame) {
  RuleMemo& memo = memos_[rule.gamma_index];
  bool grew = false;
  for (size_t g = 0; g < rule.choices.size(); ++g) {
    const bool ok = EvalPair(rule, rule.choices[g], frame);
    GDLOG_CHECK(ok);
    FlatTable& fd = memo.goals[g];
    const size_t before = fd.ApproxBytes();
    bool inserted = false;
    const uint32_t id = fd.Insert(left_, &inserted);
    if (inserted) {
      std::copy(right_.begin(), right_.end(), fd.Values(id).begin());
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

size_t ChoiceRuntime::TotalChosen() const {
  size_t n = 0;
  for (const RuleMemo& m : memos_) n += m.num_chosen;
  return n;
}

}  // namespace gdlog

// Binding frames: the variable environment threaded through rule
// execution. Rule variables are compiled to dense slots; a frame is a
// flat array of slots, a bound flag per slot, and a trail for
// backtracking.
//
// The plan order fixes which slots are bound at every goal, so compiled
// scans do not use the trail for plain variables: a scan flags the slots
// it binds once per invocation (MarkBound/ClearBound), stores each row's
// values straight into slot_data(), and compares already-bound slots
// without testing their flags. The trail (Bind/Mark/UndoTo) serves what
// is decided per row: functor and arithmetic columns matched through
// MatchTerm, assignments, and candidate snapshots restored by the
// fixpoint driver. The flags stay exact at every solution, so EvalTerm
// and EvalTermComponents can still test them.
#ifndef GDLOG_EVAL_BINDING_H_
#define GDLOG_EVAL_BINDING_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "value/value.h"

namespace gdlog {

class BindingFrame {
 public:
  explicit BindingFrame(uint32_t num_slots = 0) { Reset(num_slots); }

  /// Unbinds every slot and empties the trail; allocates only when
  /// `num_slots` exceeds every earlier size.
  void Reset(uint32_t num_slots) {
    slots_.assign(num_slots, Value());
    bound_.assign(num_slots, 0);
    trail_.clear();
  }

  bool IsBound(uint32_t slot) const { return bound_[slot] != 0; }
  Value Get(uint32_t slot) const { return slots_[slot]; }

  /// Binds an unbound slot and records it on the trail.
  void Bind(uint32_t slot, Value v) {
    GDLOG_CHECK(!bound_[slot]);
    slots_[slot] = v;
    bound_[slot] = 1;
    trail_.push_back(slot);
  }

  /// Flags `slot` bound without a trail entry. A compiled scan calls this
  /// for the slots it binds before walking its rows and ClearBound after,
  /// writing each row's value through slot_data() in between.
  void MarkBound(uint32_t slot) { bound_[slot] = 1; }
  void ClearBound(uint32_t slot) { bound_[slot] = 0; }
  Value* slot_data() { return slots_.data(); }

  /// Current trail depth; pass to UndoTo to unwind.
  size_t Mark() const { return trail_.size(); }

  /// Unbinds every slot bound after `mark`.
  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      bound_[trail_.back()] = 0;
      trail_.pop_back();
    }
  }

  size_t num_slots() const { return slots_.size(); }

 private:
  std::vector<Value> slots_;
  std::vector<uint8_t> bound_;
  std::vector<uint32_t> trail_;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_BINDING_H_

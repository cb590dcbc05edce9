// Binding frames: the variable environment threaded through rule
// execution. Rule variables are compiled to dense slot numbers; a frame
// is a flat array of slots plus a trail for backtracking.
#ifndef GDLOG_EVAL_BINDING_H_
#define GDLOG_EVAL_BINDING_H_

#include <cstdint>
#include <vector>

#include "value/value.h"

namespace gdlog {

class BindingFrame {
 public:
  explicit BindingFrame(uint32_t num_slots = 0) { Reset(num_slots); }

  void Reset(uint32_t num_slots) {
    slots_.assign(num_slots, Value());
    bound_.assign(num_slots, false);
    trail_.clear();
  }

  bool IsBound(uint32_t slot) const { return bound_[slot]; }
  Value Get(uint32_t slot) const { return slots_[slot]; }

  /// Binds an unbound slot and records it on the trail.
  void Bind(uint32_t slot, Value v) {
    GDLOG_CHECK(!bound_[slot]);
    slots_[slot] = v;
    bound_[slot] = true;
    trail_.push_back(slot);
  }

  /// Current trail depth; pass to UndoTo to unwind.
  size_t Mark() const { return trail_.size(); }

  /// Unbinds every slot bound after `mark`.
  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      bound_[trail_.back()] = false;
      trail_.pop_back();
    }
  }

  size_t num_slots() const { return slots_.size(); }

 private:
  std::vector<Value> slots_;
  std::vector<bool> bound_;
  std::vector<uint32_t> trail_;
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_BINDING_H_

#include "eval/rql.h"

#include <algorithm>

#include "common/guardrails.h"
#include "common/hash.h"
#include "common/logging.h"

namespace gdlog {

CandidateQueue::CandidateQueue(const ValueStore* store, Order order,
                               bool merge, uint64_t tie_seed,
                               bool linear_scan)
    : store_(store),
      order_(order),
      merge_(merge),
      tie_seed_(tie_seed),
      linear_scan_(linear_scan) {}

CandidateQueue::~CandidateQueue() {
  if (budget_ != nullptr) budget_->Update(&charged_, 0);
}

void CandidateQueue::set_memory_budget(MemoryBudget* budget) {
  if (budget_ != nullptr) budget_->Update(&charged_, 0);
  budget_ = budget;
  Recharge();
}

size_t CandidateQueue::ApproxBytes() const {
  return (heap_.capacity() + run_.capacity()) * sizeof(HeapEntry) +
         class_index_.ApproxBytes() +
         classes_.capacity() * sizeof(ClassState) +
         slab_.capacity() * sizeof(Value) +
         free_slots_.capacity() * sizeof(uint32_t) +
         premises_.capacity() * sizeof(std::vector<ProvPremise>) +
         premise_bytes_;
}

void CandidateQueue::Recharge() {
  if (budget_ == nullptr) return;
  const size_t bytes = ApproxBytes();
  if (bytes != charged_) budget_->Update(&charged_, bytes);
}

void CandidateQueue::Push(Value cost, std::span<const Value> key,
                          std::span<const Value> snapshot,
                          std::span<const ProvPremise> premises) {
  ++stats_.inserted;
  if (!shaped_) {
    class_index_ = FlatTable(static_cast<uint32_t>(key.size()));
    snapshot_width_ = static_cast<uint32_t>(snapshot.size());
    shaped_ = true;
  }
  GDLOG_CHECK_EQ(key.size(), class_index_.key_width());
  GDLOG_CHECK_EQ(snapshot.size(), snapshot_width_);
  bool fresh = false;
  const uint32_t cls = class_index_.Insert(key, &fresh);
  if (!fresh && classes_[cls].fired) {
    ++stats_.merged;
    return;  // L-hit at insertion: straight to R (paper's insertion rule)
  }
  const uint64_t seq = next_seq_++;
  if (fresh) {
    classes_.push_back(ClassState{cost, seq, /*queued=*/1, /*fired=*/0});
    ++live_count_;
  } else {
    // Full mode: the key is the whole candidate — an exact duplicate.
    // Merge mode: keep the better of the congruent pair in Q; a better
    // newcomer supersedes (the old heap entry goes stale).
    ++stats_.merged;
    ClassState& c = classes_[cls];
    const int cmp = merge_ ? CompareCost(cost, c.cost) : 0;
    const bool new_better = order_ == Order::kMin ? cmp < 0 : cmp > 0;
    if (!new_better) return;
    c.cost = cost;
    c.seq = seq;
    if (!c.queued) {
      c.queued = 1;
      ++live_count_;
    }
  }

  const uint32_t slot = AcquireSlot();
  std::copy(snapshot.begin(), snapshot.end(),
            slab_.begin() + static_cast<ptrdiff_t>(slot) * snapshot_width_);
  if (!premises.empty() || slot < premises_.size()) {
    if (slot >= premises_.size()) premises_.resize(slot + 1);
    std::vector<ProvPremise>& p = premises_[slot];
    const size_t before = p.capacity();
    p.assign(premises.begin(), premises.end());
    premise_bytes_ += (p.capacity() - before) * sizeof(ProvPremise);
  }
  heap_.push_back(HeapEntry{cost, Tie(seq), cls, slot});
  if (!linear_scan_) ++pending_;  // placed at the next Pop
  stats_.max_queue = std::max(stats_.max_queue, live_count_);
  Recharge();
  if (tracer_ != nullptr) TraceOp(".push");
}

uint32_t CandidateQueue::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<uint32_t>(num_slots_++);
  slab_.resize(num_slots_ * snapshot_width_);
  // Every slot can be free at once; size the free list with the slab so
  // releasing a slot at pop never allocates.
  if (free_slots_.capacity() < num_slots_) {
    free_slots_.reserve(std::max<size_t>(16, 2 * num_slots_));
  }
  return slot;
}

void CandidateQueue::SiftUp(size_t i) {
  const HeapEntry moving = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!After(heap_[parent], moving)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = moving;
}

void CandidateQueue::SiftDown(size_t i) {
  const HeapEntry moving = heap_[i];
  const size_t n = heap_.size();
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t last = std::min(first + kArity, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (After(heap_[best], heap_[c])) best = c;
    }
    if (!After(moving, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

void CandidateQueue::RemoveTop() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void CandidateQueue::PlacePending() {
  const size_t sifted = heap_.size() - pending_;
  pending_ = 0;
  if (sifted == 0 && run_pos_ == run_.size() &&
      heap_.size() >= kRunMin) {
    // The run takes over the heap's storage (and the heap the drained
    // run's), so no second |Q|-sized array is ever allocated.
    std::sort(heap_.begin(), heap_.end(),
              [this](const HeapEntry& a, const HeapEntry& b) {
                return After(b, a);
              });
    run_.swap(heap_);
    run_pos_ = 0;
    heap_.clear();
    return;
  }
  for (size_t i = sifted; i < heap_.size(); ++i) SiftUp(i);
}

Candidate CandidateQueue::Take(const HeapEntry& e) {
  classes_[e.cls].queued = 0;
  --live_count_;
  free_slots_.push_back(e.slot);
  if (tracer_ != nullptr) TraceOp(".pop");
  Candidate c;
  c.cost = e.cost;
  c.seq = classes_[e.cls].seq;  // e is its class's authoritative entry
  c.cls = e.cls;
  c.snapshot = std::span<const Value>(
      slab_.data() + static_cast<size_t>(e.slot) * snapshot_width_,
      snapshot_width_);
  if (e.slot < premises_.size()) c.premises = premises_[e.slot];
  return c;
}

std::optional<Candidate> CandidateQueue::Pop() {
  if (linear_scan_) return PopLinear();
  if (pending_ > 0) PlacePending();
  for (;;) {
    const bool in_run = run_pos_ < run_.size();
    if (!in_run && heap_.empty()) return std::nullopt;
    // The earlier of the two sides; a dead entry is skimmed into R only
    // when it orders before every live one, as in a heap alone.
    const bool from_run =
        in_run && (heap_.empty() || !After(run_[run_pos_], heap_[0]));
    HeapEntry e;
    if (from_run) {
      e = run_[run_pos_++];
    } else {
      e = heap_[0];
      RemoveTop();
    }
    if (!Live(e)) {
      ++stats_.redundant;
      if (tracer_ != nullptr) TraceOp(".lazy_delete");
      free_slots_.push_back(e.slot);
      continue;
    }
    // The next pop reads the next entry's class state and the caller
    // then reads its snapshot: start both loads while this candidate is
    // being checked.
    const HeapEntry* next = run_pos_ < run_.size() ? &run_[run_pos_]
                            : !heap_.empty()      ? &heap_[0]
                                                  : nullptr;
    if (next != nullptr) {
      __builtin_prefetch(&classes_[next->cls]);
      __builtin_prefetch(slab_.data() +
                         static_cast<size_t>(next->slot) * snapshot_width_);
    }
    return Take(e);
  }
}

std::optional<Candidate> CandidateQueue::PopLinear() {
  size_t best = heap_.size();
  for (size_t i = 0; i < heap_.size(); ++i) {
    if (!Live(heap_[i])) continue;
    if (best == heap_.size() || After(heap_[best], heap_[i])) best = i;
  }
  if (best == heap_.size()) {
    // Everything left is dead.
    stats_.redundant += heap_.size();
    for (const HeapEntry& e : heap_) free_slots_.push_back(e.slot);
    heap_.clear();
    return std::nullopt;
  }
  const HeapEntry e = heap_[best];
  heap_[best] = heap_.back();
  heap_.pop_back();
  return Take(e);
}

size_t CandidateQueue::CountLiveEqualCost(const Value& cost) const {
  const auto live_equal = [&](const HeapEntry& e) {
    return Live(e) && CompareCost(e.cost, cost) == 0;
  };
  size_t n = 0;
  const auto run_begin = run_.begin() + static_cast<ptrdiff_t>(run_pos_);
  if (linear_scan_ || order_ == Order::kFifo) {
    // FIFO order is by seq, not cost, so there is nothing to prune; the
    // linear ablation has no order at all.
    n += std::count_if(heap_.begin(), heap_.end(), live_equal);
    return n + std::count_if(run_begin, run_.end(), live_equal);
  }
  // The run is in cost order: its equal-cost entries are one range.
  const auto better = [&](const HeapEntry& e) {
    const int c = CompareCost(e.cost, cost);
    return order_ == Order::kMin ? c < 0 : c > 0;
  };
  for (auto it = std::partition_point(run_begin, run_.end(), better);
       it != run_.end() && CompareCost(it->cost, cost) == 0; ++it) {
    if (Live(*it)) ++n;
  }
  // Pending entries are not heap-ordered yet.
  const size_t sifted = heap_.size() - pending_;
  n += std::count_if(heap_.begin() + static_cast<ptrdiff_t>(sifted),
                     heap_.end(), live_equal);
  // The heap: walk from the root, pruning any subtree whose root is
  // already strictly worse than `cost` (its descendants are worse still).
  // Stale entries may be better than `cost`, so "better" roots are
  // traversed without being counted.
  if (sifted == 0) return n;
  std::vector<size_t> stack{0};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    if (i >= sifted) continue;
    const int c = CompareCost(heap_[i].cost, cost);
    const bool worse = order_ == Order::kMin ? c > 0 : c < 0;
    if (worse) continue;
    if (c == 0 && Live(heap_[i])) ++n;
    for (size_t k = 1; k <= kArity; ++k) stack.push_back(kArity * i + k);
  }
  return n;
}

void CandidateQueue::MarkFired(const Candidate& c) {
  classes_[c.cls].fired = 1;
  ++stats_.fired;
}

void CandidateQueue::MarkRedundant(const Candidate& c) {
  ++stats_.redundant;
  // Merge mode: the FD that rejected this candidate is keyed by the
  // congruence key, so the whole class is dead — block future congruent
  // insertions. Full mode: the class stays as a seen-set entry, so exact
  // re-derivations keep being dropped at insertion.
  if (merge_) classes_[c.cls].fired = 1;
}

}  // namespace gdlog

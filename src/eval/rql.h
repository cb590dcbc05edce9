// The D_r = (R_r, Q_r, L_r) structure of Section 6.
//
// One CandidateQueue backs each gamma rule r:
//
//   Q_r — the priority queue of candidate rule instances, keyed by the
//         extremum cost (least: min-heap, most: max-heap; rules without
//         an extremum degrade Q_r to FIFO retrieval, the paper's
//         "retrieve any");
//   L_r — the congruence keys of instances that fired;
//   R_r — redundant instances: merged away at insertion (a congruent,
//         no-better candidate), superseded in place, or discarded at pop
//         (stale, L-hit, FD-violating, failed post conditions).
//
// Congruence: in merge mode (CompiledRule::merge_by_choice_keys, enabled
// only when provably semantics-preserving) the key is the tuple of choice
// FD keys — the paper's r-congruence — and insertion keeps the best
// candidate per class, exactly the paper's insertion operation. In full
// mode the key is the whole candidate (pure duplicate elimination) and
// competition is resolved lazily at pop.
//
// Layout: flat, and nothing is interned. A FlatTable keyed by the key's
// components maps each congruence class to a dense id; per-class state
// (authoritative seq and cost, queued and L flags; 16 bytes) sits in one
// array. Q holds 24-byte POD entries {cost, tie, class, slot} in two
// sorted structures: a 4-ary heap, and a run — an array sorted in pop
// order and read through a cursor. Both use lazy deletion: a superseded
// entry stays where it is and is skipped when it surfaces (its tie no
// longer matches its class's seq). Push appends to the heap array
// without sifting; the next Pop places the pending entries. A batch of
// at least kRunMin pending entries, pushed onto an empty heap after the
// last run drained, is sorted into the next run (matching, sort and
// activity selection put every candidate in Q before the first
// retrieval); any other batch is sifted into the heap. Pop takes the
// earlier of the run's cursor and the heap's top, skimming a dead entry
// only from the earlier side. Both sides order by cost, then Tie(seq), a
// total order, so the pops and the skims are those of the heap alone.
// Snapshots have a fixed width per queue and live in a slab whose slots
// are recycled after pop.
//
// Complexity: insertion is O(1) plus O(1) hash work. Placing a batch of
// k entries costs O(k log k) as a run or O(k log |Q|) as sifts, and a
// pop costs O(log |Q|) from the heap or O(1) from the run — within the
// bound Section 6 assumes. Nothing allocates except when the heap (or
// the run, whose storage it trades with the heap), the slab, or the
// class table grows (amortized O(1)).
#ifndef GDLOG_EVAL_RQL_H_
#define GDLOG_EVAL_RQL_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"
#include "eval/flat_table.h"
#include "obs/trace.h"
#include "storage/relation.h"
#include "value/value.h"

namespace gdlog {

class MemoryBudget;

/// A popped candidate. The spans view queue storage and stay valid until
/// the next Push.
struct Candidate {
  Value cost;        // extremum key (Int(0) for FIFO rules)
  uint64_t seq = 0;  // insertion number, the tie-break input
  uint32_t cls = 0;  // congruence class, for MarkFired / MarkRedundant
  std::span<const Value> snapshot;  // generator-bound slot values
  // Generator premises (provenance mode only; empty otherwise). Carried
  // through supersede/pop so a firing can annotate its head row.
  std::span<const ProvPremise> premises;
};

struct CandidateQueueStats {
  uint64_t inserted = 0;    // calls to Push
  uint64_t merged = 0;      // insertion-time R moves (congruence merge)
  uint64_t redundant = 0;   // pop-time R moves (stale/L-hit), plus
                            // discards recorded via MarkRedundant
  uint64_t fired = 0;       // moves into L
  // High-water mark of |Q| counting *live* candidates — one per
  // congruence class in merge mode, matching the paper's bound (e.g. at
  // most n for Prim). Superseded entries pending lazy removal from the
  // physical heap are excluded.
  size_t max_queue = 0;
};

class CandidateQueue {
 public:
  enum class Order : uint8_t { kMin, kMax, kFifo };
  /// The fewest pending entries Pop sorts into a run instead of sifting
  /// them into the heap.
  static constexpr size_t kRunMin = 256;

  /// `merge` selects congruence-merge insertion; `tie_seed` perturbs
  /// equal-cost (and FIFO) ordering to explore different stable models
  /// (0 = plain insertion order). `linear_scan` disables the heap and
  /// finds the best candidate by an O(|Q|) scan per retrieval — the
  /// naive baseline the Section 6 structure is benchmarked against.
  CandidateQueue(const ValueStore* store, Order order, bool merge,
                 uint64_t tie_seed = 0, bool linear_scan = false);
  /// Releases the MemoryBudget charge, if any.
  ~CandidateQueue();
  CandidateQueue(const CandidateQueue&) = delete;
  CandidateQueue& operator=(const CandidateQueue&) = delete;

  /// Inserts a candidate whose congruence key has the components `key`.
  /// In merge mode a congruent entry in L sends the candidate to R; a
  /// congruent better entry in Q sends it to R; a congruent worse entry
  /// is superseded. In full mode exact duplicates (same key) are dropped.
  /// A push that passes the L check consumes a seq (the tie-break input)
  /// even when it is then merged away. The first push fixes the key and
  /// snapshot widths; later pushes must match them.
  void Push(Value cost, std::span<const Value> key,
            std::span<const Value> snapshot,
            std::span<const ProvPremise> premises = {});
  /// A single-value congruence key (e.g. an interned tuple).
  void Push(Value cost, Value key, std::span<const Value> snapshot,
            std::span<const ProvPremise> premises = {}) {
    Push(cost, std::span<const Value>(&key, 1), snapshot, premises);
  }

  /// Pops the best live candidate (skipping stale/L-hit entries into R).
  /// Returns nullopt when the queue is drained.
  std::optional<Candidate> Pop();

  /// Moves a popped candidate's class into L (it fired).
  void MarkFired(const Candidate& c);

  /// Records that a popped candidate was discarded (FD violation or
  /// failed post conditions) — the paper's move into R_r.
  void MarkRedundant(const Candidate& c);

  /// Live (non-stale, non-fired) candidates currently in Q — the
  /// candidate-set size the choice audit reports.
  size_t LiveSize() const { return live_count_; }
  /// Live candidates whose cost compares equal to `cost` — the audit's
  /// tie count. O(|Q|) worst case, but heap order prunes subtrees and
  /// run order bounds the range that can hold equal-cost entries;
  /// called only in audit mode.
  size_t CountLiveEqualCost(const Value& cost) const;
  const CandidateQueueStats& stats() const { return stats_; }

  /// Charges the heap, slab and class table to `budget` (which must
  /// outlive the queue), now and whenever one of them grows.
  void set_memory_budget(MemoryBudget* budget);
  /// Bytes held by the queue's storage (capacities).
  size_t ApproxBytes() const;

  /// Attaches a tracer for sampled push/pop/lazy-delete instant events;
  /// `tag` prefixes event names (e.g. "q0" -> "q0.push"). Null detaches.
  void set_tracer(Tracer* tracer, std::string tag) {
    tracer_ = tracer;
    trace_tag_ = std::move(tag);
  }

 private:
  struct HeapEntry {
    Value cost;
    uint64_t tie;  // Tie(seq): a bijection, so it also identifies seq
    uint32_t cls;
    uint32_t slot;  // snapshot slab slot
  };
  struct ClassState {
    Value cost;              // the authoritative entry's cost
    uint64_t seq : 62;       // the authoritative entry; others are stale
    uint64_t queued : 1;     // the authoritative entry is still in Q
    uint64_t fired : 1;      // in L (or FD-dead, in merge mode)
  };
  // Children of heap slot i are kArity * i + 1 .. kArity * i + kArity:
  // half the depth of a binary heap, and a sibling group is 96
  // contiguous bytes.
  static constexpr size_t kArity = 4;

  /// The tie-break key of insertion number `seq` — Mix64 is a bijection,
  /// so distinct seqs never tie.
  uint64_t Tie(uint64_t seq) const {
    return tie_seed_ ? Mix64(seq ^ tie_seed_) : seq;
  }

  /// Three-way semantic cost order, inline for ints.
  int CompareCost(Value a, Value b) const {
    if (a == b) return 0;
    if (a.is_int() && b.is_int()) {
      return static_cast<int64_t>(a.bits()) < static_cast<int64_t>(b.bits())
                 ? -1
                 : 1;
    }
    return store_->Compare(a, b);
  }
  /// True when a comes after b in pop order.
  bool After(const HeapEntry& a, const HeapEntry& b) const {
    if (order_ != Order::kFifo) {
      const int c = CompareCost(a.cost, b.cost);
      if (c != 0) return order_ == Order::kMin ? c > 0 : c < 0;
    }
    return a.tie > b.tie;
  }
  bool Live(const HeapEntry& e) const {
    const ClassState& c = classes_[e.cls];
    return !c.fired && Tie(c.seq) == e.tie;
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  /// Removes heap_[0], restoring heap order.
  void RemoveTop();
  /// Sorts the pending entries into a new run when they qualify (see
  /// the file comment), else sifts them into the heap.
  void PlacePending();
  std::optional<Candidate> PopLinear();
  /// Hands out a popped entry: frees its slot and class queue position.
  Candidate Take(const HeapEntry& e);
  uint32_t AcquireSlot();
  /// Re-charges the budget when a capacity changed.
  void Recharge();

  const ValueStore* store_;
  Order order_;
  bool merge_;
  uint64_t tie_seed_;
  bool linear_scan_;
  bool shaped_ = false;  // widths fixed by the first push
  uint32_t snapshot_width_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;  // authoritative (non-stale, non-fired) entries

  // A kArity-ary heap over [0, size - pending_); the pending_ entries
  // after it were pushed since the last pop and are not yet placed.
  std::vector<HeapEntry> heap_;
  size_t pending_ = 0;
  // The run: entries in pop order; [run_pos_, size) are still in Q.
  std::vector<HeapEntry> run_;
  size_t run_pos_ = 0;
  FlatTable class_index_;        // congruence key -> class id
  std::vector<ClassState> classes_;  // by class id
  // Snapshot slab: slot s holds snapshot_width_ values at s * width.
  std::vector<Value> slab_;
  size_t num_slots_ = 0;
  std::vector<uint32_t> free_slots_;
  // Premises by slot (provenance mode only; empty otherwise).
  std::vector<std::vector<ProvPremise>> premises_;
  size_t premise_bytes_ = 0;  // capacity held by premises_' elements

  CandidateQueueStats stats_;
  MemoryBudget* budget_ = nullptr;
  size_t charged_ = 0;
  Tracer* tracer_ = nullptr;
  std::string trace_tag_;

  void TraceOp(const char* op) {
    if (tracer_ != nullptr && tracer_->Sample()) {
      tracer_->Instant(
          trace_tag_ + op, "queue",
          {{"live", static_cast<int64_t>(live_count_)},
           {"heap", static_cast<int64_t>(heap_.size())},
           {"run", static_cast<int64_t>(run_.size() - run_pos_)}});
    }
  }
};

}  // namespace gdlog

#endif  // GDLOG_EVAL_RQL_H_

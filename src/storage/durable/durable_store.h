// DurableStore: the crash-safe log of the EDB.
//
// Durability covers the extensional database — relation creations and
// asserted facts (AddFact / Retract). The fixpoint is NOT persisted: on
// reopen the engine replays the recovered EDB and re-derives it, which
// the engine's deterministic evaluation makes bit-identical to the
// uninterrupted run (the chaos test in tests/durability_test.cc holds it
// to that).
//
// The store holds no rows. The engine's catalog is the one copy of the
// EDB: Open() replays the snapshot and the WAL tail straight into it,
// the Log* calls only append, and Checkpoint() encodes the EDB rows the
// caller names (each relation's first `edb_rows[id]` rows) from it.
//
// On-disk layout of a database directory:
//
//   MANIFEST            "GDMANIFEST1 snapshot=<S> wal=<W> crc=<hex>\n"
//   snapshot-<S>.gds    full EDB image: "GDSNAP1\n" u64 S, body, u32 crc
//   wal-<W>.log         mutations since snapshot S (see wal.h)
//
// The manifest names exactly one (snapshot, wal) pair and is replaced
// atomically (write MANIFEST.tmp, fsync, rename, fsync dir), so a crash
// at any instant leaves either the old pair or the new pair in force —
// never a mix. Checkpoint() writes snapshot S+1 from the catalog, starts
// wal W+1, swaps the manifest, then deletes the old pair; stale files
// from a crash between swap and delete are swept on Open.
//
// Recovery (redo-only): read the manifest, load the snapshot it names,
// replay the WAL tail stopping at the first torn record, truncate the
// tail, and reopen the WAL for appending. Every mutation is logged
// before the caller applies it to the catalog (write-ahead), so a crash
// loses at most the mutation whose append never completed. The caller
// runs the auto-checkpoint cadence (MaybeCheckpoint) only after it has
// applied the mutation: a checkpoint taken between the append and the
// apply would rotate away the WAL holding the record while its snapshot
// lacks the row. Checkpoint image buffers are charged to the
// MemoryBudget while they live; the rows are charged once, by the
// catalog.
#ifndef GDLOG_STORAGE_DURABLE_DURABLE_STORE_H_
#define GDLOG_STORAGE_DURABLE_DURABLE_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/durable/wal.h"
#include "storage/tuple.h"
#include "value/value.h"

namespace gdlog {

class Catalog;
class FaultInjector;
class MemoryBudget;

class DurableStore {
 public:
  struct Options {
    std::string dir;  // database directory (created if absent)
    FsyncPolicy fsync = FsyncPolicy::kBatch;
    uint64_t wal_batch_bytes = 1 << 20;   // sync cadence under kBatch
    uint64_t checkpoint_every = 0;        // auto-checkpoint after N appends
                                          // (0 = only explicit Checkpoint())
    FaultInjector* injector = nullptr;    // durability probes (may be null)
    MemoryBudget* budget = nullptr;       // checkpoint image charges
  };

  /// What Open() found on disk, for the RunReport and recovery tests.
  struct RecoveryInfo {
    bool opened_existing = false;  // a manifest was present
    uint64_t snapshot_seq = 0;     // 0 = no snapshot yet
    uint64_t wal_seq = 0;
    uint64_t snapshot_relations = 0;
    uint64_t snapshot_facts = 0;
    uint64_t wal_records_replayed = 0;
    uint64_t wal_valid_bytes = 0;    // recovered-up-to offset in the WAL
    uint64_t wal_dropped_bytes = 0;  // torn tail discarded
    bool wal_tail_dropped = false;
  };

  /// Counters for metrics / the RunReport durability section.
  struct Stats {
    uint64_t wal_appends = 0;
    uint64_t wal_fsyncs = 0;
    uint64_t wal_bytes_appended = 0;
    uint64_t wal_size_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t checkpoint_bytes = 0;  // last snapshot image size
    uint64_t checkpoint_facts = 0;  // rows in the last snapshot image
    uint64_t checkpoint_failures = 0;  // auto-checkpoints that failed
  };

  DurableStore() = default;
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Creates/opens the database directory, replays any on-disk state
  /// into `catalog` (a create record ensures its relation, an add
  /// inserts its row, annotated as asserted when provenance is on, and
  /// a retract removes it; values are interned into `store`, which must
  /// outlive this object), truncates a torn WAL tail, and opens the WAL
  /// for appending. Fails with [GD211]/[GD212] on real corruption (a
  /// torn tail is not corruption) and [GD210] on I/O errors; it may
  /// throw std::bad_alloc from the catalog's or the store's budget.
  Status Open(const Options& options, ValueStore* store, Catalog* catalog);

  bool open() const { return open_; }
  const std::string& dir() const { return options_.dir; }
  FsyncPolicy fsync_policy() const { return options_.fsync; }

  // -- Write-ahead mutations ----------------------------------------------
  // Each appends one record and nothing else; the caller applies the
  // mutation to its catalog after a successful append, then calls
  // MaybeCheckpoint. All return [GD210] on append failure (the failed
  // record is at worst a torn tail for the next recovery to drop), and
  // the latched status once a checkpoint died after its manifest swap.

  Status LogCreateRelation(std::string_view name, uint32_t arity);
  Status LogAddFact(std::string_view name, uint32_t arity, TupleView tuple);
  Status LogRetract(std::string_view name, uint32_t arity, TupleView tuple);

  /// The auto-checkpoint cadence: checkpoints `catalog`'s EDB rows once
  /// `checkpoint_every` appends have been made since the last checkpoint
  /// (OK without doing anything otherwise). Call it after applying the
  /// mutation just logged. A failure is counted in
  /// Stats::checkpoint_failures and returned, and the next call retries;
  /// the mutation it follows is durable all the same, so the caller must
  /// not fail it — a retry would pass its dedup probe and log the fact a
  /// second time, breaking the no-duplicate-adds invariant
  /// retract-by-first-match replay relies on.
  Status MaybeCheckpoint(const Catalog& catalog,
                         std::span<const size_t> edb_rows);

  /// Forces outstanding WAL appends to disk (policy permitting).
  Status Sync();

  /// Writes a snapshot of the EDB — the first edb_rows[id] rows of each
  /// relation `id` of `catalog` that has any, in id order — rotates to a
  /// fresh WAL, and swaps the manifest atomically. On failure before the
  /// manifest rename the previous (snapshot, wal) pair remains in force
  /// and appends continue safely; a failure after the rename means the
  /// on-disk manifest may already name the new pair, so the store
  /// latches — appending to the retired WAL would lose those records on
  /// reopen — and every further mutation fails until reopened.
  Status Checkpoint(const Catalog& catalog, std::span<const size_t> edb_rows);

  /// Sync and close the WAL. Open() may be called again afterwards.
  Status Close();

  // -- Recovered state ------------------------------------------------------
  const RecoveryInfo& recovery() const { return recovery_; }
  Stats stats() const;
  uint64_t wal_seq() const { return wal_seq_; }
  uint64_t snapshot_seq() const { return snapshot_seq_; }

 private:
  Status Append(WalRecordType type, std::string_view name, uint32_t arity,
                TupleView tuple);
  /// Refuses every further mutation with a [GD210] wrapping `why`.
  void Latch(const Status& why);
  /// `renamed`, when non-null, is set once MANIFEST has been renamed
  /// into place — the point after which a failure can no longer be
  /// retried safely.
  Status WriteManifest(uint64_t snapshot_seq, uint64_t wal_seq,
                       bool* renamed = nullptr);
  Status LoadSnapshot(const std::string& path, uint64_t expected_seq,
                      Catalog* catalog);
  std::string WalPath(uint64_t seq) const;
  std::string SnapshotPath(uint64_t seq) const;
  void SweepStaleFiles();

  Options options_;
  ValueStore* store_ = nullptr;
  bool open_ = false;
  Status failed_;  // latched: mutations refused until reopen

  WalWriter wal_;
  uint64_t wal_seq_ = 0;
  uint64_t snapshot_seq_ = 0;
  uint64_t appends_since_checkpoint_ = 0;

  RecoveryInfo recovery_;
  uint64_t checkpoints_ = 0;
  uint64_t checkpoint_failures_ = 0;
  uint64_t last_checkpoint_bytes_ = 0;
  uint64_t last_checkpoint_facts_ = 0;

  size_t charged_ = 0;  // MemoryBudget bookkeeping
};

}  // namespace gdlog

#endif  // GDLOG_STORAGE_DURABLE_DURABLE_STORE_H_

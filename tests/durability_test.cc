// Durable relation store: WAL encode/decode, torn-tail recovery at every
// byte boundary, snapshot checkpoints, manifest atomicity, the GD21x
// failure taxonomy, fault-probe sweeps, and the headline chaos contract —
// an engine killed mid-mutation, reopened, and reloaded must re-derive a
// model bit-identical to an uninterrupted in-memory run, for every
// shipped greedy program.
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.h"
#include "api/engine.h"
#include "common/guardrails.h"
#include "storage/durable/durable_store.h"
#include "storage/durable/io.h"
#include "storage/durable/wal.h"

namespace gdlog {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string ProgramPath(const std::string& name) {
  return std::string(GDLOG_SOURCE_DIR) + "/programs/" + name;
}

/// A fresh scratch directory under the test temp root; removed by the
/// caller (leaks on assertion failure, which is fine for debugging).
std::string TempDbDir(const std::string& tag) {
  static int counter = 0;
  const std::string dir = ::testing::TempDir() + "gdlog_durability_" + tag +
                          "_" + std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

void RemoveTree(const std::string& dir) { std::filesystem::remove_all(dir); }

uint64_t FileSize(const std::string& path) {
  return static_cast<uint64_t>(std::filesystem::file_size(path));
}

/// Truncates `path` to `size` bytes (simulating a crash that lost the
/// tail of the file).
void TruncateTo(const std::string& path, uint64_t size) {
  std::filesystem::resize_file(path, size);
}

/// Flips one byte of `path` at `offset`.
void CorruptByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5A));
}

/// The full model as ordered text (see differential_test.cc): the
/// bit-identity contract covers not just the fact set but the insertion
/// order the engine derived it in.
std::vector<std::string> DumpModel(const Engine& e) {
  std::vector<std::string> lines;
  for (const auto& ref : e.program()->AllPredicates()) {
    for (const auto& tuple : e.Query(ref.name, ref.arity)) {
      std::string line = ref.name;
      line += '(';
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (i) line += ',';
        line += e.store().ToString(tuple[i]);
      }
      line += ')';
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// WAL: codec round trip and torn-tail scanning
// ---------------------------------------------------------------------------

TEST(Wal, RoundTripsAllValueKinds) {
  const std::string dir = TempDbDir("wal-roundtrip");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/wal-1.log";

  ValueStore store;
  const Value sym = store.MakeSymbol("alpha");
  const std::vector<Value> term_args = {Value::Int(-7), sym};
  const Value term = store.MakeTerm("pair", term_args);
  std::vector<Value> t1 = {Value::Int(1), Value::Int(2)};
  std::vector<Value> t2 = {sym, term, Value::Nil()};

  WalWriter w;
  w.set_options({FsyncPolicy::kAlways, 1 << 20, nullptr});
  ASSERT_TRUE(w.Open(path, 1, 0).ok());
  ASSERT_TRUE(
      w.Append(store, WalRecordType::kCreateRelation, "edge", 2, TupleView())
          .ok());
  ASSERT_TRUE(
      w.Append(store, WalRecordType::kAddFact, "edge", 2, TupleView(t1)).ok());
  ASSERT_TRUE(
      w.Append(store, WalRecordType::kAddFact, "mix", 3, TupleView(t2)).ok());
  ASSERT_TRUE(
      w.Append(store, WalRecordType::kRetract, "edge", 2, TupleView(t1)).ok());
  EXPECT_EQ(w.appends(), 4u);
  ASSERT_TRUE(w.Close().ok());

  // Replay into a *fresh* store: the codec is content-based.
  ValueStore replay;
  auto scan = ReadWal(path, 1, &replay);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->tail_dropped);
  EXPECT_EQ(scan->dropped_bytes, 0u);
  ASSERT_EQ(scan->records.size(), 4u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kCreateRelation);
  EXPECT_EQ(scan->records[0].name, "edge");
  EXPECT_EQ(scan->records[0].arity, 2u);
  EXPECT_TRUE(scan->records[0].tuple.empty());
  EXPECT_EQ(scan->records[1].type, WalRecordType::kAddFact);
  ASSERT_EQ(scan->records[1].tuple.size(), 2u);
  EXPECT_EQ(replay.ToString(scan->records[1].tuple[0]), "1");
  EXPECT_EQ(replay.ToString(scan->records[1].tuple[1]), "2");
  ASSERT_EQ(scan->records[2].tuple.size(), 3u);
  EXPECT_EQ(replay.ToString(scan->records[2].tuple[0]),
            store.ToString(sym));
  EXPECT_EQ(replay.ToString(scan->records[2].tuple[1]),
            store.ToString(term));
  EXPECT_EQ(replay.ToString(scan->records[2].tuple[2]),
            store.ToString(Value::Nil()));
  EXPECT_EQ(scan->records[3].type, WalRecordType::kRetract);
  RemoveTree(dir);
}

TEST(Wal, MissingFileReadsAsEmptyLog) {
  ValueStore store;
  auto scan = ReadWal(TempDbDir("wal-missing") + "/wal-1.log", 1, &store);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_size, 0u);
}

TEST(Wal, SequenceMismatchIsCorruption) {
  const std::string dir = TempDbDir("wal-seq");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/wal-1.log";
  ValueStore store;
  WalWriter w;
  ASSERT_TRUE(w.Open(path, 1, 0).ok());
  ASSERT_TRUE(w.Close().ok());
  auto scan = ReadWal(path, 2, &store);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(DiagCodeOfStatus(scan.status()), diag::kWalCorrupt);
  RemoveTree(dir);
}

TEST(Wal, BadMagicIsCorruption) {
  const std::string dir = TempDbDir("wal-magic");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/wal-1.log";
  std::ofstream(path, std::ios::binary)
      << "definitely not a WAL header at all";
  ValueStore store;
  auto scan = ReadWal(path, 1, &store);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(DiagCodeOfStatus(scan.status()), diag::kWalCorrupt);
  RemoveTree(dir);
}

// The property the whole recovery story rests on: a WAL truncated at ANY
// byte boundary inside its final record recovers exactly the earlier
// records, reports the torn tail, and names the valid prefix.
TEST(Wal, TruncationAtEveryByteBoundaryOfFinalRecord) {
  const std::string dir = TempDbDir("wal-trunc");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/wal-1.log";

  ValueStore store;
  std::vector<Value> t1 = {Value::Int(10)};
  std::vector<Value> t2 = {Value::Int(20)};
  std::vector<Value> t3 = {store.MakeSymbol("final-record-payload")};

  WalWriter w;
  ASSERT_TRUE(w.Open(path, 1, 0).ok());
  ASSERT_TRUE(w.Append(store, WalRecordType::kAddFact, "p", 1,
                       TupleView(t1)).ok());
  ASSERT_TRUE(w.Append(store, WalRecordType::kAddFact, "p", 1,
                       TupleView(t2)).ok());
  const uint64_t prefix = w.size_bytes();  // valid size before record 3
  ASSERT_TRUE(w.Append(store, WalRecordType::kAddFact, "q", 1,
                       TupleView(t3)).ok());
  const uint64_t full = w.size_bytes();
  ASSERT_TRUE(w.Close().ok());
  ASSERT_GT(full, prefix);

  const std::string pristine = ReadFileOrDie(path);
  ASSERT_EQ(pristine.size(), full);

  for (uint64_t cut = prefix; cut < full; ++cut) {
    std::ofstream(path, std::ios::binary)
        << std::string_view(pristine.data(), cut);
    ValueStore replay;
    auto scan = ReadWal(path, 1, &replay);
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": "
                           << scan.status().ToString();
    EXPECT_EQ(scan->records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(scan->valid_size, prefix) << "cut=" << cut;
    EXPECT_EQ(scan->tail_dropped, cut != prefix) << "cut=" << cut;
    EXPECT_EQ(scan->dropped_bytes, cut - prefix) << "cut=" << cut;
  }
  RemoveTree(dir);
}

// A CRC-valid record can still carry absurd term nesting; the decoder
// must report [GD211] at its depth limit instead of recursing one stack
// frame per level until overflow.
TEST(Wal, DeeplyNestedTermIsCorruptionNotACrash) {
  std::string bytes;
  const int depth = kMaxValueNesting + 8;
  for (int i = 0; i < depth; ++i) {
    bytes.push_back(2);          // kTagTerm
    AppendBytes(&bytes, "f");    // functor
    AppendU32(&bytes, 1);        // one argument
  }
  bytes.push_back(3);            // innermost kTagNil
  ValueStore store;
  ByteReader r{bytes.data(), bytes.size(), 0};
  Value v;
  const Status st = r.ReadValue(&store, &v);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kWalCorrupt);
  EXPECT_NE(st.message().find("nesting"), std::string::npos);
}

// After a failed append leaves torn bytes at the physical EOF, the
// writer must refuse further appends: O_APPEND would land the next
// (acknowledged!) record after the garbage, and recovery — which stops
// at the first bad checksum — would silently drop it.
TEST(Wal, AppendAfterTornWriteIsRefused) {
  const std::string dir = TempDbDir("wal-latch");
  ASSERT_TRUE(EnsureDir(dir).ok());
  const std::string path = dir + "/wal-1.log";

  auto injector = FaultInjector::Parse("wal.append@2");
  ASSERT_TRUE(injector.ok());
  ValueStore store;
  std::vector<Value> t1 = {Value::Int(1)};
  std::vector<Value> t2 = {Value::Int(2)};
  WalWriter w;
  w.set_options({FsyncPolicy::kAlways, 1 << 20, &*injector});
  ASSERT_TRUE(w.Open(path, 1, 0).ok());
  ASSERT_TRUE(w.Append(store, WalRecordType::kAddFact, "p", 1,
                       TupleView(t1)).ok());
  const uint64_t valid = w.size_bytes();
  ASSERT_FALSE(w.Append(store, WalRecordType::kAddFact, "p", 1,
                        TupleView(t2)).ok());
  EXPECT_GT(FileSize(path), valid);  // the torn prefix really is on disk
  const Status refused =
      w.Append(store, WalRecordType::kAddFact, "p", 1, TupleView(t2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(DiagCodeOfStatus(refused), diag::kWalError);
  ASSERT_TRUE(w.Close().ok());

  // Reopening recovers exactly the acknowledged record and appends
  // cleanly from there.
  ValueStore replay;
  auto scan = ReadWal(path, 1, &replay);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->tail_dropped);
  ASSERT_EQ(scan->records.size(), 1u);
  WalWriter again;
  ASSERT_TRUE(again.Open(path, 1, scan->valid_size).ok());
  ASSERT_TRUE(again.Append(store, WalRecordType::kAddFact, "p", 1,
                           TupleView(t2)).ok());
  ASSERT_TRUE(again.Close().ok());
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// DurableStore: open, checkpoint, reopen
// ---------------------------------------------------------------------------

DurableStore::Options StoreOptions(const std::string& dir,
                                   FaultInjector* injector = nullptr) {
  DurableStore::Options o;
  o.dir = dir;
  o.fsync = FsyncPolicy::kAlways;
  o.injector = injector;
  return o;
}

void AddInt(DurableStore* s, std::string_view rel, int64_t a, int64_t b) {
  std::vector<Value> t = {Value::Int(a), Value::Int(b)};
  ASSERT_TRUE(s->LogCreateRelation(rel, 2).ok());
  ASSERT_TRUE(s->LogAddFact(rel, 2, TupleView(t)).ok());
}

TEST(DurableStore, EmptyDatabaseReopensEmpty) {
  const std::string dir = TempDbDir("store-empty");
  ValueStore vs;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    EXPECT_FALSE(s.recovery().opened_existing);
    EXPECT_EQ(s.wal_seq(), 1u);
    ASSERT_TRUE(s.Close().ok());
  }
  EXPECT_TRUE(FileExists(dir + "/MANIFEST"));
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    EXPECT_TRUE(s.recovery().opened_existing);
    EXPECT_EQ(s.recovery().wal_records_replayed, 0u);
    EXPECT_FALSE(s.recovery().wal_tail_dropped);
    EXPECT_TRUE(s.relations().empty());
    ASSERT_TRUE(s.Close().ok());
  }
  RemoveTree(dir);
}

TEST(DurableStore, SnapshotOnlyReopenRestoresTheMirror) {
  const std::string dir = TempDbDir("store-snap");
  ValueStore vs;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    AddInt(&s, "edge", 1, 2);
    AddInt(&s, "edge", 2, 3);
    ASSERT_TRUE(s.Checkpoint().ok());
    EXPECT_EQ(s.snapshot_seq(), 1u);
    EXPECT_EQ(s.wal_seq(), 2u);
    ASSERT_TRUE(s.Close().ok());
  }
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    EXPECT_EQ(s.recovery().snapshot_seq, 1u);
    EXPECT_EQ(s.recovery().snapshot_facts, 2u);
    EXPECT_EQ(s.recovery().wal_records_replayed, 0u);  // rotated WAL is empty
    ASSERT_EQ(s.relations().size(), 1u);
    EXPECT_EQ(s.relations()[0].num_rows, 2u);
    ASSERT_TRUE(s.Close().ok());
  }
  RemoveTree(dir);
}

TEST(DurableStore, CheckpointRetiresTheOldPair) {
  const std::string dir = TempDbDir("store-retire");
  ValueStore vs;
  DurableStore s;
  ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
  AddInt(&s, "edge", 1, 2);
  ASSERT_TRUE(s.Checkpoint().ok());
  AddInt(&s, "edge", 5, 6);
  ASSERT_TRUE(s.Checkpoint().ok());
  EXPECT_FALSE(FileExists(dir + "/wal-1.log"));
  EXPECT_FALSE(FileExists(dir + "/wal-2.log"));
  EXPECT_TRUE(FileExists(dir + "/wal-3.log"));
  EXPECT_FALSE(FileExists(dir + "/snapshot-1.gds"));
  EXPECT_TRUE(FileExists(dir + "/snapshot-2.gds"));
  ASSERT_TRUE(s.Close().ok());
  RemoveTree(dir);
}

TEST(DurableStore, RetractSurvivesReopen) {
  const std::string dir = TempDbDir("store-retract");
  ValueStore vs;
  std::vector<Value> gone = {Value::Int(1), Value::Int(2)};
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    AddInt(&s, "edge", 1, 2);
    AddInt(&s, "edge", 2, 3);
    ASSERT_TRUE(s.LogRetract("edge", 2, TupleView(gone)).ok());
    ASSERT_TRUE(s.Close().ok());
  }
  DurableStore s;
  ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
  ASSERT_EQ(s.relations().size(), 1u);
  ASSERT_EQ(s.relations()[0].num_rows, 1u);
  EXPECT_EQ(vs.ToString(s.relations()[0].rows[0]), "2");
  EXPECT_EQ(vs.ToString(s.relations()[0].rows[1]), "3");
  ASSERT_TRUE(s.Close().ok());
  RemoveTree(dir);
}

TEST(DurableStore, DoubleReopenIsIdempotent) {
  const std::string dir = TempDbDir("store-double");
  ValueStore vs;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    AddInt(&s, "edge", 1, 2);
    AddInt(&s, "edge", 2, 3);
    ASSERT_TRUE(s.Close().ok());
  }
  uint64_t replayed_first = 0;
  for (int round = 0; round < 2; ++round) {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok()) << "round " << round;
    EXPECT_EQ(s.recovery().wal_dropped_bytes, 0u);
    ASSERT_EQ(s.relations().size(), 1u);
    EXPECT_EQ(s.relations()[0].num_rows, 2u);
    if (round == 0) {
      replayed_first = s.recovery().wal_records_replayed;
    } else {
      // Reopening without writing must not change what the log holds.
      EXPECT_EQ(s.recovery().wal_records_replayed, replayed_first);
    }
    ASSERT_TRUE(s.Close().ok());
  }
  RemoveTree(dir);
}

TEST(DurableStore, TornTailIsDroppedAndOverwritten) {
  const std::string dir = TempDbDir("store-torn");
  ValueStore vs;
  uint64_t full = 0;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    AddInt(&s, "edge", 1, 2);
    AddInt(&s, "edge", 2, 3);
    ASSERT_TRUE(s.Close().ok());
    full = FileSize(dir + "/wal-1.log");
  }
  // Lose the last 3 bytes: mid-record, so the final append must vanish.
  TruncateTo(dir + "/wal-1.log", full - 3);
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    EXPECT_TRUE(s.recovery().wal_tail_dropped);
    EXPECT_EQ(s.recovery().wal_dropped_bytes, full - 3 -
                                                  s.recovery().wal_valid_bytes);
    ASSERT_EQ(s.relations().size(), 1u);
    EXPECT_EQ(s.relations()[0].num_rows, 1u);
    // The log is writable again from the valid prefix.
    AddInt(&s, "edge", 7, 8);
    ASSERT_TRUE(s.Close().ok());
  }
  DurableStore s;
  ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
  EXPECT_FALSE(s.recovery().wal_tail_dropped);
  ASSERT_EQ(s.relations().size(), 1u);
  EXPECT_EQ(s.relations()[0].num_rows, 2u);
  ASSERT_TRUE(s.Close().ok());
  RemoveTree(dir);
}

TEST(DurableStore, ManifestCorruptionIsGd212) {
  const std::string dir = TempDbDir("store-badmanifest");
  ValueStore vs;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    AddInt(&s, "edge", 1, 2);
    ASSERT_TRUE(s.Close().ok());
  }
  CorruptByteAt(dir + "/MANIFEST", 3);
  DurableStore s;
  const Status st = s.Open(StoreOptions(dir), &vs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kSnapshotCorrupt);
  RemoveTree(dir);
}

TEST(DurableStore, SnapshotCorruptionIsGd212) {
  const std::string dir = TempDbDir("store-badsnap");
  ValueStore vs;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
    AddInt(&s, "edge", 1, 2);
    ASSERT_TRUE(s.Checkpoint().ok());
    ASSERT_TRUE(s.Close().ok());
  }
  // Flip a byte in the body (past magic + seq) so the CRC trailer fails.
  CorruptByteAt(dir + "/snapshot-1.gds", 20);
  DurableStore s;
  const Status st = s.Open(StoreOptions(dir), &vs);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kSnapshotCorrupt);
  RemoveTree(dir);
}

TEST(DurableStore, AutoCheckpointFiresOnCadence) {
  const std::string dir = TempDbDir("store-auto");
  ValueStore vs;
  DurableStore::Options o = StoreOptions(dir);
  o.checkpoint_every = 4;
  DurableStore s;
  ASSERT_TRUE(s.Open(o, &vs).ok());
  AddInt(&s, "edge", 1, 2);  // create + add = 2 appends
  AddInt(&s, "edge", 2, 3);  // +1 (create dedups)... add = 3
  AddInt(&s, "edge", 3, 4);  // 4th append -> auto checkpoint
  EXPECT_EQ(s.stats().checkpoints, 1u);
  EXPECT_EQ(s.snapshot_seq(), 1u);
  ASSERT_TRUE(s.Close().ok());
  RemoveTree(dir);
}

// A failed auto-checkpoint must not fail the mutation that triggered it:
// the append is already durable, and a caller that retried it would pass
// its dedup probe and log the fact a second time. The failure is counted,
// deferred, and the checkpoint retries on the next cadence hit.
TEST(DurableStore, FailedAutoCheckpointDoesNotFailTheMutation) {
  const std::string dir = TempDbDir("store-autofail");
  ValueStore vs;
  auto injector = FaultInjector::Parse("checkpoint.write");
  ASSERT_TRUE(injector.ok());
  DurableStore::Options o = StoreOptions(dir, &*injector);
  o.checkpoint_every = 2;
  {
    DurableStore s;
    ASSERT_TRUE(s.Open(o, &vs).ok());
    std::vector<Value> t = {Value::Int(1), Value::Int(2)};
    ASSERT_TRUE(s.LogCreateRelation("edge", 2).ok());
    // 2nd append: the auto-checkpoint fires and fails, but the add is
    // durable — the mutation reports success.
    ASSERT_TRUE(s.LogAddFact("edge", 2, TupleView(t)).ok());
    EXPECT_EQ(s.stats().checkpoint_failures, 1u);
    EXPECT_EQ(s.snapshot_seq(), 0u);  // old pair still in force
    const Status deferred = s.TakeDeferredError();
    EXPECT_FALSE(deferred.ok());
    EXPECT_EQ(DiagCodeOfStatus(deferred), diag::kWalError);
    EXPECT_TRUE(s.TakeDeferredError().ok());  // take clears
    // 3rd append: the cadence is still due, the probe is spent, and the
    // checkpoint retry succeeds.
    std::vector<Value> t2 = {Value::Int(2), Value::Int(3)};
    ASSERT_TRUE(s.LogAddFact("edge", 2, TupleView(t2)).ok());
    EXPECT_EQ(s.snapshot_seq(), 1u);
    ASSERT_TRUE(s.Close().ok());
  }
  // Nothing was double-logged: reopen sees exactly the two facts.
  DurableStore s;
  ASSERT_TRUE(s.Open(StoreOptions(dir), &vs).ok());
  ASSERT_EQ(s.relations().size(), 1u);
  EXPECT_EQ(s.relations()[0].num_rows, 2u);
  ASSERT_TRUE(s.Close().ok());
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

constexpr const char* kTc = R"(
  tc(X, Y) <- edge(X, Y).
  tc(X, Z) <- tc(X, Y), edge(Y, Z).
)";

EngineOptions Durable(const std::string& dir, std::string faults = "") {
  EngineOptions o;
  o.durability.dir = dir;
  o.durability.fsync = "always";
  o.faults = std::move(faults);
  return o;
}

TEST(EngineDurability, RecoversEdbAndRederivesTheFixpoint) {
  const std::string dir = TempDbDir("engine-roundtrip");
  std::vector<std::string> expected;
  {
    Engine e{Durable(dir)};
    ASSERT_TRUE(e.LoadProgram(kTc).ok());
    for (int i = 0; i + 1 < 6; ++i) {
      ASSERT_TRUE(
          e.AddFact("edge", {Value::Int(i), Value::Int(i + 1)}).ok());
    }
    ASSERT_TRUE(e.Run().ok());
    expected = DumpModel(e);
    EXPECT_EQ(e.Query("tc", 2).size(), 15u);
  }
  // Reopen: the facts come back from the WAL, no AddFact calls needed.
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok())
      << e.durability_status().ToString();
  ASSERT_TRUE(e.durable() != nullptr);
  EXPECT_TRUE(e.durable()->recovery().opened_existing);
  EXPECT_EQ(e.Query("edge", 2).size(), 5u);  // queryable before Run
  ASSERT_TRUE(e.LoadProgram(kTc).ok());
  ASSERT_TRUE(e.Run().ok());
  EXPECT_EQ(DumpModel(e), expected);
  RemoveTree(dir);
}

TEST(EngineDurability, RetractFactIsDurable) {
  const std::string dir = TempDbDir("engine-retract");
  {
    Engine e{Durable(dir)};
    ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
    ASSERT_TRUE(e.AddFact("p", {Value::Int(2)}).ok());
    const Status missing = e.RetractFact("p", {Value::Int(9)});
    EXPECT_FALSE(missing.ok());
    ASSERT_TRUE(e.RetractFact("p", {Value::Int(1)}).ok());
    EXPECT_EQ(e.Query("p", 1).size(), 1u);
  }
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok());
  ASSERT_EQ(e.Query("p", 1).size(), 1u);
  EXPECT_EQ(e.store().ToString(e.Query("p", 1)[0][0]), "2");
  RemoveTree(dir);
}

TEST(EngineDurability, DuplicateAddsAreNotLoggedTwice) {
  const std::string dir = TempDbDir("engine-dedup");
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
  const uint64_t appends = e.durable()->stats().wal_appends;
  ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());  // dedup, still OK
  EXPECT_EQ(e.durable()->stats().wal_appends, appends);
  EXPECT_EQ(e.Query("p", 1).size(), 1u);
  RemoveTree(dir);
}

TEST(EngineDurability, InlineFactsAreLoggedAndReloadLogsNothing) {
  const std::string dir = TempDbDir("engine-inline");
  const std::string text = std::string(kTc) + "edge(0, 1). edge(1, 2).\n";
  {
    Engine e{Durable(dir)};
    ASSERT_TRUE(e.LoadProgram(text).ok());
    // One create-relation record and one record per fact.
    EXPECT_EQ(e.durable()->stats().wal_appends, 3u);
    // In the catalog from load on: retractable before Run.
    ASSERT_TRUE(e.RetractFact("edge", {Value::Int(1), Value::Int(2)}).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_EQ(e.Query("tc", 2).size(), 1u);
  }
  // Reloading the same text against the recovered database: the fact
  // that survived is already there, and the retracted one comes back.
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok());
  EXPECT_EQ(e.Query("edge", 2).size(), 1u);
  ASSERT_TRUE(e.LoadProgram(text).ok());
  EXPECT_EQ(e.durable()->stats().wal_appends, 1u);
  EXPECT_EQ(e.Query("edge", 2).size(), 2u);
  RemoveTree(dir);
  // And a second reload appends nothing at all.
  const std::string dir2 = TempDbDir("engine-inline-idem");
  {
    Engine first{Durable(dir2)};
    ASSERT_TRUE(first.LoadProgram(text).ok());
  }
  Engine again{Durable(dir2)};
  ASSERT_TRUE(again.LoadProgram(text).ok());
  EXPECT_EQ(again.durable()->stats().wal_appends, 0u);
  ASSERT_TRUE(again.Run().ok());
  EXPECT_EQ(again.Query("tc", 2).size(), 3u);
  RemoveTree(dir2);
}

TEST(EngineDurability, CheckpointRotatesAndSurvivesReopen) {
  const std::string dir = TempDbDir("engine-ckpt");
  {
    Engine e{Durable(dir)};
    ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
    ASSERT_TRUE(e.Checkpoint().ok());
    ASSERT_TRUE(e.AddFact("p", {Value::Int(2)}).ok());  // lands in wal-2
    EXPECT_EQ(e.durable()->snapshot_seq(), 1u);
    EXPECT_EQ(e.durable()->wal_seq(), 2u);
  }
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok());
  EXPECT_EQ(e.durable()->recovery().snapshot_facts, 1u);
  EXPECT_EQ(e.durable()->recovery().wal_records_replayed, 1u);
  EXPECT_EQ(e.Query("p", 1).size(), 2u);
  RemoveTree(dir);
}

TEST(EngineDurability, ReportCarriesTheDurabilitySection) {
  const std::string dir = TempDbDir("engine-report");
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.LoadProgram("q(X) <- p(X).").ok());
  ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"durability\""), std::string::npos);
  EXPECT_NE(report->find("\"wal_appends\""), std::string::npos);
  EXPECT_NE(report->find("\"recovery\""), std::string::npos);
  auto metrics = e.MetricsText();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("gdlog_wal_appends"), std::string::npos);
  EXPECT_NE(metrics->find("gdlog_checkpoint_count"), std::string::npos);
  RemoveTree(dir);
}

TEST(EngineDurability, InMemoryEngineReportsNullDurability) {
  Engine e{EngineOptions{}};
  ASSERT_TRUE(e.LoadProgram("q(X) <- p(X).").ok());
  ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
  ASSERT_TRUE(e.Run().ok());
  auto report = e.RunReport();
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("\"durability\":null"), std::string::npos);
  EXPECT_FALSE(e.Checkpoint().ok());
  EXPECT_FALSE(e.SyncDurability().ok());
}

TEST(EngineDurability, BadFsyncPolicyLatches) {
  EngineOptions o;
  o.durability.dir = TempDbDir("engine-badfsync");
  o.durability.fsync = "sometimes";
  Engine e(o);
  EXPECT_FALSE(e.durability_status().ok());
  EXPECT_FALSE(e.AddFact("p", {Value::Int(1)}).ok());
  EXPECT_FALSE(e.LoadProgram("q(X) <- p(X).").ok());
  RemoveTree(o.durability.dir);
}

TEST(EngineDurability, CorruptManifestLatchesGd212) {
  const std::string dir = TempDbDir("engine-badmanifest");
  { Engine e{Durable(dir)}; ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok()); }
  CorruptByteAt(dir + "/MANIFEST", 2);
  Engine e{Durable(dir)};
  ASSERT_FALSE(e.durability_status().ok());
  EXPECT_EQ(DiagCodeOfStatus(e.durability_status()), diag::kSnapshotCorrupt);
  const Status st = e.AddFact("p", {Value::Int(2)});
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kSnapshotCorrupt);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Fault probes (docs/ROBUSTNESS.md): every durability probe fails cleanly
// with its GD code, and the database reopens intact afterwards.
// ---------------------------------------------------------------------------

TEST(DurabilityFaults, TornAppendFailsWithGd210AndRecovers) {
  const std::string dir = TempDbDir("fault-append");
  {
    // Probe count 2: the relation-create append succeeds, the fact
    // append tears mid-record.
    Engine e{Durable(dir, "wal.append@2")};
    ASSERT_TRUE(e.durability_status().ok());
    const Status st = e.AddFact("p", {Value::Int(1)});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(DiagCodeOfStatus(st), diag::kWalError);
    // Write-ahead: the failed fact never reached the in-memory relation.
    EXPECT_EQ(e.Query("p", 1).size(), 0u);
  }
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok())
      << e.durability_status().ToString();
  // The torn record was dropped; the create survived.
  EXPECT_TRUE(e.durable()->recovery().wal_tail_dropped);
  EXPECT_EQ(e.Query("p", 1).size(), 0u);
  ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
  EXPECT_EQ(e.Query("p", 1).size(), 1u);
  RemoveTree(dir);
}

// Acknowledged appends must never land after the garbage a torn write
// left at the physical EOF — recovery would stop at the garbage and
// silently drop them. The engine therefore refuses appends after a torn
// write until the database is reopened.
TEST(DurabilityFaults, TornAppendRefusesLaterAppendsUntilReopen) {
  const std::string dir = TempDbDir("fault-append-latch");
  {
    Engine e{Durable(dir, "wal.append@2")};
    ASSERT_TRUE(e.durability_status().ok());
    ASSERT_FALSE(e.AddFact("p", {Value::Int(1)}).ok());
    const Status st = e.AddFact("p", {Value::Int(2)});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(DiagCodeOfStatus(st), diag::kWalError);
    EXPECT_EQ(e.Query("p", 1).size(), 0u);
  }
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok())
      << e.durability_status().ToString();
  EXPECT_TRUE(e.durable()->recovery().wal_tail_dropped);
  EXPECT_EQ(e.Query("p", 1).size(), 0u);  // nothing acknowledged was lost
  ASSERT_TRUE(e.AddFact("p", {Value::Int(2)}).ok());
  EXPECT_EQ(e.Query("p", 1).size(), 1u);
  RemoveTree(dir);
}

TEST(DurabilityFaults, FsyncFaultFailsWithGd210) {
  const std::string dir = TempDbDir("fault-fsync");
  Engine e{Durable(dir, "wal.fsync")};
  ASSERT_TRUE(e.durability_status().ok());
  const Status st = e.AddFact("p", {Value::Int(1)});  // fsync=always
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(DiagCodeOfStatus(st), diag::kWalError);
  RemoveTree(dir);
}

TEST(DurabilityFaults, CheckpointFaultLeavesTheOldPairInForce) {
  const std::string dir = TempDbDir("fault-ckpt");
  {
    Engine e{Durable(dir, "checkpoint.write")};
    ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok());
    const Status st = e.Checkpoint();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(DiagCodeOfStatus(st), diag::kWalError);
    EXPECT_EQ(e.durable()->snapshot_seq(), 0u);
    EXPECT_EQ(e.durable()->wal_seq(), 1u);
  }
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok());
  EXPECT_EQ(e.Query("p", 1).size(), 1u);  // WAL still had everything
  ASSERT_TRUE(e.Checkpoint().ok());       // and checkpointing works now
  RemoveTree(dir);
}

TEST(DurabilityFaults, RecoveryFaultLatchesGd211) {
  const std::string dir = TempDbDir("fault-recovery");
  { Engine e{Durable(dir)}; ASSERT_TRUE(e.AddFact("p", {Value::Int(1)}).ok()); }
  {
    Engine e{Durable(dir, "recovery.replay")};
    ASSERT_FALSE(e.durability_status().ok());
    EXPECT_EQ(DiagCodeOfStatus(e.durability_status()), diag::kWalCorrupt);
    EXPECT_FALSE(e.Run().ok());
  }
  Engine e{Durable(dir)};
  ASSERT_TRUE(e.durability_status().ok());
  EXPECT_EQ(e.Query("p", 1).size(), 1u);
  RemoveTree(dir);
}

// ---------------------------------------------------------------------------
// Chaos: crash at every WAL-append boundary of every shipped program,
// reopen, reload, and demand the exact uninterrupted model.
// ---------------------------------------------------------------------------

class DurabilityChaos : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityChaos, CrashRecoveryIsBitIdentical) {
  const std::string text = ReadFileOrDie(ProgramPath(GetParam()));

  // Reference: uninterrupted and in-memory. Inline facts load on the
  // same path with or without durability.
  Engine ref{EngineOptions{}};
  ASSERT_TRUE(ref.LoadProgram(text).ok());
  ASSERT_TRUE(ref.Run().ok());
  const std::vector<std::string> expected = DumpModel(ref);
  ASSERT_FALSE(expected.empty());

  // An uninterrupted durable run is already bit-identical, and tells us
  // how many WAL appends the program's EDB needs.
  uint64_t total_appends = 0;
  {
    const std::string dir = TempDbDir("chaos-ref");
    EngineOptions o;
    o.durability.dir = dir;
    Engine e(o);
    ASSERT_TRUE(e.LoadProgram(text).ok());
    ASSERT_TRUE(e.Run().ok());
    EXPECT_EQ(DumpModel(e), expected) << GetParam() << " (durable, no crash)";
    total_appends = e.durable()->stats().wal_appends;
    RemoveTree(dir);
  }
  ASSERT_GT(total_appends, 0u);

  // Kill the engine at every append boundary: the k-th append tears
  // mid-record (a genuinely torn tail on disk) and the engine dies. A
  // fresh engine must reopen the directory, drop the torn tail, replay
  // what survived, finish loading (dedup skips the recovered facts),
  // and re-derive the exact reference model.
  for (uint64_t k = 1; k <= total_appends; ++k) {
    const std::string dir = TempDbDir("chaos");
    {
      EngineOptions o;
      o.durability.dir = dir;
      o.faults = "wal.append@" + std::to_string(k);
      Engine dying(o);
      const Status st = dying.LoadProgram(text);
      ASSERT_FALSE(st.ok()) << GetParam() << " append " << k
                            << " did not tear";
      EXPECT_EQ(DiagCodeOfStatus(st), diag::kWalError) << "k=" << k;
    }
    EngineOptions o;
    o.durability.dir = dir;
    Engine revived(o);
    ASSERT_TRUE(revived.durability_status().ok())
        << GetParam() << " k=" << k << ": "
        << revived.durability_status().ToString();
    EXPECT_TRUE(revived.durable()->recovery().wal_tail_dropped)
        << "k=" << k;
    ASSERT_TRUE(revived.LoadProgram(text).ok()) << "k=" << k;
    ASSERT_TRUE(revived.Run().ok()) << "k=" << k;
    EXPECT_EQ(DumpModel(revived), expected)
        << GetParam() << " diverged after a crash at WAL append " << k;
    RemoveTree(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, DurabilityChaos,
                         ::testing::Values("course_assignment.dl",
                                           "huffman.dl", "kruskal.dl",
                                           "prim.dl", "sort.dl"));

}  // namespace
}  // namespace gdlog

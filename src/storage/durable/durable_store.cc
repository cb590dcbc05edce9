#include "storage/durable/durable_store.h"

#include <dirent.h>

#include <new>

#include "common/guardrails.h"
#include "storage/catalog.h"
#include "storage/durable/io.h"

namespace gdlog {

namespace {

constexpr std::string_view kSnapMagic = "GDSNAP1\n";  // 8 bytes
constexpr std::string_view kManifestName = "MANIFEST";
constexpr std::string_view kManifestMagic = "GDMANIFEST1";

Status SnapshotCorrupt(std::string msg) {
  return Status::RuntimeError("[GD212] " + std::move(msg));
}

std::string HexU32(uint32_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(8, '0');
  for (int i = 7; i >= 0; --i) {
    s[i] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

// Parses "key=<decimal>" returning false on any malformation.
bool ParseField(std::string_view token, std::string_view key, uint64_t* out) {
  if (token.size() <= key.size() + 1 ||
      token.substr(0, key.size()) != key || token[key.size()] != '=') {
    return false;
  }
  uint64_t v = 0;
  for (char c : token.substr(key.size() + 1)) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// Inserts one recovered EDB row, annotated as asserted when the catalog
// keeps provenance.
void InsertRecovered(Relation& rel, TupleView row) {
  const Relation::InsertResult r = rel.Insert(row);
  if (r.inserted) rel.Annotate(r.row, Relation::kEdbRule, nullptr, 0);
}

}  // namespace

DurableStore::~DurableStore() {
  // Best-effort: callers that care about the final sync status call
  // Close() themselves.
  if (open_) (void)Close();
}

std::string DurableStore::WalPath(uint64_t seq) const {
  return options_.dir + "/wal-" + std::to_string(seq) + ".log";
}

std::string DurableStore::SnapshotPath(uint64_t seq) const {
  return options_.dir + "/snapshot-" + std::to_string(seq) + ".gds";
}

void DurableStore::Latch(const Status& why) {
  if (!failed_.ok()) return;
  failed_ = Status::RuntimeError(
      "[GD210] durable store '" + options_.dir +
      "' closed to mutations after an unrecoverable failure (reopen to "
      "recover): " + why.message());
}

// -- Manifest -----------------------------------------------------------------

Status DurableStore::WriteManifest(uint64_t snapshot_seq, uint64_t wal_seq,
                                   bool* renamed) {
  std::string body(kManifestMagic);
  body += " snapshot=" + std::to_string(snapshot_seq);
  body += " wal=" + std::to_string(wal_seq);
  std::string line = body + " crc=" +
                     HexU32(Crc32(body.data(), body.size())) + "\n";

  const std::string tmp = options_.dir + "/MANIFEST.tmp";
  const std::string final_path = options_.dir + "/" + std::string(kManifestName);
  GDLOG_ASSIGN_OR_RETURN(FileHandle f, OpenTrunc(tmp));
  GDLOG_RETURN_IF_ERROR(WriteFully(f, line.data(), line.size(), 0));
  GDLOG_RETURN_IF_ERROR(Fsync(f));
  GDLOG_RETURN_IF_ERROR(f.Close());
  GDLOG_RETURN_IF_ERROR(RenameFile(tmp, final_path));
  if (renamed != nullptr) *renamed = true;
  return FsyncDir(options_.dir);
}

namespace {

Status ParseManifest(const std::string& path, const std::string& text,
                     uint64_t* snapshot_seq, uint64_t* wal_seq) {
  // "GDMANIFEST1 snapshot=<S> wal=<W> crc=<hex>\n"
  std::string_view line(text);
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  const size_t crc_at = line.rfind(" crc=");
  if (line.substr(0, kManifestMagic.size()) != kManifestMagic ||
      crc_at == std::string_view::npos) {
    return SnapshotCorrupt("malformed manifest '" + path + "'");
  }
  const std::string_view body = line.substr(0, crc_at);
  const std::string_view crc_hex = line.substr(crc_at + 5);
  uint32_t want = 0;
  if (crc_hex.size() != 8) {
    return SnapshotCorrupt("malformed manifest crc in '" + path + "'");
  }
  for (char c : crc_hex) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a') + 10;
    } else {
      return SnapshotCorrupt("malformed manifest crc in '" + path + "'");
    }
    want = want << 4 | digit;
  }
  if (Crc32(body.data(), body.size()) != want) {
    return SnapshotCorrupt("manifest checksum mismatch in '" + path + "'");
  }
  // Fields after the magic: "snapshot=<S> wal=<W>".
  std::string_view rest = body.substr(kManifestMagic.size());
  bool have_snapshot = false, have_wal = false;
  while (!rest.empty()) {
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    const size_t sp = rest.find(' ');
    const std::string_view token =
        sp == std::string_view::npos ? rest : rest.substr(0, sp);
    rest = sp == std::string_view::npos ? std::string_view()
                                        : rest.substr(sp + 1);
    if (ParseField(token, "snapshot", snapshot_seq)) {
      have_snapshot = true;
    } else if (ParseField(token, "wal", wal_seq)) {
      have_wal = true;
    } else if (!token.empty()) {
      return SnapshotCorrupt("unknown manifest field '" + std::string(token) +
                             "' in '" + path + "'");
    }
  }
  if (!have_snapshot || !have_wal || *wal_seq == 0) {
    return SnapshotCorrupt("incomplete manifest '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

// -- Snapshot -----------------------------------------------------------------

Status DurableStore::LoadSnapshot(const std::string& path,
                                  uint64_t expected_seq, Catalog* catalog) {
  std::string bytes;
  GDLOG_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  if (bytes.size() < kSnapMagic.size() + 8 + 4 ||
      std::string_view(bytes.data(), kSnapMagic.size()) != kSnapMagic) {
    return SnapshotCorrupt("bad snapshot magic in '" + path + "'");
  }
  const size_t body_begin = kSnapMagic.size();
  const size_t body_size = bytes.size() - body_begin - 4;
  const uint32_t got_crc =
      Crc32(bytes.data() + body_begin, body_size);
  ByteReader trailer{bytes.data(), bytes.size(), bytes.size() - 4};
  uint32_t want_crc = 0;
  GDLOG_RETURN_IF_ERROR(trailer.ReadU32(&want_crc));
  if (got_crc != want_crc) {
    return SnapshotCorrupt("snapshot checksum mismatch in '" + path + "'");
  }

  ByteReader r{bytes.data(), body_begin + body_size, body_begin};
  uint64_t seq = 0;
  GDLOG_RETURN_IF_ERROR(r.ReadU64(&seq));
  if (seq != expected_seq) {
    return SnapshotCorrupt("snapshot sequence mismatch in '" + path +
                           "': image has " + std::to_string(seq) +
                           ", manifest expects " +
                           std::to_string(expected_seq));
  }
  uint32_t num_relations = 0;
  GDLOG_RETURN_IF_ERROR(r.ReadU32(&num_relations));
  for (uint32_t i = 0; i < num_relations; ++i) {
    uint32_t name_len = 0;
    GDLOG_RETURN_IF_ERROR(r.ReadU32(&name_len));
    std::string_view name;
    GDLOG_RETURN_IF_ERROR(r.ReadBytes(name_len, &name));
    uint32_t arity = 0;
    GDLOG_RETURN_IF_ERROR(r.ReadU32(&arity));
    uint64_t num_rows = 0;
    GDLOG_RETURN_IF_ERROR(r.ReadU64(&num_rows));
    Relation& rel = catalog->relation(catalog->Ensure(name, arity));
    std::vector<Value> row;  // grows with the values read, not `arity`
    for (uint64_t i = 0; i < num_rows; ++i) {
      row.clear();
      for (uint32_t col = 0; col < arity; ++col) {
        Value v;
        GDLOG_RETURN_IF_ERROR(r.ReadValue(store_, &v));
        row.push_back(v);
      }
      InsertRecovered(rel, TupleView(row));
    }
    ++recovery_.snapshot_relations;
    recovery_.snapshot_facts += num_rows;
  }
  if (!r.AtEnd()) {
    return SnapshotCorrupt("trailing bytes in snapshot '" + path + "'");
  }
  return Status::OK();
}

// -- Open / recovery ----------------------------------------------------------

Status DurableStore::Open(const Options& options, ValueStore* store,
                          Catalog* catalog) {
  if (open_) return Status::Internal("DurableStore::Open called twice");
  options_ = options;
  store_ = store;
  recovery_ = RecoveryInfo{};
  failed_ = Status::OK();
  checkpoint_failures_ = 0;

  GDLOG_RETURN_IF_ERROR(EnsureDir(options_.dir));

  const std::string manifest_path =
      options_.dir + "/" + std::string(kManifestName);
  snapshot_seq_ = 0;
  wal_seq_ = 1;
  if (FileExists(manifest_path)) {
    recovery_.opened_existing = true;
    std::string text;
    GDLOG_RETURN_IF_ERROR(ReadWholeFile(manifest_path, &text));
    GDLOG_RETURN_IF_ERROR(
        ParseManifest(manifest_path, text, &snapshot_seq_, &wal_seq_));

    if (options_.injector != nullptr &&
        options_.injector->Hit(FaultInjector::kRecoveryReplay)) {
      return Status::RuntimeError(
          "[GD211] injected recovery fault replaying '" + options_.dir + "'");
    }

    if (snapshot_seq_ != 0) {
      GDLOG_RETURN_IF_ERROR(
          LoadSnapshot(SnapshotPath(snapshot_seq_), snapshot_seq_, catalog));
    }
    GDLOG_ASSIGN_OR_RETURN(WalScan scan,
                           ReadWal(WalPath(wal_seq_), wal_seq_, store_));
    for (const WalRecord& rec : scan.records) {
      const TupleView tuple(rec.tuple);
      switch (rec.type) {
        case WalRecordType::kCreateRelation:
          catalog->Ensure(rec.name, rec.arity);
          break;
        case WalRecordType::kAddFact:
          InsertRecovered(
              catalog->relation(catalog->Ensure(rec.name, rec.arity)), tuple);
          break;
        case WalRecordType::kRetract: {
          // Absent: the redo of a retract that removed nothing.
          const PredicateId id = catalog->Lookup(rec.name, rec.arity);
          if (id != kNoPredicate) catalog->relation(id).Retract(tuple);
          break;
        }
      }
    }
    recovery_.wal_records_replayed = scan.records.size();
    recovery_.wal_valid_bytes = scan.valid_size;
    recovery_.wal_dropped_bytes = scan.dropped_bytes;
    recovery_.wal_tail_dropped = scan.tail_dropped;
  } else {
    // Fresh database: publish a manifest before the first WAL write so a
    // reopen always finds one (a missing wal-1.log reads as empty).
    GDLOG_RETURN_IF_ERROR(WriteManifest(0, 1));
  }
  recovery_.snapshot_seq = snapshot_seq_;
  recovery_.wal_seq = wal_seq_;

  wal_.set_options({options_.fsync, options_.wal_batch_bytes,
                    options_.injector});
  GDLOG_RETURN_IF_ERROR(
      wal_.Open(WalPath(wal_seq_), wal_seq_, recovery_.wal_valid_bytes));

  SweepStaleFiles();
  open_ = true;
  return Status::OK();
}

void DurableStore::SweepStaleFiles() {
  // A crash between the manifest swap and the old-pair deletion leaves
  // unreferenced wal-*/snapshot-* files behind; drop them (best effort —
  // stale files are harmless, just wasted bytes).
  DIR* d = ::opendir(options_.dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  while (struct dirent* e = ::readdir(d)) {
    const std::string_view n(e->d_name);
    const bool wal = n.size() > 8 && n.substr(0, 4) == "wal-" &&
                     n.substr(n.size() - 4) == ".log";
    const bool snap = n.size() > 13 && n.substr(0, 9) == "snapshot-" &&
                      n.substr(n.size() - 4) == ".gds";
    if (!wal && !snap) continue;
    const std::string full = options_.dir + "/" + std::string(n);
    if (full == WalPath(wal_seq_) ||
        (snapshot_seq_ != 0 && full == SnapshotPath(snapshot_seq_))) {
      continue;
    }
    stale.push_back(full);
  }
  ::closedir(d);
  for (const std::string& path : stale) (void)RemoveFile(path);
}

// -- Mutations ----------------------------------------------------------------

Status DurableStore::Append(WalRecordType type, std::string_view name,
                            uint32_t arity, TupleView tuple) {
  if (!open_) return Status::Internal("DurableStore not open");
  GDLOG_RETURN_IF_ERROR(failed_);
  GDLOG_RETURN_IF_ERROR(wal_.Append(*store_, type, name, arity, tuple));
  ++appends_since_checkpoint_;
  return Status::OK();
}

Status DurableStore::LogCreateRelation(std::string_view name, uint32_t arity) {
  return Append(WalRecordType::kCreateRelation, name, arity, TupleView());
}

Status DurableStore::LogAddFact(std::string_view name, uint32_t arity,
                                TupleView tuple) {
  return Append(WalRecordType::kAddFact, name, arity, tuple);
}

Status DurableStore::LogRetract(std::string_view name, uint32_t arity,
                                TupleView tuple) {
  return Append(WalRecordType::kRetract, name, arity, tuple);
}

Status DurableStore::Sync() {
  if (!open_) return Status::OK();
  GDLOG_RETURN_IF_ERROR(failed_);
  return wal_.Sync();
}

Status DurableStore::MaybeCheckpoint(const Catalog& catalog,
                                     std::span<const size_t> edb_rows) {
  if (options_.checkpoint_every == 0 ||
      appends_since_checkpoint_ < options_.checkpoint_every) {
    return Status::OK();
  }
  Status st = Checkpoint(catalog, edb_rows);
  if (!st.ok()) ++checkpoint_failures_;
  return st;
}

// -- Checkpoint ---------------------------------------------------------------

Status DurableStore::Checkpoint(const Catalog& catalog,
                                std::span<const size_t> edb_rows) {
  if (!open_) return Status::Internal("DurableStore not open");
  GDLOG_RETURN_IF_ERROR(failed_);

  const uint64_t new_snapshot = snapshot_seq_ + 1;
  const uint64_t new_wal = wal_seq_ + 1;

  // 1. Encode the EDB rows from the catalog.
  uint32_t num_relations = 0;
  uint64_t num_facts = 0;
  for (const size_t rows : edb_rows) {
    num_relations += rows != 0 ? 1 : 0;
    num_facts += rows;
  }
  std::string image(kSnapMagic);
  AppendU64(&image, new_snapshot);
  AppendU32(&image, num_relations);
  for (PredicateId id = 0; id < edb_rows.size(); ++id) {
    if (edb_rows[id] == 0) continue;
    const Relation& rel = catalog.relation(id);
    AppendBytes(&image, rel.name());
    AppendU32(&image, rel.arity());
    AppendU64(&image, edb_rows[id]);
    for (RowId row = 0; row < edb_rows[id]; ++row) {
      for (const Value v : rel.Row(row)) AppendValue(&image, *store_, v);
    }
  }
  AppendU32(&image, Crc32(image.data() + kSnapMagic.size(),
                          image.size() - kSnapMagic.size()));

  // The image buffer is charged to the budget while it lives.
  Status st;
  if (options_.budget != nullptr) {
    try {
      options_.budget->Update(&charged_, image.size());
    } catch (const std::bad_alloc&) {
      // The alloc fault probe (or a genuinely exhausted heap) fires
      // inside Update; surface it as a Status like every other
      // durability failure.
      st = Status::OutOfMemory(
          "[GD206] allocation failure charging a checkpoint image");
    }
  }
  bool manifest_renamed = false;
  if (st.ok()) st = [&]() -> Status {
    if (options_.injector != nullptr &&
        options_.injector->Hit(FaultInjector::kCheckpointWrite)) {
      return Status::RuntimeError(
          "[GD210] injected checkpoint write fault for '" +
          SnapshotPath(new_snapshot) + "'");
    }

    // 2. Snapshot: temp + fsync + rename + fsync(dir).
    const std::string snap_path = SnapshotPath(new_snapshot);
    const std::string snap_tmp = snap_path + ".tmp";
    {
      GDLOG_ASSIGN_OR_RETURN(FileHandle f, OpenTrunc(snap_tmp));
      GDLOG_RETURN_IF_ERROR(WriteFully(f, image.data(), image.size(), 0));
      GDLOG_RETURN_IF_ERROR(Fsync(f));
      GDLOG_RETURN_IF_ERROR(f.Close());
    }
    GDLOG_RETURN_IF_ERROR(RenameFile(snap_tmp, snap_path));
    GDLOG_RETURN_IF_ERROR(FsyncDir(options_.dir));

    // 3. Start the next WAL before the manifest can name it.
    WalWriter next;
    next.set_options({options_.fsync, options_.wal_batch_bytes,
                      options_.injector});
    GDLOG_RETURN_IF_ERROR(next.Open(WalPath(new_wal), new_wal, 0));
    GDLOG_RETURN_IF_ERROR(next.Sync());
    GDLOG_RETURN_IF_ERROR(FsyncDir(options_.dir));

    // 4. The swap: after this rename the new pair is in force.
    GDLOG_RETURN_IF_ERROR(
        WriteManifest(new_snapshot, new_wal, &manifest_renamed));

    // 5. Commit the in-memory view before any retire I/O, and treat the
    //    old pair as best-effort cleanup: the old WAL is superseded, so
    //    even its close/sync failing is moot, and stale files from a
    //    failed delete are swept on reopen.
    const std::string old_wal = WalPath(wal_seq_);
    const std::string old_snap =
        snapshot_seq_ != 0 ? SnapshotPath(snapshot_seq_) : std::string();
    (void)wal_.Close();
    wal_ = std::move(next);
    snapshot_seq_ = new_snapshot;
    wal_seq_ = new_wal;
    appends_since_checkpoint_ = 0;
    ++checkpoints_;
    last_checkpoint_bytes_ = image.size();
    last_checkpoint_facts_ = num_facts;
    (void)RemoveFile(old_wal);
    if (!old_snap.empty()) (void)RemoveFile(old_snap);
    return Status::OK();
  }();

  if (!st.ok() && manifest_renamed) {
    // The on-disk MANIFEST already names the new (empty) WAL while this
    // process would keep appending to the retired one — those appends
    // would be acknowledged and then vanish on reopen. Nothing after
    // the rename can be trusted, so refuse all further mutations.
    Latch(st);
  }
  if (options_.budget != nullptr) options_.budget->Update(&charged_, 0);
  return st;
}

Status DurableStore::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  return wal_.Close();
}

DurableStore::Stats DurableStore::stats() const {
  Stats s;
  s.wal_appends = wal_.appends();
  s.wal_fsyncs = wal_.fsyncs();
  s.wal_bytes_appended = wal_.bytes_appended();
  s.wal_size_bytes = wal_.size_bytes();
  s.checkpoints = checkpoints_;
  s.checkpoint_bytes = last_checkpoint_bytes_;
  s.checkpoint_facts = last_checkpoint_facts_;
  s.checkpoint_failures = checkpoint_failures_;
  return s;
}

}  // namespace gdlog

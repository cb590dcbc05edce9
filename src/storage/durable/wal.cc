#include "storage/durable/wal.h"

#include <cstring>

#include "common/guardrails.h"

namespace gdlog {

namespace {

// Value wire tags (independent of ValueKind's numeric values, which are
// an in-memory detail).
constexpr uint8_t kTagInt = 0;
constexpr uint8_t kTagSymbol = 1;
constexpr uint8_t kTagTerm = 2;
constexpr uint8_t kTagNil = 3;

Status CorruptStatus(std::string msg) {
  return Status::RuntimeError("[GD211] " + std::move(msg));
}

}  // namespace

std::string_view FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "batch";
}

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "off") return FsyncPolicy::kOff;
  return Status::InvalidArgument("unknown fsync policy '" + std::string(name) +
                                 "' (expected always, batch, or off)");
}

// -- Codec -------------------------------------------------------------------

void AppendU32(std::string* buf, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf->append(b, 4);
}

void AppendU64(std::string* buf, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf->append(b, 8);
}

void AppendBytes(std::string* buf, std::string_view s) {
  AppendU32(buf, static_cast<uint32_t>(s.size()));
  buf->append(s.data(), s.size());
}

void AppendValue(std::string* buf, const ValueStore& store, Value v) {
  switch (v.kind()) {
    case ValueKind::kInt:
      buf->push_back(static_cast<char>(kTagInt));
      AppendU64(buf, static_cast<uint64_t>(v.AsInt()));
      return;
    case ValueKind::kSymbol:
      buf->push_back(static_cast<char>(kTagSymbol));
      AppendBytes(buf, store.SymbolName(v));
      return;
    case ValueKind::kTerm: {
      buf->push_back(static_cast<char>(kTagTerm));
      const TermId id = v.AsTermId();
      AppendBytes(buf, store.SymbolName(store.TermFunctor(id)));
      const std::span<const Value> args = store.TermArgs(id);
      AppendU32(buf, static_cast<uint32_t>(args.size()));
      for (Value a : args) AppendValue(buf, store, a);
      return;
    }
    case ValueKind::kNil:
      buf->push_back(static_cast<char>(kTagNil));
      return;
  }
}

Status ByteReader::ReadU32(uint32_t* v) {
  if (size - pos < 4) return CorruptStatus("truncated u32 field");
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  pos += 4;
  *v = r;
  return Status::OK();
}

Status ByteReader::ReadU64(uint64_t* v) {
  if (size - pos < 8) return CorruptStatus("truncated u64 field");
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  pos += 8;
  *v = r;
  return Status::OK();
}

Status ByteReader::ReadBytes(size_t n, std::string_view* s) {
  if (size - pos < n) return CorruptStatus("truncated byte field");
  *s = std::string_view(data + pos, n);
  pos += n;
  return Status::OK();
}

Status ByteReader::ReadValue(ValueStore* store, Value* v, int depth) {
  if (depth > kMaxValueNesting) {
    return CorruptStatus("term nesting exceeds " +
                         std::to_string(kMaxValueNesting) + " levels");
  }
  if (AtEnd()) return CorruptStatus("truncated value tag");
  const uint8_t tag = static_cast<unsigned char>(data[pos++]);
  switch (tag) {
    case kTagInt: {
      uint64_t bits = 0;
      GDLOG_RETURN_IF_ERROR(ReadU64(&bits));
      const int64_t i = static_cast<int64_t>(bits);
      if (!Value::IntInRange(i)) {
        return CorruptStatus("int value out of range: " + std::to_string(i));
      }
      *v = Value::Int(i);
      return Status::OK();
    }
    case kTagSymbol: {
      uint32_t len = 0;
      GDLOG_RETURN_IF_ERROR(ReadU32(&len));
      std::string_view name;
      GDLOG_RETURN_IF_ERROR(ReadBytes(len, &name));
      *v = store->MakeSymbol(name);
      return Status::OK();
    }
    case kTagTerm: {
      uint32_t len = 0;
      GDLOG_RETURN_IF_ERROR(ReadU32(&len));
      std::string_view functor;
      GDLOG_RETURN_IF_ERROR(ReadBytes(len, &functor));
      // Copy out: MakeSymbol below may grow the table args point into.
      const std::string functor_copy(functor);
      uint32_t argc = 0;
      GDLOG_RETURN_IF_ERROR(ReadU32(&argc));
      if (argc > size - pos) {  // each arg is at least one tag byte
        return CorruptStatus("term arg count exceeds remaining bytes");
      }
      std::vector<Value> args(argc);
      for (uint32_t i = 0; i < argc; ++i) {
        GDLOG_RETURN_IF_ERROR(ReadValue(store, &args[i], depth + 1));
      }
      *v = store->MakeTerm(functor_copy, args);
      return Status::OK();
    }
    case kTagNil:
      *v = Value::Nil();
      return Status::OK();
    default:
      return CorruptStatus("unknown value tag " + std::to_string(tag));
  }
}

namespace {

// type + payload for one record (the bytes the CRC covers).
std::string EncodeBody(const ValueStore& store, WalRecordType type,
                       std::string_view name, uint32_t arity,
                       TupleView tuple) {
  std::string body;
  body.push_back(static_cast<char>(type));
  AppendBytes(&body, name);
  AppendU32(&body, arity);
  if (type != WalRecordType::kCreateRelation) {
    for (Value v : tuple) AppendValue(&body, store, v);
  }
  return body;
}

Status DecodeBody(std::string_view body, ValueStore* store, WalRecord* out) {
  ByteReader r{body.data(), body.size(), 0};
  if (r.AtEnd()) return CorruptStatus("empty record body");
  const uint8_t type = static_cast<unsigned char>(body[r.pos++]);
  if (type < 1 || type > 3) {
    return CorruptStatus("unknown record type " + std::to_string(type));
  }
  out->type = static_cast<WalRecordType>(type);
  uint32_t name_len = 0;
  GDLOG_RETURN_IF_ERROR(r.ReadU32(&name_len));
  std::string_view name;
  GDLOG_RETURN_IF_ERROR(r.ReadBytes(name_len, &name));
  out->name.assign(name);
  GDLOG_RETURN_IF_ERROR(r.ReadU32(&out->arity));
  out->tuple.clear();
  if (out->type != WalRecordType::kCreateRelation) {
    if (out->arity > r.size - r.pos) {  // each value is at least one byte
      return CorruptStatus("record arity " + std::to_string(out->arity) +
                           " exceeds its remaining bytes");
    }
    out->tuple.resize(out->arity);
    for (uint32_t i = 0; i < out->arity; ++i) {
      GDLOG_RETURN_IF_ERROR(r.ReadValue(store, &out->tuple[i]));
    }
  }
  if (!r.AtEnd()) return CorruptStatus("trailing bytes in record body");
  return Status::OK();
}

std::string EncodeHeader(uint64_t wal_seq) {
  std::string h(kWalMagic);
  h.push_back('\0');
  AppendU64(&h, wal_seq);
  return h;
}

}  // namespace

// -- Writer ------------------------------------------------------------------

Status WalWriter::Open(const std::string& path, uint64_t wal_seq,
                       uint64_t valid_size) {
  failed_ = Status::OK();
  uint64_t on_disk = 0;
  GDLOG_ASSIGN_OR_RETURN(file_, OpenAppend(path, &on_disk));
  if (on_disk < kWalHeaderSize || valid_size < kWalHeaderSize) {
    // Fresh file, or a crash mid-creation left a partial header: start
    // the log over (an unreadable header means no records survived).
    if (on_disk != 0) {
      GDLOG_RETURN_IF_ERROR(TruncateFile(file_, 0));
    }
    const std::string header = EncodeHeader(wal_seq);
    GDLOG_RETURN_IF_ERROR(WriteFully(file_, header.data(), header.size(), 0));
    size_ = header.size();
    unsynced_bytes_ += header.size();
    return Status::OK();
  }
  if (on_disk > valid_size) {
    // Drop the torn tail recovery identified, so new appends land right
    // after the last valid record (O_APPEND writes at the new end).
    GDLOG_RETURN_IF_ERROR(TruncateFile(file_, valid_size));
    GDLOG_RETURN_IF_ERROR(Fsync(file_));
  }
  size_ = valid_size;
  return Status::OK();
}

Status WalWriter::Append(const ValueStore& store, WalRecordType type,
                         std::string_view name, uint32_t arity,
                         TupleView tuple) {
  if (!file_.open()) {
    return Status::RuntimeError("[GD210] WAL append on closed log");
  }
  GDLOG_RETURN_IF_ERROR(failed_);
  const std::string body = EncodeBody(store, type, name, arity, tuple);
  std::string rec;
  rec.reserve(8 + body.size());
  AppendU32(&rec, Crc32(body.data(), body.size()));
  AppendU32(&rec, static_cast<uint32_t>(body.size()));
  rec += body;

  if (options_.injector != nullptr &&
      options_.injector->Hit(FaultInjector::kWalAppend)) {
    // Simulate a torn write: a prefix of the record reaches the file,
    // then the append fails. size_ is NOT advanced, so recovery (and a
    // reopened writer) treats the prefix as garbage past the valid end.
    // The torn bytes sit at the physical EOF, where O_APPEND would put
    // the next record AFTER them and recovery — which stops at the
    // first bad checksum — would then drop every later (acknowledged,
    // even fsync'd) append. A crashed process cannot keep appending;
    // neither do we: the writer latches until reopened.
    const size_t torn = rec.size() / 2;
    (void)WriteFully(file_, rec.data(), torn, size_);
    failed_ = Status::RuntimeError(
        "[GD210] WAL '" + file_.path() + "' closed to appends: torn write at "
        "offset " + std::to_string(size_) + "; reopen to recover");
    return Status::RuntimeError(
        "[GD210] injected WAL append fault for '" + file_.path() +
        "' at offset " + std::to_string(size_) + " (torn write of " +
        std::to_string(torn) + "/" + std::to_string(rec.size()) + " bytes)");
  }

  const Status write = WriteFully(file_, rec.data(), rec.size(), size_);
  if (!write.ok()) {
    // A real partial write (ENOSPC, I/O error) leaves garbage at the
    // physical EOF. Restore EOF == size_ so later appends land where
    // recovery will look for them; if even that fails, latch the writer
    // so no append can ever follow the garbage.
    const Status trunc = TruncateFile(file_, size_);
    if (!trunc.ok()) {
      failed_ = Status::RuntimeError(
          "[GD210] WAL '" + file_.path() + "' closed to appends: failed "
          "append left untruncatable bytes at offset " +
          std::to_string(size_) + " (" + trunc.message() +
          "); reopen to recover");
    }
    return write;
  }
  size_ += rec.size();
  unsynced_bytes_ += rec.size();
  ++appends_;
  bytes_appended_ += rec.size();

  if (options_.fsync == FsyncPolicy::kAlways ||
      (options_.fsync == FsyncPolicy::kBatch &&
       unsynced_bytes_ >= options_.batch_bytes)) {
    return Sync();
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (!file_.open() || unsynced_bytes_ == 0) return Status::OK();
  if (options_.fsync == FsyncPolicy::kOff) {
    unsynced_bytes_ = 0;  // the OS owns flushing; nothing to account
    return Status::OK();
  }
  if (options_.injector != nullptr &&
      options_.injector->Hit(FaultInjector::kWalFsync)) {
    return Status::RuntimeError("[GD210] injected WAL fsync fault for '" +
                                file_.path() + "'");
  }
  GDLOG_RETURN_IF_ERROR(Fsync(file_));
  unsynced_bytes_ = 0;
  ++fsyncs_;
  return Status::OK();
}

Status WalWriter::Close() {
  if (!file_.open()) return Status::OK();
  Status sync = Sync();
  Status close = file_.Close();
  GDLOG_RETURN_IF_ERROR(sync);
  return close;
}

// -- Reader ------------------------------------------------------------------

Result<WalScan> ReadWal(const std::string& path, uint64_t expected_seq,
                        ValueStore* store) {
  WalScan scan;
  if (!FileExists(path)) return scan;

  std::string bytes;
  GDLOG_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  if (bytes.size() < kWalHeaderSize) {
    // A header never hits the disk partially in normal operation (it is
    // the first write to a fresh file), but a crash during creation can
    // leave one; treat it as an empty log.
    scan.tail_dropped = !bytes.empty();
    scan.dropped_bytes = bytes.size();
    return scan;
  }
  if (std::string_view(bytes.data(), kWalMagic.size()) != kWalMagic ||
      bytes[kWalMagic.size()] != '\0') {
    return CorruptStatus("bad WAL magic in '" + path + "'");
  }
  ByteReader header{bytes.data(), bytes.size(), kWalMagic.size() + 1};
  uint64_t seq = 0;
  GDLOG_RETURN_IF_ERROR(header.ReadU64(&seq));
  if (seq != expected_seq) {
    return CorruptStatus("WAL sequence mismatch in '" + path + "': log has " +
                         std::to_string(seq) + ", manifest expects " +
                         std::to_string(expected_seq));
  }

  size_t pos = kWalHeaderSize;
  scan.valid_size = pos;
  while (pos < bytes.size()) {
    ByteReader r{bytes.data(), bytes.size(), pos};
    uint32_t crc = 0, len = 0;
    if (!r.ReadU32(&crc).ok() || !r.ReadU32(&len).ok() ||
        bytes.size() - r.pos < len) {
      break;  // truncated frame: end of the valid prefix
    }
    const std::string_view body(bytes.data() + r.pos, len);
    if (Crc32(body.data(), body.size()) != crc) break;  // torn record
    WalRecord rec;
    if (!DecodeBody(body, store, &rec).ok()) break;  // undecodable body
    scan.records.push_back(std::move(rec));
    pos = r.pos + len;
    scan.valid_size = pos;
  }
  scan.dropped_bytes = bytes.size() - scan.valid_size;
  scan.tail_dropped = scan.dropped_bytes > 0;
  return scan;
}

}  // namespace gdlog

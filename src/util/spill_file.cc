#include "util/spill_file.h"

#include <atomic>
#include <cstring>
#include <filesystem>

#include <unistd.h>

#include "util/crc32.h"
#include "util/status.h"

namespace ssql {

namespace {

// Serialization tags; one per spillable Value alternative.
enum : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt32 = 2,
  kTagInt64 = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagDecimal = 6,
  kTagDate = 7,
  kTagTimestamp = 8,
  kTagArray = 9,
  kTagStruct = 10,
  kTagMap = 11,
};

template <typename T>
void PutRaw(std::string* buf, T v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void SerializeValue(const Value& v, std::string* buf) {
  switch (v.type_id()) {
    case TypeId::kNull:
      buf->push_back(static_cast<char>(kTagNull));
      return;
    case TypeId::kBoolean:
      buf->push_back(static_cast<char>(kTagBool));
      buf->push_back(v.bool_value() ? 1 : 0);
      return;
    case TypeId::kInt32:
      buf->push_back(static_cast<char>(kTagInt32));
      PutRaw(buf, v.i32());
      return;
    case TypeId::kInt64:
      buf->push_back(static_cast<char>(kTagInt64));
      PutRaw(buf, v.i64());
      return;
    case TypeId::kDouble:
      buf->push_back(static_cast<char>(kTagDouble));
      PutRaw(buf, v.f64());
      return;
    case TypeId::kString:
      buf->push_back(static_cast<char>(kTagString));
      PutRaw(buf, static_cast<uint32_t>(v.str().size()));
      buf->append(v.str());
      return;
    case TypeId::kDecimal:
      buf->push_back(static_cast<char>(kTagDecimal));
      PutRaw(buf, v.decimal().unscaled());
      PutRaw(buf, static_cast<int32_t>(v.decimal().precision()));
      PutRaw(buf, static_cast<int32_t>(v.decimal().scale()));
      return;
    case TypeId::kDate:
      buf->push_back(static_cast<char>(kTagDate));
      PutRaw(buf, v.date().days);
      return;
    case TypeId::kTimestamp:
      buf->push_back(static_cast<char>(kTagTimestamp));
      PutRaw(buf, v.timestamp().micros);
      return;
    case TypeId::kArray: {
      buf->push_back(static_cast<char>(kTagArray));
      const auto& elems = v.array().elements;
      PutRaw(buf, static_cast<uint32_t>(elems.size()));
      for (const Value& e : elems) SerializeValue(e, buf);
      return;
    }
    case TypeId::kStruct: {
      buf->push_back(static_cast<char>(kTagStruct));
      const auto& fields = v.struct_data().fields;
      PutRaw(buf, static_cast<uint32_t>(fields.size()));
      for (const Value& f : fields) SerializeValue(f, buf);
      return;
    }
    case TypeId::kMap: {
      buf->push_back(static_cast<char>(kTagMap));
      const auto& entries = v.map().entries;
      PutRaw(buf, static_cast<uint32_t>(entries.size()));
      for (const auto& [k, val] : entries) {
        SerializeValue(k, buf);
        SerializeValue(val, buf);
      }
      return;
    }
    default:
      throw ExecutionError(
          "cannot spill value of an opaque user-defined type to disk");
  }
}

template <typename T>
T ReadRaw(std::ifstream* in, const std::string& path) {
  T v;
  if (!in->read(reinterpret_cast<char*>(&v), sizeof(v))) {
    throw IoError("truncated spill file: " + path);
  }
  return v;
}

/// Frame-payload cursor. Deserialization is buffer-based (the whole frame
/// is read and checksum-verified before any value is parsed), so every read
/// is bounds-checked against the frame — a lying length inside a frame that
/// somehow passed the CRC still cannot read out of bounds.
template <typename T>
T ReadBuf(const std::string& buf, size_t* pos, const std::string& path) {
  if (buf.size() - *pos < sizeof(T)) {
    throw IoError("corrupt spill frame (truncated value): " + path);
  }
  T v;
  std::memcpy(&v, buf.data() + *pos, sizeof(v));
  *pos += sizeof(v);
  return v;
}

Value DeserializeValue(const std::string& buf, size_t* pos,
                       const std::string& path) {
  uint8_t tag = ReadBuf<uint8_t>(buf, pos, path);
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagBool:
      return Value(ReadBuf<uint8_t>(buf, pos, path) != 0);
    case kTagInt32:
      return Value(ReadBuf<int32_t>(buf, pos, path));
    case kTagInt64:
      return Value(ReadBuf<int64_t>(buf, pos, path));
    case kTagDouble:
      return Value(ReadBuf<double>(buf, pos, path));
    case kTagString: {
      uint32_t n = ReadBuf<uint32_t>(buf, pos, path);
      if (buf.size() - *pos < n) {
        throw IoError("corrupt spill frame (truncated string): " + path);
      }
      std::string s(buf, *pos, n);
      *pos += n;
      return Value(std::move(s));
    }
    case kTagDecimal: {
      int64_t unscaled = ReadBuf<int64_t>(buf, pos, path);
      int32_t precision = ReadBuf<int32_t>(buf, pos, path);
      int32_t scale = ReadBuf<int32_t>(buf, pos, path);
      return Value(Decimal(unscaled, precision, scale));
    }
    case kTagDate:
      return Value(DateValue{ReadBuf<int32_t>(buf, pos, path)});
    case kTagTimestamp:
      return Value(TimestampValue{ReadBuf<int64_t>(buf, pos, path)});
    case kTagArray: {
      uint32_t n = ReadBuf<uint32_t>(buf, pos, path);
      std::vector<Value> elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        elems.push_back(DeserializeValue(buf, pos, path));
      }
      return Value::Array(std::move(elems));
    }
    case kTagStruct: {
      uint32_t n = ReadBuf<uint32_t>(buf, pos, path);
      std::vector<Value> fields;
      fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        fields.push_back(DeserializeValue(buf, pos, path));
      }
      return Value::Struct(std::move(fields));
    }
    case kTagMap: {
      uint32_t n = ReadBuf<uint32_t>(buf, pos, path);
      std::vector<std::pair<Value, Value>> entries;
      entries.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Value k = DeserializeValue(buf, pos, path);
        Value v = DeserializeValue(buf, pos, path);
        entries.emplace_back(std::move(k), std::move(v));
      }
      return Value::Map(std::move(entries));
    }
    default:
      throw IoError("corrupt spill file (bad value tag): " + path);
  }
}

/// Upper bound on one frame's payload. A length past this is header rot,
/// not a real row — fail before resize() tries to allocate a wild size.
constexpr uint32_t kMaxSpillFrameBytes = 1u << 30;

}  // namespace

int64_t EstimateValueBytes(const Value& v) {
  // sizeof(Value) covers the variant's inline alternatives.
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  switch (v.type_id()) {
    case TypeId::kString:
      return bytes + static_cast<int64_t>(v.str().size());
    case TypeId::kArray: {
      for (const Value& e : v.array().elements) bytes += EstimateValueBytes(e);
      return bytes + 32;  // ArrayData box + control block
    }
    case TypeId::kStruct: {
      for (const Value& f : v.struct_data().fields) bytes += EstimateValueBytes(f);
      return bytes + 32;
    }
    case TypeId::kMap: {
      for (const auto& [k, val] : v.map().entries) {
        bytes += EstimateValueBytes(k) + EstimateValueBytes(val);
      }
      return bytes + 32;
    }
    default:
      return bytes;
  }
}

int64_t EstimateRowBytes(const Row& row) {
  int64_t bytes = static_cast<int64_t>(sizeof(Row));
  for (const Value& v : row.values()) bytes += EstimateValueBytes(v);
  return bytes;
}

void DiskQuota::Configure(int64_t limit_bytes, DiskQuota* parent) {
  limit_.store(limit_bytes < 0 ? -1 : limit_bytes, std::memory_order_relaxed);
  used_.store(0, std::memory_order_relaxed);
  parent_ = parent;
}

bool DiskQuota::TryCharge(int64_t bytes) {
  if (bytes <= 0) return true;
  int64_t limit = limit_.load(std::memory_order_relaxed);
  int64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limit >= 0 && now > limit) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  if (parent_ != nullptr && !parent_->TryCharge(bytes)) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void DiskQuota::Release(int64_t bytes) {
  if (bytes <= 0) return;
  used_.fetch_sub(bytes, std::memory_order_relaxed);
  if (parent_ != nullptr) parent_->Release(bytes);
}

namespace {

///// Quota-charge granularity: amortizes the (shared, engine-wide) quota
/// atomics over many small row appends, like kMemoryReserveChunkBytes does
/// for the memory pool.
constexpr int64_t kDiskChargeChunkBytes = 256 * 1024;

}  // namespace

SpillFile::SpillFile(const std::string& dir, const std::string& prefix)
    : SpillFile(dir, prefix, Hooks()) {}

SpillFile::SpillFile(const std::string& dir, const std::string& prefix,
                     Hooks hooks)
    : hooks_(std::move(hooks)) {
  static std::atomic<uint64_t> counter{0};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create spill directory '" + dir + "': " + ec.message());
  }
  path_ = dir + "/" + prefix + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1)) + ".spill";
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw IoError("cannot open spill file '" + path_ + "' for writing");
  }
  if (hooks_.journal != nullptr) {
    hooks_.journal->Emit(EngineEventKind::kSpillOpen, EventSeverity::kInfo,
                         hooks_.query_id, 0,
                         hooks_.consumer.empty() ? "spill" : hooks_.consumer);
  }
}

SpillFile::~SpillFile() {
  if (path_.empty()) return;  // moved-from
  if (out_.is_open()) out_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort; never throws
  if (hooks_.quota != nullptr) hooks_.quota->Release(charged_);
}

void SpillFile::ChargeQuota() {
  if (hooks_.quota == nullptr || bytes_ <= charged_) return;
  // Round the deficit up to whole chunks so per-row appends settle into one
  // quota touch every kDiskChargeChunkBytes of spill.
  int64_t deficit = bytes_ - charged_;
  int64_t chunks = (deficit + kDiskChargeChunkBytes - 1) / kDiskChargeChunkBytes;
  int64_t grant = chunks * kDiskChargeChunkBytes;
  if (!hooks_.quota->TryCharge(grant)) {
    // Exact deficit as the fallback before giving up, so a nearly-full
    // quota still admits the tail of a run.
    grant = deficit;
    if (!hooks_.quota->TryCharge(grant)) {
      const std::string stage =
          hooks_.consumer.empty() ? "spill" : hooks_.consumer;
      // Report the level whose limit was actually hit (the engine-wide pool
      // for a default per-query quota, which itself is unlimited).
      const DiskQuota* limiting = hooks_.quota->LimitingLevel();
      const int64_t used = limiting ? limiting->used_bytes() : 0;
      const int64_t limit = limiting ? limiting->limit_bytes() : 0;
      throw ResourceExhausted(
          "spill disk quota exhausted in stage '" + stage + "' writing '" +
          path_ + "': " + std::to_string(used) +
          " bytes of spill live against a limit of " + std::to_string(limit) +
          " (raise EngineConfig::spill_disk_limit_bytes or reduce "
          "concurrency)");
    }
  }
  charged_ += grant;
}

int64_t SpillFile::Append(const Row& row) {
  if (hooks_.faults != nullptr) hooks_.faults->MaybeFail("spill.write", path_);
  if (!out_) {
    throw IoError("spill file '" + path_ +
                  "' is in a failed state (earlier write error?)");
  }
  buffer_.clear();
  PutRaw(&buffer_, static_cast<uint32_t>(row.size()));
  for (const Value& v : row.values()) SerializeValue(v, &buffer_);
  // Frame header: payload length + CRC-32 of the payload, so any bit that
  // rots on disk (or is flipped by a corrupt fault) surfaces as a checksum
  // IoError on read — never as silently wrong rows.
  char header[8];
  const uint32_t len = static_cast<uint32_t>(buffer_.size());
  const uint32_t crc = Crc32(buffer_);
  std::memcpy(header, &len, sizeof(len));
  std::memcpy(header + sizeof(len), &crc, sizeof(crc));
  // Charge the quota before the bytes land so exhaustion fails the append
  // without growing the file past the budget.
  const int64_t frame_bytes = static_cast<int64_t>(sizeof(header)) + len;
  bytes_ += frame_bytes;
  ChargeQuota();
  out_.write(header, sizeof(header));
  out_.write(buffer_.data(), static_cast<std::streamsize>(len));
  if (!out_) {
    throw IoError("write to spill file '" + path_ + "' failed (disk full?)");
  }
  ++rows_;
  return frame_bytes;
}

void SpillFile::FinishWrites() {
  if (!out_.is_open()) return;
  if (hooks_.faults != nullptr) hooks_.faults->MaybeFail("spill.write", path_);
  out_.flush();
  if (!out_) {
    throw IoError("flush of spill file '" + path_ + "' failed (disk full?)");
  }
  out_.close();
  if (out_.fail()) {
    throw IoError("close of spill file '" + path_ +
                  "' failed (deferred write error?)");
  }
  if (hooks_.journal != nullptr) {
    // One write-summary event per finished run (per-Append events would
    // flood the ring); `value` carries the run's total bytes.
    hooks_.journal->Emit(EngineEventKind::kSpillWrite, EventSeverity::kDebug,
                         hooks_.query_id, bytes_,
                         hooks_.consumer.empty() ? "spill" : hooks_.consumer);
  }
}

SpillFile::Reader::Reader(const SpillFile& file)
    : path_(file.path()),
      remaining_(file.row_count()),
      faults_(file.hooks_.faults),
      journal_(file.hooks_.journal),
      query_id_(file.hooks_.query_id) {
  if (faults_ != nullptr) faults_->MaybeFail("spill.read", path_);
  in_.open(path_, std::ios::binary);
  if (!in_) {
    throw IoError("cannot open spill file '" + path_ + "' for reading");
  }
}

bool SpillFile::Reader::Next(Row* row) {
  if (remaining_ == 0) return false;
  if (faults_ != nullptr) faults_->MaybeFail("spill.read", path_);
  --remaining_;
  const uint32_t len = ReadRaw<uint32_t>(&in_, path_);
  const uint32_t expected_crc = ReadRaw<uint32_t>(&in_, path_);
  if (len > kMaxSpillFrameBytes) {
    throw IoError("corrupt spill file (implausible frame length " +
                  std::to_string(len) + "): " + path_);
  }
  frame_.resize(len);
  if (len > 0 && !in_.read(frame_.data(), len)) {
    throw IoError("truncated spill file: " + path_);
  }
  // Injected rot flips a payload bit after the read and before the checksum
  // below, so a corrupt fault exercises exactly the detection path real bit
  // rot would take.
  if (faults_ != nullptr) faults_->MaybeCorrupt("spill.read", &frame_);
  const uint32_t actual_crc = Crc32(frame_);
  if (actual_crc != expected_crc) {
    if (journal_ != nullptr) {
      journal_->Emit(EngineEventKind::kSpillChecksumFail,
                     EventSeverity::kError, query_id_,
                     static_cast<int64_t>(len), path_);
    }
    throw IoError("spill frame checksum mismatch in '" + path_ +
                  "' (stored " + std::to_string(expected_crc) + ", computed " +
                  std::to_string(actual_crc) +
                  "): corrupted spill bytes detected");
  }
  size_t pos = 0;
  const uint32_t n = ReadBuf<uint32_t>(frame_, &pos, path_);
  Row out;
  out.Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    out.Append(DeserializeValue(frame_, &pos, path_));
  }
  if (pos != frame_.size()) {
    throw IoError("corrupt spill frame (trailing bytes): " + path_);
  }
  *row = std::move(out);
  return true;
}

}  // namespace ssql

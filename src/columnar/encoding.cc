#include "columnar/encoding.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "util/status.h"

namespace ssql {

namespace {

enum class Bank : uint8_t { kInt, kDouble, kString, kBoxed };

/// A dictionary code marking a null row.
constexpr uint32_t kNullCode = 0xFFFFFFFFu;

Bank BankFor(const DataType& t) {
  switch (t.id()) {
    case TypeId::kBoolean:
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate:
    case TypeId::kTimestamp:
    case TypeId::kDecimal:
      return Bank::kInt;
    case TypeId::kDouble:
      return Bank::kDouble;
    case TypeId::kString:
      return Bank::kString;
    default:
      return Bank::kBoxed;
  }
}

// --- little byte writer/reader -------------------------------------------

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutI64(std::vector<uint8_t>* out, int64_t v) {
  uint64_t u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(u >> (8 * i)));
}
void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t u;
  std::memcpy(&u, &v, 8);
  PutI64(out, static_cast<int64_t>(u));
}
void PutStr(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

struct Reader {
  const uint8_t* p;
  size_t n;
  size_t pos = 0;

  /// Every read is bounds-checked: a truncated buffer (file cut mid-write,
  /// short read) must surface as IoError, never as out-of-bounds indexing.
  void Need(size_t k) const {
    if (pos > n || n - pos < k) {
      throw IoError("truncated columnar data (need " + std::to_string(k) +
                    " bytes at offset " + std::to_string(pos) + ", have " +
                    std::to_string(pos > n ? 0 : n - pos) + ")");
    }
  }

  uint8_t U8() {
    Need(1);
    return p[pos++];
  }
  uint32_t U32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[pos++]) << (8 * i);
    return v;
  }
  int64_t I64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[pos++]) << (8 * i);
    return static_cast<int64_t>(v);
  }
  double F64() {
    uint64_t u = static_cast<uint64_t>(I64());
    double d;
    std::memcpy(&d, &u, 8);
    return d;
  }
  std::string Str() {
    uint32_t len = U32();
    Need(len);
    std::string s(reinterpret_cast<const char*>(p + pos), len);
    pos += len;
    return s;
  }
};

// --- per-bank generic value IO --------------------------------------------

void PutBankValue(std::vector<uint8_t>* out, Bank bank, const ColumnVector& col,
                  size_t i) {
  switch (bank) {
    case Bank::kInt:
      PutI64(out, col.GetInt64(i));
      break;
    case Bank::kDouble:
      PutF64(out, col.GetDouble(i));
      break;
    case Bank::kString:
      PutStr(out, col.GetString(i));
      break;
    case Bank::kBoxed:
      break;
  }
}

Value ReadBankValue(Reader* r, Bank bank, const DataTypePtr& type) {
  switch (bank) {
    case Bank::kInt: {
      int64_t v = r->I64();
      switch (type->id()) {
        case TypeId::kBoolean:
          return Value(v != 0);
        case TypeId::kInt32:
          return Value(static_cast<int32_t>(v));
        case TypeId::kDate:
          return Value(DateValue{static_cast<int32_t>(v)});
        case TypeId::kTimestamp:
          return Value(TimestampValue{v});
        case TypeId::kDecimal: {
          const auto& dt = AsDecimal(*type);
          return Value(Decimal(v, dt.precision(), dt.scale()));
        }
        default:
          return Value(v);
      }
    }
    case Bank::kDouble:
      return Value(r->F64());
    case Bank::kString:
      return Value(r->Str());
    case Bank::kBoxed:
      return Value::Null();
  }
  return Value::Null();
}

/// Key used to compare/group values of one column cheaply.
std::string RunKey(const ColumnVector& col, Bank bank, size_t i) {
  if (col.IsNull(i)) return std::string("\x01");
  switch (bank) {
    case Bank::kInt: {
      int64_t v = col.GetInt64(i);
      return std::string(reinterpret_cast<const char*>(&v), 8);
    }
    case Bank::kDouble: {
      double v = col.GetDouble(i);
      return std::string(reinterpret_cast<const char*>(&v), 8);
    }
    case Bank::kString:
      return "\x02" + col.GetString(i);
    case Bank::kBoxed:
      return col.boxed()[i].ToString();
  }
  return "";
}

}  // namespace

size_t EncodedColumn::MemoryBytes() const {
  size_t bytes = data.capacity() + sizeof(*this);
  for (const auto& v : boxed) {
    bytes += sizeof(Value);
    if (v.type_id() == TypeId::kString) bytes += v.str().capacity();
  }
  return bytes;
}

EncodedColumn EncodeColumnAs(const ColumnVector& column, ColumnEncoding scheme) {
  EncodedColumn out;
  out.type = column.type();
  out.num_rows = static_cast<uint32_t>(column.size());
  Bank bank = BankFor(*column.type());

  // Stats.
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.IsNull(i)) {
      out.has_nulls = true;
      continue;
    }
    Value v = column.GetValue(i);
    if (!out.min || v.Compare(*out.min) < 0) out.min = v;
    if (!out.max || v.Compare(*out.max) > 0) out.max = v;
  }

  if (bank == Bank::kBoxed || scheme == ColumnEncoding::kBoxed) {
    out.encoding = ColumnEncoding::kBoxed;
    out.boxed.reserve(column.size());
    for (size_t i = 0; i < column.size(); ++i) out.boxed.push_back(column.GetValue(i));
    return out;
  }

  out.encoding = scheme;
  switch (scheme) {
    case ColumnEncoding::kPlain: {
      for (size_t i = 0; i < column.size(); ++i) {
        PutU8(&out.data, column.IsNull(i) ? 1 : 0);
        if (!column.IsNull(i)) PutBankValue(&out.data, bank, column, i);
      }
      break;
    }
    case ColumnEncoding::kRunLength: {
      size_t i = 0;
      while (i < column.size()) {
        size_t j = i + 1;
        std::string key = RunKey(column, bank, i);
        while (j < column.size() && RunKey(column, bank, j) == key) ++j;
        PutU32(&out.data, static_cast<uint32_t>(j - i));
        PutU8(&out.data, column.IsNull(i) ? 1 : 0);
        if (!column.IsNull(i)) PutBankValue(&out.data, bank, column, i);
        i = j;
      }
      break;
    }
    case ColumnEncoding::kDictionary: {
      std::map<std::string, uint32_t> dict;  // key -> index
      std::vector<size_t> first_row;         // dict index -> sample row
      std::vector<uint32_t> codes(column.size());
      for (size_t i = 0; i < column.size(); ++i) {
        if (column.IsNull(i)) {
          codes[i] = kNullCode;
          continue;
        }
        std::string key = RunKey(column, bank, i);
        auto it = dict.find(key);
        if (it == dict.end()) {
          it = dict.emplace(key, static_cast<uint32_t>(first_row.size())).first;
          first_row.push_back(i);
        }
        codes[i] = it->second;
      }
      PutU32(&out.data, static_cast<uint32_t>(first_row.size()));
      for (size_t row : first_row) PutBankValue(&out.data, bank, column, row);
      for (uint32_t code : codes) PutU32(&out.data, code);
      break;
    }
    case ColumnEncoding::kBoxed:
      break;  // handled above
  }
  return out;
}

EncodedColumn EncodeColumn(const ColumnVector& column) {
  Bank bank = BankFor(*column.type());
  if (bank == Bank::kBoxed) return EncodeColumnAs(column, ColumnEncoding::kBoxed);
  EncodedColumn plain = EncodeColumnAs(column, ColumnEncoding::kPlain);
  EncodedColumn rle = EncodeColumnAs(column, ColumnEncoding::kRunLength);
  EncodedColumn dict = EncodeColumnAs(column, ColumnEncoding::kDictionary);
  EncodedColumn* best = &plain;
  if (rle.data.size() < best->data.size()) best = &rle;
  if (dict.data.size() < best->data.size()) best = &dict;
  return std::move(*best);
}

namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Appends one slot: a null (its lane gets a defined zero) or the next
/// value in `r`.
void AppendSlot(Reader* r, Bank bank, bool null, ChunkValues* out) {
  out->nulls.push_back(null ? 1 : 0);
  switch (bank) {
    case Bank::kInt:
      out->ints.push_back(null ? 0 : r->I64());
      break;
    case Bank::kDouble:
      out->doubles.push_back(null ? 0.0 : r->F64());
      break;
    case Bank::kString: {
      const uint32_t len = null ? 0 : r->U32();
      r->Need(len);
      out->strings.emplace_back(reinterpret_cast<const char*>(r->p + r->pos),
                                len);
      r->pos += len;
      break;
    }
    case Bank::kBoxed:
      break;
  }
}

/// Appends the value of slot `slot_of(k)` for k in [0, n) to `out`.
template <typename SlotOf>
void AppendSlots(const ChunkValues& v, size_t n, SlotOf slot_of,
                 ColumnVector* out) {
  auto each = [&](auto append) {
    for (size_t k = 0; k < n; ++k) {
      const uint32_t s = slot_of(k);
      if (v.nulls[s] != 0) {
        out->AppendNull();
      } else {
        append(s);
      }
    }
  };
  switch (BankFor(*v.column->type)) {
    case Bank::kInt:
      each([&](uint32_t s) { out->AppendInt64(v.ints[s]); });
      break;
    case Bank::kDouble:
      each([&](uint32_t s) { out->AppendDouble(v.doubles[s]); });
      break;
    case Bank::kString:
      each([&](uint32_t s) { out->AppendString(std::string(v.strings[s])); });
      break;
    case Bank::kBoxed:
      break;
  }
}

/// Appends the values of rows `row_at(k)` for k in [0, n), ascending.
template <typename RowAt>
void Gather(const ChunkValues& v, size_t n, RowAt row_at, ColumnVector* out) {
  const EncodedColumn& col = *v.column;
  out->Reserve(out->size() + n);
  switch (col.encoding) {
    case ColumnEncoding::kBoxed:
      for (size_t k = 0; k < n; ++k) out->Append(col.boxed[row_at(k)]);
      break;
    case ColumnEncoding::kPlain:
      AppendSlots(v, n, row_at, out);
      break;
    case ColumnEncoding::kDictionary:
      AppendSlots(v, n, [&](size_t k) { return v.codes[row_at(k)]; }, out);
      break;
    case ColumnEncoding::kRunLength: {
      if (n == 0) break;
      uint32_t run = static_cast<uint32_t>(
          std::upper_bound(v.run_ends.begin(), v.run_ends.end(), row_at(0)) -
          v.run_ends.begin());
      AppendSlots(v, n, [&](size_t k) {
        const uint32_t row = row_at(k);
        while (v.run_ends[run] <= row) ++run;
        return run;
      }, out);
      break;
    }
  }
}

}  // namespace

ChunkValues ReadChunkValues(const EncodedColumn& column) {
  ChunkValues out;
  out.column = &column;
  const uint32_t n = column.num_rows;
  const Bank bank = BankFor(*column.type);
  if (column.encoding == ColumnEncoding::kBoxed) {
    if (column.boxed.size() != n) {
      throw IoError("corrupt boxed column: " +
                    std::to_string(column.boxed.size()) + " values for " +
                    std::to_string(n) + " rows");
    }
    return out;
  }
  if (bank == Bank::kBoxed) {
    throw IoError("corrupt column: type " + column.type->ToString() +
                  " is stored only boxed");
  }
  Reader r{column.data.data(), column.data.size()};
  switch (column.encoding) {
    case ColumnEncoding::kPlain: {
      // Every row takes at least its null byte.
      r.Need(n);
      out.nulls.reserve(n);
      for (uint32_t i = 0; i < n; ++i) AppendSlot(&r, bank, r.U8() != 0, &out);
      break;
    }
    case ColumnEncoding::kRunLength: {
      uint32_t produced = 0;
      while (produced < n) {
        const uint32_t run = r.U32();
        if (run == 0 || run > n - produced) {
          throw IoError("corrupt run-length column: a run of " +
                        std::to_string(run) + " rows at row " +
                        std::to_string(produced) + " does not fit its " +
                        std::to_string(n) + " rows");
        }
        AppendSlot(&r, bank, r.U8() != 0, &out);
        produced += run;
        out.run_ends.push_back(produced);
      }
      break;
    }
    case ColumnEncoding::kDictionary: {
      const uint32_t size = r.U32();
      // An entry is at least an 8-byte number or a 4-byte string length.
      const size_t min_entry = bank == Bank::kString ? 4 : 8;
      if (size > (r.n - r.pos) / min_entry) {
        throw IoError("corrupt dictionary column: " + std::to_string(size) +
                      " entries cannot fit in " +
                      std::to_string(r.n - r.pos) + " bytes");
      }
      for (uint32_t i = 0; i < size; ++i) AppendSlot(&r, bank, false, &out);
      AppendSlot(&r, bank, true, &out);  // slot `size`: the null code's rows
      r.Need(size_t{n} * 4);
      out.codes.resize(n);
      const uint8_t* codes = r.p + r.pos;
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t code = LoadU32(codes + size_t{i} * 4);
        if (code == kNullCode) {
          code = size;
        } else if (code >= size) {
          throw IoError("corrupt dictionary column: code " +
                        std::to_string(code) + " at row " + std::to_string(i) +
                        " is past its " + std::to_string(size) + " entries");
        }
        out.codes[i] = code;
      }
      break;
    }
    default:
      throw IoError("corrupt column: unknown encoding " +
                    std::to_string(static_cast<int>(column.encoding)));
  }
  return out;
}

void GatherRows(const ChunkValues& values, const uint32_t* rows, size_t n,
                ColumnVector* out) {
  Gather(values, n, [rows](size_t k) { return rows[k]; }, out);
}

ColumnVector DecodeColumn(const EncodedColumn& column) {
  ColumnVector out(column.type);
  const ChunkValues values = ReadChunkValues(column);
  Gather(values, column.num_rows,
         [](size_t k) { return static_cast<uint32_t>(k); }, &out);
  return out;
}

void SerializeColumn(const EncodedColumn& column, std::string* out) {
  if (column.encoding == ColumnEncoding::kBoxed) {
    throw IoError("boxed columns cannot be serialized to disk");
  }
  std::vector<uint8_t> header;
  PutU8(&header, static_cast<uint8_t>(column.encoding));
  PutU32(&header, column.num_rows);
  PutU8(&header, column.has_nulls ? 1 : 0);
  Bank bank = BankFor(*column.type);
  auto put_stat = [&](const std::optional<Value>& v) {
    PutU8(&header, v.has_value() ? 1 : 0);
    if (!v.has_value()) return;
    switch (bank) {
      case Bank::kInt:
        PutI64(&header, v->type_id() == TypeId::kDecimal ? v->decimal().unscaled()
                                                         : v->AsInt64());
        break;
      case Bank::kDouble:
        PutF64(&header, v->f64());
        break;
      case Bank::kString:
        PutStr(&header, v->str());
        break;
      case Bank::kBoxed:
        break;
    }
  };
  put_stat(column.min);
  put_stat(column.max);
  PutU32(&header, static_cast<uint32_t>(column.data.size()));
  out->append(reinterpret_cast<const char*>(header.data()), header.size());
  out->append(reinterpret_cast<const char*>(column.data.data()),
              column.data.size());
}

EncodedColumn DeserializeColumn(const std::string& in, size_t* offset,
                                const DataTypePtr& type) {
  EncodedColumn col;
  col.type = type;
  Reader r{reinterpret_cast<const uint8_t*>(in.data()), in.size()};
  r.pos = *offset;
  const uint8_t encoding = r.U8();
  if (encoding > static_cast<uint8_t>(ColumnEncoding::kDictionary)) {
    throw IoError("corrupt column: unknown encoding " +
                  std::to_string(encoding));
  }
  col.encoding = static_cast<ColumnEncoding>(encoding);
  col.num_rows = r.U32();
  col.has_nulls = r.U8() != 0;
  Bank bank = BankFor(*type);
  auto read_stat = [&]() -> std::optional<Value> {
    if (r.U8() == 0) return std::nullopt;
    return ReadBankValue(&r, bank, type);
  };
  col.min = read_stat();
  col.max = read_stat();
  uint32_t len = r.U32();
  r.Need(len);
  col.data.assign(r.p + r.pos, r.p + r.pos + len);
  r.pos += len;
  *offset = r.pos;
  return col;
}

}  // namespace ssql

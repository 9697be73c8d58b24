#include "datasources/colf_format.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>

#include "columnar/column_vector.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace ssql {

namespace {

constexpr char kMagic[] = "COLF1";
constexpr size_t kMagicLen = 5;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const std::string& in, size_t* pos, const std::string& path) {
  // Bounds-checked: a truncated file must surface as IoError, not as
  // undefined behaviour indexing past the buffer.
  if (*pos > in.size() || in.size() - *pos < 4) {
    throw IoError("truncated colf file: " + path + " (need 4 bytes at offset " +
                  std::to_string(*pos) + ", have " +
                  std::to_string(in.size() - std::min(*pos, in.size())) + ")");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[*pos])) << (8 * i);
    ++(*pos);
  }
  return v;
}

std::string SchemaToString(const StructType& schema) {
  std::string out;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) out += ", ";
    const Field& f = schema.field(i);
    out += f.name + " " + f.type->ToString();
  }
  return out;
}

std::string ReadWholeFile(const std::string& path, const FaultPointSet& faults,
                          const IoRetryPolicy& policy) {
  std::string data;
  RunWithIoRetry(policy, "read colf '" + path + "'", [&] {
    faults.MaybeFail("source.open", path);
    std::ifstream in(path, std::ios::binary);
    if (!in.good()) throw IoError("cannot open colf file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad() || buffer.fail()) {
      // rdbuf() streaming swallows read errors; unchecked, a read failure
      // here would scan a silently truncated byte buffer.
      throw IoError("I/O error reading colf file: " + path);
    }
    data = buffer.str();
  });
  return data;
}

}  // namespace

void WriteColfFile(const std::string& path, const SchemaPtr& schema,
                   const std::vector<Row>& rows, size_t row_group_size) {
  if (row_group_size == 0) row_group_size = 4096;
  std::string out;
  out.append(kMagic, kMagicLen);
  std::string schema_str = SchemaToString(*schema);
  PutU32(&out, static_cast<uint32_t>(schema_str.size()));
  out += schema_str;
  uint32_t num_groups =
      static_cast<uint32_t>((rows.size() + row_group_size - 1) / row_group_size);
  PutU32(&out, num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    size_t begin = g * row_group_size;
    size_t end = std::min(rows.size(), begin + row_group_size);
    PutU32(&out, static_cast<uint32_t>(end - begin));
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      ColumnVector col(schema->field(c).type);
      col.Reserve(end - begin);
      for (size_t r = begin; r < end; ++r) col.Append(rows[r].Get(c));
      SerializeColumn(EncodeColumn(col), &out);
    }
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f.good()) throw IoError("cannot open colf file for write: " + path);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
}

SchemaPtr ReadColfSchema(const std::string& path) {
  // Open()-time read: no query exists yet, so use the process-global fault
  // points and retry policy (see util/fault_points.h).
  std::string data =
      ReadWholeFile(path, *GlobalFaultPoints(), GlobalIoRetryPolicy());
  if (data.size() < kMagicLen + 4 ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    throw IoError("not a colf file: " + path);
  }
  size_t pos = kMagicLen;
  uint32_t len = GetU32(data, &pos, path);
  if (pos + len > data.size()) {
    throw IoError("truncated colf file: " + path +
                  " (schema extends past end of file)");
  }
  return ParseSchemaString(data.substr(pos, len));
}

ColfRelation::ColfRelation(std::string path, SchemaPtr schema)
    : path_(std::move(path)), schema_(std::move(schema)) {}

std::shared_ptr<ColfRelation> ColfRelation::Open(const DataSourceOptions& options) {
  auto path_it = options.find("path");
  if (path_it == options.end()) {
    throw IoError("colf data source requires a 'path' option");
  }
  return std::make_shared<ColfRelation>(path_it->second,
                                        ReadColfSchema(path_it->second));
}

std::optional<uint64_t> ColfRelation::EstimatedSizeBytes() const {
  struct stat st;
  if (stat(path_.c_str(), &st) != 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

std::vector<Row> ColfRelation::ScanFiltered(
    QueryContext& ctx, const std::vector<int>& columns,
    const std::vector<FilterSpec>& filters) const {
  const FaultPointSet& faults = ctx.fault_points();
  std::string data = ReadWholeFile(path_, faults, ctx.io_retry_policy());
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    throw IoError("not a colf file: " + path_);
  }
  size_t pos = kMagicLen;
  uint32_t schema_len = GetU32(data, &pos, path_);
  if (pos + schema_len > data.size()) {
    throw IoError("truncated colf file: " + path_ +
                  " (schema extends past end of file)");
  }
  pos += schema_len;
  uint32_t num_groups = GetU32(data, &pos, path_);

  // Map filter column names to ordinals once.
  struct BoundFilter {
    int column;
    const FilterSpec* spec;
  };
  std::vector<BoundFilter> bound;
  bound.reserve(filters.size());
  for (const auto& f : filters) {
    int idx = schema_->FieldIndex(f.column);
    if (idx < 0) throw ExecutionError("colf: unknown filter column " + f.column);
    bound.push_back({idx, &f});
  }

  std::vector<Row> out;
  int64_t rows_scanned = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    faults.MaybeFail("source.read", path_);
    uint32_t group_rows = GetU32(data, &pos, path_);
    // Deserialize all column headers/payloads of this group (cheap: the
    // payload bytes are only decoded on demand below).
    std::vector<EncodedColumn> cols;
    cols.reserve(schema_->num_fields());
    for (size_t c = 0; c < schema_->num_fields(); ++c) {
      cols.push_back(DeserializeColumn(data, &pos, schema_->field(c).type));
    }
    // Zone-map pruning.
    bool may_match = true;
    for (const auto& bf : bound) {
      if (!ColumnChunkMayMatch(cols[bf.column], *bf.spec)) {
        may_match = false;
        break;
      }
    }
    if (!may_match) continue;
    rows_scanned += group_rows;
    // Decode filter columns + requested columns.
    std::vector<ColumnVector> decoded;
    std::vector<int> decoded_ordinal(schema_->num_fields(), -1);
    auto ensure_decoded = [&](int c) {
      if (decoded_ordinal[c] >= 0) return;
      decoded_ordinal[c] = static_cast<int>(decoded.size());
      decoded.push_back(DecodeColumn(cols[c]));
    };
    for (const auto& bf : bound) ensure_decoded(bf.column);
    for (int c : columns) ensure_decoded(c);

    for (uint32_t r = 0; r < group_rows; ++r) {
      bool keep = true;
      for (const auto& bf : bound) {
        const ColumnVector& cv = decoded[decoded_ordinal[bf.column]];
        if (!bf.spec->Matches(cv.GetValue(r))) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      Row row;
      row.Reserve(columns.size());
      for (int c : columns) {
        row.Append(decoded[decoded_ordinal[c]].GetValue(r));
      }
      out.push_back(std::move(row));
    }
  }
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned, rows_scanned);
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(out.size()));
  return out;
}

void RegisterColfSource(DataSourceRegistry& registry) {
  registry.Register("colf", [](const DataSourceOptions& options) {
    return ColfRelation::Open(options);
  });
  registry.RegisterWriter(
      "colf", [](const DataSourceOptions& options, const SchemaPtr& schema,
                 const std::vector<Row>& rows) {
        auto it = options.find("path");
        if (it == options.end()) {
          throw IoError("colf writer requires a 'path' option");
        }
        size_t group = 4096;
        if (auto g = options.find("row_group_size"); g != options.end()) {
          int64_t v = 0;
          if (ParseInt64(g->second, &v) && v > 0) group = static_cast<size_t>(v);
        }
        WriteColfFile(it->second, schema, rows, group);
      });
}

}  // namespace ssql

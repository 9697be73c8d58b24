#include "datasources/colf_format.h"

#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <sys/stat.h>

#include "columnar/column_vector.h"
#include "datasources/chunk_reader.h"
#include "engine/task_runner.h"
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
  try {
    return ParseSchemaString(data.substr(pos, len));
  } catch (const SsqlError& e) {
    throw IoError("corrupt colf schema in " + path + ": " + e.what());
  }
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

namespace {

struct RowGroup {
  uint32_t num_rows = 0;
  std::vector<EncodedColumn> columns;  // one per field
};

/// Splits a colf file into its row groups, checking the layout (magic,
/// counts, every column header) before anything is reserved.
std::vector<RowGroup> ReadRowGroups(const std::string& data,
                                    const StructType& schema,
                                    const std::string& path) {
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    throw IoError("not a colf file: " + path);
  }
  size_t pos = kMagicLen;
  uint32_t schema_len = GetU32(data, &pos, path);
  if (pos + schema_len > data.size()) {
    throw IoError("truncated colf file: " + path +
                  " (schema extends past end of file)");
  }
  pos += schema_len;
  const uint32_t num_groups = GetU32(data, &pos, path);
  // A row group takes at least its 4-byte row count.
  if (num_groups > (data.size() - pos) / 4) {
    throw IoError("truncated colf file: " + path + " (" +
                  std::to_string(num_groups) + " row groups cannot fit in " +
                  std::to_string(data.size() - pos) + " bytes)");
  }
  std::vector<RowGroup> groups(num_groups);
  for (RowGroup& group : groups) {
    group.num_rows = GetU32(data, &pos, path);
    group.columns.reserve(schema.num_fields());
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      group.columns.push_back(
          DeserializeColumn(data, &pos, schema.field(c).type));
    }
  }
  return groups;
}

}  // namespace

BatchDataset ColfRelation::ScanBatches(QueryContext& ctx,
                                       const std::vector<int>& columns,
                                       const std::vector<FilterSpec>& filters,
                                       size_t batch_size) const {
  const ChunkReader reader(*schema_, columns, filters, "colf " + path_);
  const FaultPointSet& faults = ctx.fault_points();
  const std::vector<RowGroup> groups =
      ReadRowGroups(ReadWholeFile(path_, faults, ctx.io_retry_policy()),
                    *schema_, path_);
  std::vector<BatchPartitionPtr> partitions(groups.size());
  std::vector<int64_t> scanned(groups.size(), 0);
  TaskRunner(ctx).RunStageSpeculatable(
      "scan", groups.size(), [&](size_t g) -> TaskRunner::TaskCommitFn {
        faults.MaybeFail("source.read", path_);
        auto part = std::make_shared<BatchPartition>();
        const bool read = reader.Read(groups[g].columns, groups[g].num_rows,
                                      batch_size, &part->batches);
        const int64_t rows = read ? groups[g].num_rows : 0;
        return [&partitions, &scanned, g, part, rows]() {
          partitions[g] = part;
          scanned[g] = rows;
        };
      });
  BatchDataset out(std::move(partitions));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsScanned,
                    std::accumulate(scanned.begin(), scanned.end(), int64_t{0}));
  ctx.profile().Add(nullptr, ProfileCounter::kRowsReturned,
                    static_cast<int64_t>(out.TotalRows()));
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

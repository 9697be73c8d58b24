#include "datasources/csv_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <string_view>

#include "datasources/chunk_reader.h"
#include "engine/task_runner.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace ssql {

namespace {

/// Bytes of file per scan range (SplitCsvRanges).
constexpr uint64_t kRangeBytes = 256 * 1024;
/// Bytes read per step past a range's end while its last record finishes,
/// and while the failure path counts lines.
constexpr size_t kReadStep = 64 * 1024;

/// A record's text: its line without the '\n' and one trailing '\r'.
std::string_view RecordText(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// Splits a record into its fields, as views into `record`. There is no
/// quoting: machine-generated data is the target.
void SplitRecord(std::string_view record, char delimiter,
                 std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  while (true) {
    const size_t pos = record.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields->push_back(record.substr(start));
      return;
    }
    fields->push_back(record.substr(start, pos - start));
    start = pos + 1;
  }
}

/// The first of int64 -> double -> date -> timestamp that reads `cell`
/// back through the scan's own primitive, else string.
DataTypePtr InferCellType(std::string_view cell) {
  int64_t i = 0;
  double d = 0;
  for (const DataTypePtr& type : {DataType::Int64(), DataType::Double(),
                                  DataType::Date(), DataType::Timestamp()}) {
    if (ParseTextAs(cell, *type, &i, &d)) return type;
  }
  return DataType::String();
}

/// Most specific supertype for CSV column inference.
DataTypePtr MergeCellTypes(const DataTypePtr& a, const DataTypePtr& b) {
  if (a->Equals(*b)) return a;
  if (a->id() == TypeId::kNull) return b;
  if (b->id() == TypeId::kNull) return a;
  if (a->IsNumeric() && b->IsNumeric()) return DataType::Double();
  const auto datetime = [](const DataTypePtr& t) {
    return t->id() == TypeId::kDate || t->id() == TypeId::kTimestamp;
  };
  if (datetime(a) && datetime(b)) return DataType::Timestamp();
  return DataType::String();
}

/// A CSV file opened for positional reads; closed on scope exit.
class CsvFile {
 public:
  explicit CsvFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw IoError("cannot open CSV file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
  }
  ~CsvFile() { ::close(fd_); }
  CsvFile(const CsvFile&) = delete;
  CsvFile& operator=(const CsvFile&) = delete;

  /// Appends the `n` bytes at `offset` to `out` (fewer only at end of
  /// file) and returns how many it appended. Throws IoError.
  size_t ReadAt(uint64_t offset, size_t n, std::string* out) const {
    const size_t old_size = out->size();
    out->resize(old_size + n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::pread(fd_, out->data() + old_size + got, n - got,
                                static_cast<off_t>(offset + got));
      if (r < 0 && errno == EINTR) continue;
      if (r < 0) {
        throw IoError("I/O error reading CSV file: " + path_ + " (" +
                      std::strerror(errno) + ")");
      }
      if (r == 0) break;
      got += static_cast<size_t>(r);
    }
    out->resize(old_size + got);
    return got;
  }

 private:
  std::string path_;
  int fd_;
};

/// Reads the records `range` owns: from the first line that starts in it
/// through the end of the last one, which may run past range.end. Sets
/// `*offset` to the file offset of the text's first byte.
std::string ReadRangeText(const CsvFile& file, CsvRange range,
                          uint64_t* offset) {
  std::string text;
  if (range.begin >= range.end) return text;
  // A line starts at byte 0 or right after a '\n', so a later range reads
  // the byte before it too: a '\n' there means its first byte starts one.
  const uint64_t from = range.begin == 0 ? 0 : range.begin - 1;
  const size_t want = static_cast<size_t>(range.end - from);
  bool at_eof = file.ReadAt(from, want, &text) < want;
  size_t start = 0;
  if (range.begin > 0) {
    const size_t nl = text.find('\n');
    if (nl == std::string::npos) return {};
    start = nl + 1;
  }
  // A line that would start past the text (after a '\n' at the range's
  // last byte) belongs to the next range.
  if (text.size() <= start) return {};
  while (!at_eof && text.back() != '\n') {
    const size_t before = text.size();
    at_eof = file.ReadAt(from + before, kReadStep, &text) < kReadStep;
    const size_t nl = text.find('\n', before);
    if (nl != std::string::npos) {
      text.resize(nl + 1);
      break;
    }
  }
  *offset = from + start;
  text.erase(0, start);
  return text;
}

/// The 1-based number of the line that starts at byte `offset`, counted
/// from the start of the file. Only the FAILFAST error path pays for it.
size_t LineNumberAt(const std::string& path, uint64_t offset) {
  const CsvFile file(path);
  size_t line = 1;
  std::string buf;
  for (uint64_t at = 0; at < offset; at += kReadStep) {
    buf.clear();
    if (file.ReadAt(at, std::min<uint64_t>(kReadStep, offset - at), &buf) ==
        0) {
      break;
    }
    line += static_cast<size_t>(std::count(buf.begin(), buf.end(), '\n'));
  }
  return line;
}

/// The value bank a field's lane fills (ColumnVector's banks).
enum class Lane : uint8_t { kInt, kDouble, kString };

Lane LaneOf(const DataType& type) {
  switch (type.id()) {
    case TypeId::kDouble:
      return Lane::kDouble;
    case TypeId::kString:
      return Lane::kString;
    default:
      return Lane::kInt;
  }
}

}  // namespace

std::vector<CsvRange> SplitCsvRanges(uint64_t file_size, size_t parallelism) {
  const uint64_t n = std::max<uint64_t>(
      1, std::min<uint64_t>(parallelism, file_size / kRangeBytes));
  std::vector<CsvRange> ranges(n);
  for (uint64_t i = 0; i < n; ++i) {
    ranges[i] = {file_size * i / n, file_size * (i + 1) / n};
  }
  return ranges;
}

CsvRelation::CsvRelation(std::string path, SchemaPtr schema, bool header,
                         char delimiter, ParseMode mode, bool strict,
                         int corrupt_column)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      header_(header),
      delimiter_(delimiter),
      mode_(mode),
      strict_(strict),
      corrupt_column_(corrupt_column) {}

std::shared_ptr<CsvRelation> CsvRelation::Open(const DataSourceOptions& options) {
  auto path_it = options.find("path");
  if (path_it == options.end()) {
    throw IoError("csv data source requires a 'path' option");
  }
  const std::string& path = path_it->second;
  bool header = true;
  if (auto it = options.find("header"); it != options.end()) {
    header = EqualsIgnoreCase(it->second, "true");
  }
  char delimiter = ',';
  if (auto it = options.find("delimiter"); it != options.end()) {
    if (!it->second.empty()) delimiter = it->second[0];
  }
  ParseMode mode = ParseMode::kPermissive;
  bool strict = false;
  if (auto it = options.find("mode"); it != options.end()) {
    mode = ParseModeFromString(it->second);
    strict = true;
  }
  std::string corrupt_name = kCorruptRecordColumn;
  if (auto it = options.find("columnNameOfCorruptRecord"); it != options.end()) {
    corrupt_name = it->second;
    strict = true;
  }

  SchemaPtr explicit_schema;
  if (auto it = options.find("schema"); it != options.end()) {
    explicit_schema = ParseSchemaString(it->second);
  }

  // Open + schema-inference sample run before any query exists, so transient
  // failures use the process-global fault points / retry policy. The body is
  // idempotent: all inference state is local to one attempt.
  SchemaPtr schema;
  const std::shared_ptr<const FaultPointSet> faults = GlobalFaultPoints();
  RunWithIoRetry(GlobalIoRetryPolicy(), "open CSV '" + path + "'", [&] {
    faults->MaybeFail("source.open", path);
    std::ifstream in(path);
    if (!in.good()) {
      throw IoError("cannot open CSV file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
    if (explicit_schema) {
      schema = explicit_schema;
      return;
    }
    // Infer from a sample of up to 100 data lines.
    std::string line;
    std::vector<std::string_view> cells;
    std::vector<std::string> names;
    std::vector<DataTypePtr> types;
    bool first = true;
    int sampled = 0;
    while (std::getline(in, line) && sampled < 100) {
      const std::string_view record = RecordText(line);
      if (record.empty()) continue;
      SplitRecord(record, delimiter, &cells);
      if (first) {
        first = false;
        if (header) {
          for (const auto& c : cells) names.emplace_back(Trim(c));
          continue;
        }
        for (size_t i = 0; i < cells.size(); ++i) {
          names.push_back("_c" + std::to_string(i));
        }
      }
      ++sampled;
      for (size_t i = 0; i < cells.size() && i < names.size(); ++i) {
        DataTypePtr t =
            cells[i].empty() ? DataType::Null() : InferCellType(cells[i]);
        if (types.size() <= i) {
          types.resize(names.size(), DataType::Null());
        }
        types[i] = MergeCellTypes(types[i], t);
      }
    }
    if (in.bad()) {
      // getline stops on error as well as EOF — without this check a read
      // failure mid-sample would silently infer from a truncated prefix.
      throw IoError("I/O error reading CSV file: " + path + " (" +
                    std::strerror(errno) + ")");
    }
    if (names.empty()) throw IoError("empty CSV file: " + path);
    types.resize(names.size(), DataType::String());
    std::vector<Field> fields;
    for (size_t i = 0; i < names.size(); ++i) {
      DataTypePtr t =
          types[i]->id() == TypeId::kNull ? DataType::String() : types[i];
      fields.emplace_back(names[i], t);
    }
    schema = StructType::Make(std::move(fields));
  });

  // Under an explicit PERMISSIVE mode the raw text of malformed records is
  // surfaced in an extra string column appended to the schema.
  int corrupt_column = -1;
  if (strict && mode == ParseMode::kPermissive) {
    std::vector<Field> fields;
    for (size_t i = 0; i < schema->num_fields(); ++i) {
      fields.push_back(schema->field(i));
    }
    corrupt_column = static_cast<int>(fields.size());
    fields.emplace_back(corrupt_name, DataType::String(), true);
    schema = StructType::Make(std::move(fields));
  }

  return std::make_shared<CsvRelation>(path, std::move(schema), header,
                                       delimiter, mode, strict, corrupt_column);
}

std::optional<uint64_t> CsvRelation::EstimatedSizeBytes() const {
  struct stat st;
  if (stat(path_.c_str(), &st) != 0) return std::nullopt;
  return static_cast<uint64_t>(st.st_size);
}

/// What one range task hands back.
struct CsvRelation::RangeResult {
  BatchPartitionPtr partition;
  int64_t scanned = 0;    // records kept (PERMISSIVE's malformed included)
  int64_t malformed = 0;
  int64_t dropped = 0;
  bool saw_record = false;  // the range owns a non-blank line, header or not
  // FAILFAST: the range's first malformed record, which ends its scan.
  bool failed = false;
  uint64_t failed_offset = 0;
  std::string failed_record;
};

CsvRelation::RangeResult CsvRelation::ScanRange(
    QueryContext& ctx, size_t index, CsvRange range,
    const std::vector<bool>& parsed_fields, const ChunkReader& reader,
    size_t batch_size) const {
  const FaultPointSet& faults = ctx.fault_points();
  const bool armed = faults.enabled();
  RangeResult result;
  uint64_t offset = 0;
  std::string text;
  {
    faults.MaybeFail("source.open", path_);
    const CsvFile file(path_);
    text = ReadRangeText(file, range, &offset);
  }

  // One plain lane per parsed field; string slots view `text`.
  const size_t num_fields = schema_->num_fields();
  const size_t data_fields = num_fields - (corrupt_column_ >= 0 ? 1 : 0);
  std::vector<EncodedColumn> plain(num_fields);
  std::vector<ChunkValues> lanes(num_fields);
  std::vector<Lane> lane_of(num_fields);
  for (size_t f = 0; f < num_fields; ++f) {
    plain[f].type = schema_->field(f).type;
    lanes[f].column = &plain[f];
    lane_of[f] = LaneOf(*plain[f].type);
  }
  // A record's cells, held until the whole record is known to be good.
  struct Cell {
    bool null = true;
    int64_t i = 0;
    double d = 0;
    std::string_view s;
  };
  std::vector<Cell> cells(data_fields);
  std::vector<std::string_view> fields;
  bool skip_header = header_ && index == 0;
  size_t cancel_check = 0;
  uint32_t rows = 0;
  for (size_t pos = 0; pos < text.size();) {
    const size_t line_start = pos;
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    pos = nl + 1;
    const std::string_view line(text.data() + line_start, nl - line_start);
    if (RecordText(line).empty()) continue;
    result.saw_record = true;
    if (skip_header) {
      skip_header = false;
      continue;
    }
    ctx.CheckCancelledEvery(&cancel_check);
    if (armed) {
      faults.MaybeFail("source.read", path_);
      // Corrupt-kind faults flip a bit in the raw line before parsing: with
      // no checksum here, the flip rides the malformed-record machinery
      // (strict mode rejects what no longer parses; lenient mode nulls the
      // bad cell). The flip keeps the length, so it lands in place.
      std::string raw(line);
      if (faults.MaybeCorrupt("source.read", &raw)) {
        std::copy(raw.begin(), raw.end(), text.begin() + line_start);
      }
    }
    const std::string_view record = RecordText(line);
    SplitRecord(record, delimiter_, &fields);

    // A record is malformed when its cell count does not match the schema
    // or a non-empty cell does not parse as its field's type. Only detected
    // under an explicit mode, which validates every field; the lenient
    // default parses only the fields the scan needs and repairs instead
    // (null-pad short rows, ignore extras, bad cells become null).
    bool malformed = strict_ && fields.size() != data_fields;
    for (size_t f = 0; f < data_fields && !malformed; ++f) {
      Cell& cell = cells[f];
      cell.null = true;
      if ((!parsed_fields[f] && !strict_) || f >= fields.size() ||
          fields[f].empty()) {
        continue;
      }
      if (lane_of[f] == Lane::kString) {
        cell.null = false;
        cell.s = fields[f];
      } else if (ParseTextAs(fields[f], *plain[f].type, &cell.i, &cell.d)) {
        cell.null = false;
      } else {
        malformed = strict_;
      }
    }
    if (malformed) {
      ++result.malformed;
      if (mode_ == ParseMode::kFailFast) {
        result.failed = true;
        result.failed_offset = offset + line_start;
        result.failed_record = std::string(record);
        break;
      }
      if (mode_ == ParseMode::kDropMalformed) {
        ++result.dropped;
        continue;
      }
      // PERMISSIVE: a null-filled row with the raw text in the corrupt
      // column.
    }
    for (size_t f = 0; f < num_fields; ++f) {
      if (!parsed_fields[f]) continue;
      Cell cell;
      if (static_cast<int>(f) == corrupt_column_) {
        cell.null = !malformed;
        cell.s = record;
      } else if (!malformed) {
        cell = cells[f];
      }
      ChunkValues& lane = lanes[f];
      lane.nulls.push_back(cell.null ? 1 : 0);
      switch (lane_of[f]) {
        case Lane::kInt:
          lane.ints.push_back(cell.null ? 0 : cell.i);
          break;
        case Lane::kDouble:
          lane.doubles.push_back(cell.null ? 0.0 : cell.d);
          break;
        case Lane::kString:
          lane.strings.push_back(cell.null ? std::string_view() : cell.s);
          break;
      }
    }
    ++rows;
  }
  if (result.failed) return result;
  for (EncodedColumn& column : plain) column.num_rows = rows;
  result.scanned = rows;
  result.partition = std::make_shared<BatchPartition>();
  reader.ReadValues(
      rows, [&](int f) -> const ChunkValues& { return lanes[f]; }, batch_size,
      &result.partition->batches);
  return result;
}

BatchDataset CsvRelation::ScanBatches(QueryContext& ctx,
                                      const std::vector<int>& columns,
                                      const std::vector<FilterSpec>& filters,
                                      size_t batch_size) const {
  uint64_t size = 0;
  RunWithIoRetry(ctx.io_retry_policy(), "open CSV '" + path_ + "'", [&] {
    struct stat st;
    if (::stat(path_.c_str(), &st) != 0) {
      throw IoError("cannot open CSV file: " + path_ + " (" +
                    std::strerror(errno) + ")");
    }
    size = static_cast<uint64_t>(st.st_size);
  });
  return ScanRanges(ctx, SplitCsvRanges(size, ctx.config().default_parallelism),
                    columns, filters, batch_size);
}

BatchDataset CsvRelation::ScanRanges(QueryContext& ctx,
                                     const std::vector<CsvRange>& ranges,
                                     const std::vector<int>& columns,
                                     const std::vector<FilterSpec>& filters,
                                     size_t batch_size) const {
  const ChunkReader reader(*schema_, columns, filters, "csv " + path_);
  std::vector<bool> parsed_fields(schema_->num_fields(), false);
  for (const int c : columns) parsed_fields[c] = true;
  for (const FilterSpec& f : filters) {
    parsed_fields[schema_->FieldIndex(f.column)] = true;  // checked by reader
  }
  const IoRetryPolicy policy = ctx.io_retry_policy();
  std::vector<RangeResult> results(ranges.size());
  // Each attempt rereads its range from scratch, so a transient open/read
  // failure retries just that range, and a straggler may race a duplicate.
  TaskRunner(ctx).RunStageSpeculatable(
      "scan", ranges.size(), [&](size_t r) -> TaskRunner::TaskCommitFn {
        auto result = std::make_shared<RangeResult>();
        RunWithIoRetry(policy, "scan CSV '" + path_ + "'", [&] {
          *result = ScanRange(ctx, r, ranges[r], parsed_fields, reader,
                              batch_size);
        });
        return [&results, r, result]() { results[r] = std::move(*result); };
      });
  if (header_ && ranges.size() > 1 && !results[0].saw_record) {
    // Range 0 holds only blank lines, so the header starts in a later
    // range: read the file as one range instead.
    return ScanRanges(ctx, {{0, ranges.back().end}}, columns, filters,
                      batch_size);
  }
  for (const RangeResult& result : results) {
    if (!result.failed) continue;
    // The first malformed record in file order, as a one-pass scan finds it.
    ctx.profile().Add(nullptr, ProfileCounter::kMalformedRecords, 1);
    size_t line = 0;
    RunWithIoRetry(policy, "scan CSV '" + path_ + "'",
                   [&] { line = LineNumberAt(path_, result.failed_offset); });
    throw ParseError(FormatRecordError("malformed CSV record", path_, line,
                                       result.failed_record));
  }
  std::vector<BatchPartitionPtr> partitions;
  partitions.reserve(results.size());
  int64_t scanned = 0, malformed = 0, dropped = 0;
  for (RangeResult& result : results) {
    partitions.push_back(std::move(result.partition));
    scanned += result.scanned;
    malformed += result.malformed;
    dropped += result.dropped;
  }
  BatchDataset out(std::move(partitions));
  QueryProfile& profile = ctx.profile();
  profile.Add(nullptr, ProfileCounter::kRowsScanned, scanned);
  profile.Add(nullptr, ProfileCounter::kRowsReturned,
              static_cast<int64_t>(out.TotalRows()));
  profile.Add(nullptr, ProfileCounter::kMalformedRecords, malformed);
  profile.Add(nullptr, ProfileCounter::kRowsDropped, dropped);
  return out;
}

void CsvRelation::Write(const std::string& path, const SchemaPtr& schema,
                        const std::vector<Row>& rows, char delimiter) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) throw IoError("cannot open CSV file for write: " + path);
  for (size_t i = 0; i < schema->num_fields(); ++i) {
    if (i > 0) out << delimiter;
    out << schema->field(i).name;
  }
  out << "\n";
  for (const Row& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << delimiter;
      if (!row.IsNullAt(i)) out << row.Get(i).ToString();
    }
    out << "\n";
  }
}

void RegisterCsvSource(DataSourceRegistry& registry) {
  registry.Register("csv", [](const DataSourceOptions& options) {
    return CsvRelation::Open(options);
  });
  registry.RegisterWriter(
      "csv", [](const DataSourceOptions& options, const SchemaPtr& schema,
                const std::vector<Row>& rows) {
        auto it = options.find("path");
        if (it == options.end()) {
          throw IoError("csv writer requires a 'path' option");
        }
        char delimiter = ',';
        if (auto d = options.find("delimiter"); d != options.end()) {
          if (!d->second.empty()) delimiter = d->second[0];
        }
        CsvRelation::Write(it->second, schema, rows, delimiter);
      });
}

}  // namespace ssql

#ifndef SSQL_DATASOURCES_CSV_SOURCE_H_
#define SSQL_DATASOURCES_CSV_SOURCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "datasources/data_source.h"

namespace ssql {

class ChunkReader;

/// A byte range [begin, end) of a CSV file: one scan task's share. A range
/// owns the records whose first byte lies in it, so a record that crosses
/// `end` is read whole by this range and skipped by the next.
struct CsvRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Splits a `file_size`-byte file into contiguous ranges that tile it: one
/// per 256 KiB of file, at most `parallelism`, and at least one, so a small
/// file stays one range.
std::vector<CsvRange> SplitCsvRanges(uint64_t file_size, size_t parallelism);

/// CSV data source (Section 4.4.1's example list: "CSV files, which simply
/// scan the whole file, but allow users to specify a schema").
///
/// OPTIONS:
///   path    (required) file to read
///   schema  (optional) "name type, ..." — if absent, all columns are
///           inferred by trying int -> double -> date -> timestamp ->
///           string over a sample of the file; header names are used when
///           header=true
///   header  (optional, "true"/"false", default true)
///   delimiter (optional, single char, default ',')
///   mode    (optional) malformed-record handling: PERMISSIVE (keep the
///           row null-filled, raw text in the corrupt-record column),
///           DROPMALFORMED (skip it), FAILFAST (throw with file + line).
///           When absent the reader stays lenient like before: short rows
///           are null-padded, extra cells ignored, bad cells become null,
///           and no corrupt-record column is added.
///   columnNameOfCorruptRecord (optional, default "_corrupt_record")
///           name of the extra string column carrying raw malformed rows
///           under PERMISSIVE.
///
/// Records are lines ('\n'; one trailing '\r' is dropped, and blank lines
/// are skipped), fields are split on the delimiter with no quoting, and an
/// empty cell is null. A scan runs one task per line-aligned byte range
/// (SplitCsvRanges): each task reads only its range, splits records into
/// views over its buffer, and parses the projected and filtered fields
/// straight into typed lanes with ParseTextAs, the primitive CAST uses.
/// Pushed filters run on those lanes through the chunk reader's kernels,
/// and only the surviving rows are copied into batches.
class CsvRelation : public BaseRelation, public BatchedScan {
 public:
  CsvRelation(std::string path, SchemaPtr schema, bool header, char delimiter,
              ParseMode mode = ParseMode::kPermissive, bool strict = false,
              int corrupt_column = -1);

  /// Reads the file header/sample to build a relation. Throws IoError.
  static std::shared_ptr<CsvRelation> Open(const DataSourceOptions& options);

  std::string name() const override { return "csv:" + path_; }
  SchemaPtr schema() const override { return schema_; }
  std::optional<uint64_t> EstimatedSizeBytes() const override;

  /// ScanRanges over SplitCsvRanges(file size, default_parallelism).
  BatchDataset ScanBatches(QueryContext& ctx, const std::vector<int>& columns,
                           const std::vector<FilterSpec>& filters,
                           size_t batch_size) const override;

  /// The scan over explicit `ranges`, which must tile the file from byte 0:
  /// one "scan" task and one output partition per range. Only range 0
  /// skips the header. ScanBatches passes SplitCsvRanges; tests pass
  /// boundaries of their own.
  BatchDataset ScanRanges(QueryContext& ctx, const std::vector<CsvRange>& ranges,
                          const std::vector<int>& columns,
                          const std::vector<FilterSpec>& filters,
                          size_t batch_size) const;

  /// Writes rows as CSV (used by tests/benches to create inputs and by
  /// Figure 10's materialization step).
  static void Write(const std::string& path, const SchemaPtr& schema,
                    const std::vector<Row>& rows, char delimiter = ',');

 private:
  struct RangeResult;

  /// Reads and parses one range (one task attempt's whole body).
  RangeResult ScanRange(QueryContext& ctx, size_t index, CsvRange range,
                        const std::vector<bool>& parsed_fields,
                        const ChunkReader& reader,
                        size_t batch_size) const;

  std::string path_;
  SchemaPtr schema_;  // includes the corrupt-record column when present
  bool header_;
  char delimiter_;
  ParseMode mode_;
  // True when the user asked for a parse mode explicitly: malformed rows
  // are then detected (cell-count mismatch, unconvertible cells) instead
  // of silently repaired.
  bool strict_;
  // Index of the corrupt-record column in schema_, or -1 if absent.
  int corrupt_column_;
};

}  // namespace ssql

#endif  // SSQL_DATASOURCES_CSV_SOURCE_H_

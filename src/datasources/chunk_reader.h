#ifndef SSQL_DATASOURCES_CHUNK_READER_H_
#define SSQL_DATASOURCES_CHUNK_READER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnar/columnar_cache.h"
#include "columnar/encoding.h"
#include "columnar/row_batch.h"
#include "datasources/data_source.h"

namespace ssql {

/// One pushed filter bound to its column's type: a typed kernel that
/// refines a selection vector over an encoded chunk. The predicate runs
/// once per dictionary entry, once per run, or in a tight loop over a plain
/// chunk's typed lane, and the chunk's rows are then mapped through the
/// result. A kBoxed chunk runs FilterSpec::Matches on its own Values.
///
/// Results equal FilterSpec::Matches exactly, Value::Compare's quirks
/// included: an int column against a double or decimal literal compares as
/// doubles, a decimal column compares through AsDouble, NaN compares equal
/// to every number, and a numeric column against a non-numeric literal
/// compares equal. A literal that Value::Compare cannot compare with the
/// column's type at all (a string literal on a date column, say) is
/// rejected here with ExecutionError.
class ChunkFilter {
 public:
  ChunkFilter(FilterSpec spec, const DataTypePtr& column_type);

  const FilterSpec& spec() const { return spec_; }

  /// Keeps in `sel` (ascending rows of the chunk) only the rows that pass.
  void Refine(const ChunkValues& values, std::vector<uint32_t>* sel) const;

 private:
  /// A literal as the column's lane sees it.
  struct Operand {
    enum class Kind { kInt, kDouble, kString, kConstant };
    Kind kind = Kind::kConstant;
    int64_t i = 0;
    double d = 0;
    std::string s;
    int constant = 0;  // the fixed Value::Compare result of kConstant
  };

  /// Writes pass/fail for every slot of `values` into `pass`.
  void EvalSlots(const ChunkValues& values, uint8_t* pass) const;

  FilterSpec spec_;
  DataTypePtr type_;
  std::vector<Operand> operands_;  // one per literal of spec_.values
};

/// Reads encoded column chunks for a scan with pushed filters: the
/// columnar cache's chunks and colf's row groups. A read checks the zone
/// maps, refines a selection vector with each filter's kernel, stops once
/// the selection is empty, and only then decodes the projected columns, at
/// the surviving rows alone, into dense batches. No Value is built.
class ChunkReader {
 public:
  /// `columns` are the projected field ordinals, in output order; `source`
  /// names the scan in errors. Throws ExecutionError for a filter on an
  /// unknown column.
  ChunkReader(const StructType& schema, std::vector<int> columns,
              const std::vector<FilterSpec>& filters, std::string source);

  /// Appends the surviving rows of one chunk (`chunk` holds every field's
  /// column, each of `num_rows` rows) to `out`, as batches of at most
  /// `batch_size` rows. Returns false when the zone maps rule the chunk
  /// out. Throws IoError if a column's row count differs from `num_rows`
  /// or its payload is corrupt.
  bool Read(const std::vector<EncodedColumn>& chunk, uint32_t num_rows,
            size_t batch_size, std::vector<RowBatchPtr>* out) const;

 private:
  std::vector<int> columns_;
  std::vector<std::pair<int, ChunkFilter>> filters_;  // (field ordinal, kernel)
  std::string source_;
};

/// Exposes a CachedTable through the data source API, so cached subtrees
/// get the same column pruning and filter pushdown as external sources: a
/// query that touches 2 of 10 cached columns decodes exactly 2 (Section
/// 3.6 and 4.4.1 composing). A scan runs one task per cached chunk
/// through the chunk reader.
class CachedTableSource : public BaseRelation, public BatchedScan {
 public:
  CachedTableSource(std::shared_ptr<const CachedTable> table, std::string label)
      : table_(std::move(table)), label_(std::move(label)) {}

  std::string name() const override { return "cache:" + label_; }
  SchemaPtr schema() const override { return table_->schema(); }
  std::optional<uint64_t> EstimatedSizeBytes() const override {
    return table_->MemoryBytes();
  }

  BatchDataset ScanBatches(QueryContext& ctx, const std::vector<int>& columns,
                           const std::vector<FilterSpec>& filters,
                           size_t batch_size) const override;

 private:
  std::shared_ptr<const CachedTable> table_;
  std::string label_;
};

}  // namespace ssql

#endif  // SSQL_DATASOURCES_CHUNK_READER_H_

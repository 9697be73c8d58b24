#ifndef SSQL_DATASOURCES_DATA_SOURCE_H_
#define SSQL_DATASOURCES_DATA_SOURCE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalyst/plan/logical_plan.h"
#include "columnar/batch_dataset.h"
#include "columnar/encoding.h"
#include "engine/dataset.h"
#include "engine/query_context.h"
#include "types/row.h"
#include "types/schema.h"

namespace ssql {

/// A pushed-down predicate in data source terms — the paper's `Filter`
/// objects (Section 4.4.1, footnote 7): equality, comparisons against a
/// constant, and IN clauses, each on one attribute, plus the string
/// prefix/containment forms the LIKE rule produces.
struct FilterSpec {
  enum class Op {
    kEq,
    kLt,
    kLe,
    kGt,
    kGe,
    kIn,
    kIsNull,
    kIsNotNull,
    kStartsWith,
    kContains,
  };

  std::string column;
  Op op = Op::kEq;
  std::vector<Value> values;  // one element for comparisons, n for IN

  /// Evaluates this filter against a single value of `column`.
  bool Matches(const Value& v) const;

  std::string ToString() const;
};

/// Translates a Catalyst conjunct into a FilterSpec if it has one of the
/// supported shapes (attr OP literal, literal OP attr, attr IN (...),
/// attr IS [NOT] NULL, StartsWith/Contains(attr, literal)). This is how
/// sources advertise — and receive — pushdown without understanding full
/// expression trees.
std::optional<FilterSpec> TranslateFilter(const Expression& conjunct);

/// Base class for data source relations (the createRelation result of
/// Section 4.4.1). Concrete relations additionally implement one of the
/// scan interfaces below; the physical planner picks the most capable one.
class BaseRelation : public SourceRelation {
 public:
  /// Default pushdown capability: a source that implements
  /// PrunedFilteredScan or BatchedScan handles every translatable conjunct.
  bool CanHandleFilter(const Expression& conjunct) const override;
};

/// Simplest capability: produce every row of the table (paper: TableScan).
class TableScan {
 public:
  virtual ~TableScan() = default;
  virtual std::vector<Row> ScanAll(QueryContext& ctx) const = 0;
};

/// Column pruning: return only the requested columns, in request order
/// (paper: PrunedScan).
class PrunedScan {
 public:
  virtual ~PrunedScan() = default;
  virtual std::vector<Row> ScanColumns(QueryContext& ctx,
                                       const std::vector<int>& columns) const = 0;
};

/// Column pruning + advisory filters (paper: PrunedFilteredScan). Sources
/// in this repository evaluate the filters exactly; the contract still
/// permits false positives, and the execution layer re-checks when a
/// source reports inexact filtering.
class PrunedFilteredScan {
 public:
  virtual ~PrunedFilteredScan() = default;
  virtual std::vector<Row> ScanFiltered(
      QueryContext& ctx, const std::vector<int>& columns,
      const std::vector<FilterSpec>& filters) const = 0;
  /// Whether rows returned are guaranteed to satisfy all `filters`.
  virtual bool FiltersAreExact() const { return true; }
};

/// Columnar scan — the vectorized engine's extension of the Section 4.4.1
/// scan ladder: the source returns decoded ColumnVector batches directly,
/// never boxing a row at the scan boundary. It is such a source's only scan
/// form: a row-reading plan unpacks the batches. Like PrunedFilteredScan it
/// receives every translatable filter, and it must evaluate `filters`
/// exactly (via a selection vector, not by copying columns). Implemented by
/// the natively-columnar sources (the in-memory cache, colf); the batched
/// execution pipeline engages only over sources that provide it.
class BatchedScan {
 public:
  virtual ~BatchedScan() = default;
  virtual BatchDataset ScanBatches(QueryContext& ctx,
                                   const std::vector<int>& columns,
                                   const std::vector<FilterSpec>& filters,
                                   size_t batch_size) const = 0;
};

/// Full Catalyst expression pushdown (paper: CatalystScan): the source
/// receives the raw conjunct trees. Used by kvdb to execute arbitrary
/// predicates "inside the external database".
class CatalystScan {
 public:
  virtual ~CatalystScan() = default;
  virtual std::vector<Row> ScanCatalyst(QueryContext& ctx,
                                        const std::vector<int>& columns,
                                        const ExprVector& predicates) const = 0;
};

/// Malformed-record handling for text sources, Spark's reader "mode"
/// option (the paper's Section 5.1 notes JSON inference "handles corrupt
/// records gracefully"):
///   PERMISSIVE    keep the record as a null-filled row with the raw text
///                 in the corrupt-record column;
///   DROPMALFORMED silently drop it (counted in metrics);
///   FAILFAST      throw immediately with file + line context.
enum class ParseMode { kPermissive, kDropMalformed, kFailFast };

/// Parses a "mode" option value (case-insensitive); throws IoError on
/// unknown modes.
ParseMode ParseModeFromString(const std::string& s);

/// Default name of the extra string column that carries the raw text of
/// malformed records under PERMISSIVE (overridable per reader via the
/// "columnNameOfCorruptRecord" option).
inline constexpr const char* kCorruptRecordColumn = "_corrupt_record";

/// Formats a malformed-record error: "<what> at <path>:<line>: '<snippet>'"
/// with the offending record truncated to a readable length.
std::string FormatRecordError(const std::string& what, const std::string& path,
                              size_t line, const std::string& record);

/// Factory signature: key-value OPTIONS from
///   CREATE TEMPORARY TABLE t USING <source> OPTIONS (k 'v', ...)
using DataSourceOptions = std::map<std::string, std::string>;
using DataSourceFactory =
    std::function<std::shared_ptr<BaseRelation>(const DataSourceOptions&)>;

/// Write-side factory (Section 4.4.1: "similar interfaces exist for
/// writing data to an existing or new table. These are simpler because
/// Spark SQL just provides an RDD of Row objects to be written").
using DataSourceWriter =
    std::function<void(const DataSourceOptions& options, const SchemaPtr& schema,
                       const std::vector<Row>& rows)>;

/// Registry of data source providers by short name ("csv", "json", "colf",
/// "kvdb"). Third-party sources register here — Catalyst's data source
/// extension point.
class DataSourceRegistry {
 public:
  static DataSourceRegistry& Global();

  void Register(const std::string& name, DataSourceFactory factory);
  void RegisterWriter(const std::string& name, DataSourceWriter writer);

  /// Creates a relation; throws AnalysisError for unknown providers and
  /// IoError for bad options/paths.
  std::shared_ptr<BaseRelation> CreateRelation(const std::string& provider,
                                               const DataSourceOptions& options);

  /// Writes rows through a provider's write path; throws AnalysisError for
  /// providers without write support.
  void Write(const std::string& provider, const DataSourceOptions& options,
             const SchemaPtr& schema, const std::vector<Row>& rows);

  std::vector<std::string> ProviderNames() const;

 private:
  DataSourceRegistry();

  mutable std::mutex mu_;
  std::map<std::string, DataSourceFactory> factories_;
  std::map<std::string, DataSourceWriter> writers_;
};

/// Zone-map check: can a column chunk with these min/max statistics
/// possibly contain rows matching `filter`? Shared by the colf row-group
/// skipper and the columnar cache.
bool ColumnChunkMayMatch(const EncodedColumn& column, const FilterSpec& filter);

/// Parses a schema string "name type, name type, ..." (types: boolean, int,
/// bigint, double, string, date, timestamp, decimal(p,s)). Used by CSV and
/// kvdb OPTIONS.
SchemaPtr ParseSchemaString(const std::string& schema_str);

/// Built-in provider registration hooks (implemented by each source file;
/// invoked once by the global registry's constructor).
void RegisterCsvSource(DataSourceRegistry& registry);
void RegisterJsonSource(DataSourceRegistry& registry);
void RegisterColfSource(DataSourceRegistry& registry);
void RegisterKvdbSource(DataSourceRegistry& registry);

}  // namespace ssql

#endif  // SSQL_DATASOURCES_DATA_SOURCE_H_

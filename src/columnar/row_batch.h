#ifndef SSQL_COLUMNAR_ROW_BATCH_H_
#define SSQL_COLUMNAR_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/column_vector.h"
#include "types/row.h"

namespace ssql {

class RowBatch;
using RowBatchPtr = std::shared_ptr<const RowBatch>;

/// The unit of data flow between vectorized physical operators: one
/// ColumnVector per output attribute plus an optional selection vector.
///
/// Conventions (see DESIGN.md "Vectorized execution"):
///   * Columns are column-major with a shared row count (`num_rows`); every
///     bank slot is defined even when null (ColumnVector's null convention),
///     so kernels read banks unconditionally under the null mask.
///   * The selection vector holds *physical* row indices, ascending. When
///     present, only those rows are live — a filter refines the selection
///     and shares the input columns instead of copying them. When absent,
///     all `num_rows` rows are live.
///   * A batch is immutable: it wraps columns built before it (columns may
///     be shared across batches and threads).
class RowBatch {
 public:
  /// Wraps already-built columns (all the same size). Used by the chunk
  /// reader's scans and by operators assembling output columns.
  explicit RowBatch(std::vector<std::shared_ptr<ColumnVector>> columns);

  /// `num_rows` rows with no columns: what a scan that needs only row
  /// existence (COUNT(*)) produces.
  static RowBatchPtr NoColumns(size_t num_rows);

  /// A filter view: shares `src`'s columns, live rows restricted to `sel`
  /// (physical indices into src's columns, ascending).
  static RowBatchPtr FilterView(const RowBatchPtr& src,
                                std::vector<uint32_t> sel);

  size_t num_columns() const { return columns_.size(); }
  /// Physical rows in each column (including filtered-out ones).
  size_t num_rows() const { return num_rows_; }
  /// Live rows: selection size when a selection is present, else num_rows.
  size_t ActiveRows() const {
    return has_selection_ ? selection_.size() : num_rows_;
  }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }

  const ColumnVector& column(size_t c) const { return *columns_[c]; }
  const std::shared_ptr<ColumnVector>& column_ptr(size_t c) const {
    return columns_[c];
  }

  /// Boxes physical row `i` into a Row (the batch→row unpack and the
  /// interpreter fallback both go through here).
  Row BoxRow(size_t i) const;

  /// Physical index of the k-th live row.
  size_t ActiveIndex(size_t k) const {
    return has_selection_ ? selection_[k] : k;
  }

  /// Appends every live row, boxed, to `out` (the batch→row unpack).
  void AppendActiveRowsTo(std::vector<Row>* out) const;

 private:
  std::vector<std::shared_ptr<ColumnVector>> columns_;
  size_t num_rows_ = 0;
  bool has_selection_ = false;
  std::vector<uint32_t> selection_;
};

}  // namespace ssql

#endif  // SSQL_COLUMNAR_ROW_BATCH_H_

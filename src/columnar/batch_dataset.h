#ifndef SSQL_COLUMNAR_BATCH_DATASET_H_
#define SSQL_COLUMNAR_BATCH_DATASET_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/row_batch.h"
#include "engine/dataset.h"

namespace ssql {

class QueryContext;

/// One horizontal slice of a batched dataset: an ordered list of RowBatches
/// (the last one may be partial; empty inputs yield zero batches).
struct BatchPartition {
  std::vector<RowBatchPtr> batches;

  size_t TotalRows() const {
    size_t n = 0;
    for (const auto& b : batches) n += b->ActiveRows();
    return n;
  }
};

using BatchPartitionPtr = std::shared_ptr<BatchPartition>;

/// The batched counterpart of RowDataset: what a columnar scan and the
/// filter/project operators over it produce. Unpacking keeps partition
/// boundaries, so task parallelism, retry, and speculation behave
/// identically in both modes; batches within a partition preserve row
/// order, which keeps batched and row execution result-identical.
class BatchDataset {
 public:
  BatchDataset() = default;
  explicit BatchDataset(std::vector<BatchPartitionPtr> partitions)
      : partitions_(std::move(partitions)) {}

  size_t num_partitions() const { return partitions_.size(); }
  const BatchPartitionPtr& partition(size_t i) const { return partitions_[i]; }
  const std::vector<BatchPartitionPtr>& partitions() const {
    return partitions_;
  }

  /// Live rows across all partitions (what profile rows_out counts).
  size_t TotalRows() const;
  /// Batches across all partitions (what profile batches counts).
  size_t TotalBatches() const;

  /// Boxes every live row back into a RowDataset with the same partition
  /// boundaries: the batch→row unpack, one task per partition on stage
  /// "batch.unpack".
  RowDataset ToRowDataset(QueryContext& ctx) const;

  /// Like MapPartitions, but each task turns its batch partition into a
  /// row partition: how an operator that reads batches returns rows.
  RowDataset MapToRows(
      QueryContext& ctx,
      const std::function<RowPartitionPtr(size_t, const BatchPartition&)>& fn,
      const std::string& stage) const;

  /// Applies `fn` to each partition in parallel, same contract as
  /// RowDataset::MapPartitions (one speculatable TaskRunner stage; `fn`
  /// must be idempotent and may be re-invoked after retryable failures).
  BatchDataset MapPartitions(
      QueryContext& ctx,
      const std::function<BatchPartitionPtr(size_t, const BatchPartition&)>&
          fn,
      const std::string& stage = "map") const;

 private:
  std::vector<BatchPartitionPtr> partitions_;
};

}  // namespace ssql

#endif  // SSQL_COLUMNAR_BATCH_DATASET_H_

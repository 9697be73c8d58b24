#ifndef SSQL_ENGINE_DATASET_H_
#define SSQL_ENGINE_DATASET_H_

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "types/row.h"

namespace ssql {

class QueryContext;

/// One horizontal slice of a dataset; the unit of parallel work, standing in
/// for a Spark partition living on some executor.
struct RowPartition {
  std::vector<Row> rows;
};

using RowPartitionPtr = std::shared_ptr<RowPartition>;

/// A partitioned collection of rows: the materialized form flowing between
/// physical operators (our RDD-of-rows). Partitions are immutable once
/// published so they can be shared/cached freely across plans.
class RowDataset {
 public:
  RowDataset() = default;
  explicit RowDataset(std::vector<RowPartitionPtr> partitions)
      : partitions_(std::move(partitions)) {}

  /// Builds a dataset by range-splitting `rows` into `num_partitions` slices.
  static RowDataset FromRows(std::vector<Row> rows, size_t num_partitions);

  /// Builds a single-partition dataset.
  static RowDataset SinglePartition(std::vector<Row> rows);

  size_t num_partitions() const { return partitions_.size(); }
  const RowPartitionPtr& partition(size_t i) const { return partitions_[i]; }
  const std::vector<RowPartitionPtr>& partitions() const { return partitions_; }

  size_t TotalRows() const;

  /// Gathers all partitions into one vector (the driver-side collect()).
  std::vector<Row> Collect() const;

  /// Applies `fn` to each partition in parallel on the context's pool,
  /// producing a new dataset with the same partition count. `fn` receives
  /// (partition_index, input_partition) and returns the output partition.
  /// Runs as one TaskRunner stage named `stage`, so partitions inherit the
  /// engine's failure contract (retry of RetryableError, sibling
  /// cancellation, fault injection keyed by the stage name). `fn` may be
  /// re-invoked for a partition after a retryable failure and must be
  /// idempotent.
  RowDataset MapPartitions(
      QueryContext& ctx,
      const std::function<RowPartitionPtr(size_t, const RowPartition&)>& fn,
      const std::string& stage = "map") const;

  /// Hash-repartitions rows into `num_out` partitions using `key_hash`,
  /// which maps a row to a 64-bit hash. This is the engine's shuffle; it
  /// runs as two TaskRunner stages, "<stage>.map" and "<stage>.reduce".
  RowDataset ShuffleByHash(QueryContext& ctx, size_t num_out,
                           const std::function<uint64_t(const Row&)>& key_hash,
                           const std::string& stage = "shuffle") const;

 private:
  std::vector<RowPartitionPtr> partitions_;
};

/// Driver-local rows (a LocalRelation's) and their split into partitions.
/// The relation and every scan planned from it share one holder, so the
/// split, which copies every row, is made once per parallelism rather than
/// once per query, and is freed with the rows.
class LocalRows {
 public:
  explicit LocalRows(std::vector<Row> rows) : rows_(std::move(rows)) {}

  const std::vector<Row>& rows() const { return rows_; }

  /// The rows range-split into `num_partitions` slices, re-split only when
  /// the count differs from the last call's.
  RowDataset Partitioned(size_t num_partitions) const;

 private:
  const std::vector<Row> rows_;
  mutable std::mutex mu_;
  mutable size_t num_partitions_ = 0;
  mutable RowDataset split_;
};

}  // namespace ssql

#endif  // SSQL_ENGINE_DATASET_H_

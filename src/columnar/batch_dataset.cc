#include "columnar/batch_dataset.h"

#include "engine/query_context.h"

namespace ssql {

size_t BatchDataset::TotalRows() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->TotalRows();
  return n;
}

size_t BatchDataset::TotalBatches() const {
  size_t n = 0;
  for (const auto& p : partitions_) n += p->batches.size();
  return n;
}

RowDataset BatchDataset::ToRowDataset(QueryContext& ctx) const {
  return MapToRows(
      ctx,
      [&ctx](size_t, const BatchPartition& in) {
        auto part = std::make_shared<RowPartition>();
        size_t cancel_rows = 0;
        part->rows.reserve(in.TotalRows());
        for (const auto& batch : in.batches) {
          ctx.CheckCancelledEveryRows(&cancel_rows, batch->ActiveRows());
          batch->AppendActiveRowsTo(&part->rows);
        }
        return part;
      },
      "batch.unpack");
}

RowDataset BatchDataset::MapToRows(
    QueryContext& ctx,
    const std::function<RowPartitionPtr(size_t, const BatchPartition&)>& fn,
    const std::string& stage) const {
  std::vector<RowPartitionPtr> out(partitions_.size());
  TaskRunner(ctx).RunStageSpeculatable(
      stage, partitions_.size(), [&](size_t i) -> TaskRunner::TaskCommitFn {
        RowPartitionPtr part = fn(i, *partitions_[i]);
        return [&out, i, part]() { out[i] = part; };
      });
  return RowDataset(std::move(out));
}

BatchDataset BatchDataset::MapPartitions(
    QueryContext& ctx,
    const std::function<BatchPartitionPtr(size_t, const BatchPartition&)>& fn,
    const std::string& stage) const {
  std::vector<BatchPartitionPtr> out(partitions_.size());
  TaskRunner(ctx).RunStageSpeculatable(
      stage, partitions_.size(), [&](size_t i) -> TaskRunner::TaskCommitFn {
        BatchPartitionPtr part = fn(i, *partitions_[i]);
        return [&out, i, part]() { out[i] = part; };
      });
  return BatchDataset(std::move(out));
}

}  // namespace ssql
